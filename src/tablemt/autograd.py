"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine: every operation returns a new ``Tensor`` holding
float64 data, the parent nodes, and a closure that routes the upstream
gradient back to the parents.  ``Tensor.backward()`` runs the closures in
reverse topological order.  Every op has one code path: the ``Tensor``
constructor alone decides whether to record, and inside ``no_grad()`` (teacher
passes and evaluation) it drops the parents and closure, making a leaf.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording; ops executed inside return leaf tensors."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum the gradient of a broadcast result back down to `shape`.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple["Tensor", ...] = (), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        # The one recording rule: inside no_grad every result is a leaf.
        self._parents = parents if _GRAD_ENABLED else ()
        self._backward: Callable[[np.ndarray], None] | None = backward if _GRAD_ENABLED else None

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        # A gradient may be shared: ``a + b`` hands one array to both parents
        # and the shape ops hand a view of the child's.  So the first
        # contribution is stored as it is and each later one makes a new sum,
        # never writing into an array another node may hold.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Backpropagate from this (typically scalar) tensor to all leaves."""
        # Leaves run no closure and sit on no path between two nodes that
        # do, so the walk never pushes them; that leaves the order of the
        # closures, and so the order each gradient is summed in, unchanged.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._parents and p not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape})"

    def _unary(self, out_data, grad: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Tensor":
        """A single-input op's result; its backward hands this tensor
        ``grad(g, out_data)``.  Ops the tracer times by kind keep their own
        closure.  The ops that only tests use, in ``tests/reference_ops.py``,
        are built on it too."""

        def backward(g):
            self._accumulate(grad(g, out_data))

        return Tensor(out_data, (self,), backward)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _ensure(other)
        out_data = self.data + other.data

        def backward(g):
            self._accumulate(_unbroadcast(g, self.data.shape))
            other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = _ensure(other)
        out_data = self.data * other.data

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        return self + (_ensure(other) * -1.0)

    def __matmul__(self, other) -> "Tensor":
        other = _ensure(other)
        assert self.data.ndim == 2 and other.data.ndim == 2
        out_data = self.data @ other.data

        def backward(g):
            self._accumulate(g @ other.data.T)
            other._accumulate(self.data.T @ g)

        return Tensor(out_data, (self, other), backward)

    @property
    def T(self) -> "Tensor":
        return self._unary(self.data.T, lambda g, y: g.T)

    # -- elementwise nonlinearities ----------------------------------------

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh(self.data), lambda g, y: g * (1.0 - y * y))

    def relu(self) -> "Tensor":
        return self._unary(np.maximum(self.data, 0.0), lambda g, y: g * (self.data > 0.0))

    def sigmoid(self) -> "Tensor":
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ez = np.exp(x[~pos])
        out_data[~pos] = ez / (1.0 + ez)
        return self._unary(out_data, lambda g, y: g * y * (1.0 - y))

    def exp(self) -> "Tensor":
        return self._unary(np.exp(self.data), lambda g, y: g * y)

    def log(self) -> "Tensor":
        return self._unary(np.log(self.data), lambda g, y: g / self.data)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(out_data, (self,), backward)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        return self._unary(self.data.reshape(*shape), lambda g, y: g.reshape(self.data.shape))

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g):
            self._accumulate(_scatter_add(idx, g, self.data.shape))

        return Tensor(np.array(out_data), (self,), backward)


def _scatter_add(idx, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, g)``, the gradient that ``x[idx]``
    hands ``x``.  Integer arrays, alone or in a tuple, the gathers of the
    packed map and the embedding, become one slot per element in index
    order, summed by one ``bincount``: each element adds its contributions
    in the order ``np.add.at`` does, starting from +0.0."""
    keys = idx if isinstance(idx, tuple) else (idx,)
    if all(isinstance(k, np.ndarray) and k.dtype.kind in "iu" for k in keys):
        # the forward gather checked the bounds, so "wrap" only turns
        # negative indices around
        cells = np.ravel_multi_index(keys, shape[: len(keys)], mode="wrap")
        inner = math.prod(shape[len(keys) :])
        slots = cells.reshape(-1, 1) * inner + np.arange(inner)
        return np.bincount(slots.ravel(), g.ravel(), math.prod(shape)).reshape(shape)
    buf = np.zeros(shape)
    np.add.at(buf, idx, g)  # a mask, a list, a slice, an int or a mix of them
    return buf


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        sl = [slice(None)] * g.ndim
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return Tensor(out_data, tuple(tensors), backward)


class Packing(NamedTuple):
    """Read-only index tables of n x n maps packed back to back, one per
    entry of ``sizes``: map s's n² row-major cells start at packed cell
    ``cell0[s]``, and its n rows at row ``row0[s]`` of the rows stacked."""

    cell0: np.ndarray  # (S,)
    row0: np.ndarray  # (S,)
    ii: np.ndarray  # (Σn²,) the stacked row of each cell's row
    jj: np.ndarray  # (Σn²,) the stacked row of each cell's column
    taps: np.ndarray  # (Σn², 9) int32: cell (i+di-1, j+dj-1) at [3·di+dj]; Σn² off the map
    inside: np.ndarray  # (Σn, max n) set where stacked row r has a column j


@functools.lru_cache(maxsize=None)
def _map_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One n x n map's tables, cell by cell: its row, its column and its
    (n², 9) int32 3x3 taps, -1 for a tap off the map."""
    i, j = np.divmod(np.arange(n * n), n)
    di, dj = np.divmod(np.arange(9), 3)
    ti, tj = i[:, None] + di - 1, j[:, None] + dj - 1
    on_map = (ti >= 0) & (ti < n) & (tj >= 0) & (tj < n)
    return i, j, np.where(on_map, ti * n + tj, -1).astype(np.int32)


@functools.lru_cache(maxsize=32)
def packing(sizes: tuple[int, ...]) -> Packing:
    """The index tables of maps of ``sizes`` packed back to back, the one
    place their layout is worked out.  Kept for the last few packings, as
    the table, every conv layer and the region head of a pass read one;
    each map's own tables are built once per size and shifted here."""
    n = np.array(sizes)
    cell0, row0 = np.cumsum(n * n) - n * n, np.cumsum(n) - n
    i, j, taps = (np.concatenate(t) for t in zip(*map(_map_tables, sizes)))
    cell_row0 = np.repeat(row0, n * n)
    # int32, as every conv3x3 gathers through them, forward and backward
    shift = np.repeat(cell0, n * n).astype(np.int32)[:, None]
    taps = np.where(taps < 0, len(taps), taps + shift)
    inside = np.arange(n.max()) < np.repeat(n, n)[:, None]
    tables = Packing(cell0, row0, i + cell_row0, j + cell_row0, taps, inside)
    for table in tables:
        table.flags.writeable = False
    return tables


def _window_max(x: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                d: np.ndarray) -> np.ndarray:
    """Row r is ``x[a[r]:c[r]+1, b[r]:d[r]+1].max(axis=(0, 1))`` for an
    (n, w, k) array, with no loop over the windows.

    Rows come from a sparse table over axis 0: level i holds the max of every
    run of 2**i rows, made from level i - 1 by one ``np.maximum``, so the h
    rows a..c are the max of two overlapping runs of 2**floor(log2 h) rows.
    Columns outside b..d are left out of a max over axis 1.  Every step is a
    max, so the result equals the slice max bit for bit.
    """
    n, w, k = x.shape
    h = c - a + 1
    level = np.frexp(h)[1] - 1  # floor(log2 h), exact for integers
    table = np.empty((int(level.max()) + 1, n, w * k))
    table[0] = x.reshape(n, w * k)
    for i in range(1, len(table)):
        half, rows = 1 << (i - 1), n - (1 << i) + 1
        np.maximum(table[i - 1, :rows], table[i - 1, half : half + rows], out=table[i, :rows])
    runs = table[level, a]
    np.maximum(runs, table[level, c + 1 - (1 << level)], out=runs)
    cols = np.arange(w)
    inside = (b[:, None] <= cols) & (cols <= d[:, None])
    return np.maximum.reduce(runs.reshape(-1, w, k), axis=1, where=inside[:, :, None],
                             initial=-np.inf)


def _window_max_grad(x: np.ndarray, out: np.ndarray, g: np.ndarray, a: np.ndarray,
                     b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The gradient that ``_window_max(x, a, b, c, d) == out`` hands ``x``
    for upstream ``g``: row r of ``g`` splits evenly over the k cells of
    window r that hold its max, ``g[r] / k`` to each.  One slot per
    (window, cell inside it), windows in order, summed into ``x``'s shape by
    one ``bincount``, so every cell adds its shares in window order, as a
    loop over the windows would."""
    n, w, k = x.shape
    widths = d - b + 1
    lens = (c - a + 1) * widths
    first = np.cumsum(lens) - lens
    owner = np.repeat(np.arange(len(lens)), lens)
    i, j = np.divmod(np.arange(lens.sum()) - first[owner], widths[owner])
    cells = (a[owner] + i) * w + b[owner] + j
    ties = x.reshape(n * w, k)[cells] == out[owner]
    shares = ties * (g / np.add.reduceat(ties, first, axis=0))[owner]
    slots = (cells * k)[:, None] + np.arange(k)
    return np.bincount(slots.ravel(), shares.ravel(), n * w * k).reshape(x.shape)


def rect_max(x: Tensor, rects: np.ndarray | Sequence[tuple[int, int, int, int]],
             sizes: Sequence[int]) -> Tensor:
    """Elementwise max over inclusive windows of n x n maps packed back to back.

    The leading axes of ``x`` hold the row-major cells of one n x n map per
    entry of ``sizes`` (an (n, n, k) map with ``sizes=[n]`` included), and
    its last axis the channels.  The maps' rows are stacked and padded to the
    widest, so map s's row i is row ``packing(sizes).row0[s] + i``.  Output
    row r is the max over rows a..c and columns b..d for ``rects[r] = (a, b,
    c, d)``, an (m, 4) int array or a sequence of 4-tuples whose window lies
    inside one map.  The k cells of a window that tie for its max get 1/k
    of its gradient each.
    """
    rects = np.asarray(rects)
    inside = packing(tuple(sizes)).inside
    k = x.data.shape[-1]
    full = inside.size * k == x.data.size  # every map is the widest: no row is padded
    if full:
        rows = x.data.reshape(inside.shape + (k,))
    else:
        rows = np.zeros(inside.shape + (k,))
        rows[inside] = x.data.reshape(-1, k)
    out_data = _window_max(rows, *rects.T)

    def backward(g):
        grad = _window_max_grad(rows, out_data, g, *rects.T)
        x._accumulate((grad if full else grad[inside]).reshape(x.data.shape))

    return Tensor(out_data, (x,), backward)


def weighted_bce(p: Tensor, y: np.ndarray, weights: np.ndarray, floor: float) -> Tensor:
    """Weighted binary cross-entropy ``-sum(w * (y log p + (1 - y) log(1 - p)))``
    of probabilities ``p`` against 0/1 labels ``y``, all three of one shape.
    Each log reads ``max(argument, floor)``, and a clamped term passes no
    gradient.  One node, where the composed ops record eleven."""
    q = np.maximum(p.data, floor)
    r = np.maximum(1.0 - p.data, floor)
    value = -(weights * (y * np.log(q) + (1.0 - y) * np.log(r))).sum()

    def grad(g, out):
        dq = y * (p.data > floor) / q
        dr = (1.0 - y) * ((1.0 - p.data) > floor) / r
        return g * -weights * (dq - dr)

    return p._unary(value, grad)


def range_rowmax(h: Tensor, starts: np.ndarray, stops: np.ndarray) -> Tensor:
    """Per-row elementwise max over slices of ``h``.

    Output row r equals ``h.data[starts[r]:stops[r]].max(axis=0)``; requires
    starts[r] < stops[r].  Ties split the gradient evenly, consistent with
    the central-difference subgradient.  Backward reads only the rows inside
    each window, so its work is the total window length times the width,
    whatever the height of ``h``: a packed map of many sentences costs what
    its sentences cost one by one.
    """
    n, k = h.data.shape
    zero = np.zeros_like(starts)
    rows, windows = h.data.reshape(n, 1, k), (starts, zero, stops - 1, zero)
    out_data = _window_max(rows, *windows)

    def backward(g):
        h._accumulate(_window_max_grad(rows, out_data, g, *windows).reshape(n, k))

    return Tensor(out_data, (h,), backward)


def _windows(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The (Σn², 9·c) rows of a packed (Σn², c) map's zero-padded 3x3
    windows, each in (di, dj, c) order, matching ``w.reshape(9 * c, c_out)``;
    a tap off its map reads the zero row appended as row Σn²."""
    padded = np.concatenate([a, np.zeros((1, a.shape[1]))])
    return np.take(padded, taps.ravel(), axis=0).reshape(len(taps), -1)


def conv3x3(x: Tensor, w: Tensor, b: Tensor, sizes: Sequence[int]) -> Tensor:
    """3x3 same-padding convolution of maps packed back to back; w is
    (3, 3, c_in, c_out).

    The leading axes of ``x`` hold the row-major cells of one n x n map per
    entry of ``sizes`` (an (n, n, c_in) map with ``sizes=[n]`` included), and
    its last axis the channels.  Every map sees zeros outside itself, so each
    equals its own convolution.  One im2col matmul forward; backward is one
    matmul for ``w`` and, for ``x``, the same-padded conv of the upstream
    gradient with the kernel flipped in space and its channel axes swapped."""
    ci = x.data.shape[-1]
    co = w.data.shape[3]
    taps = packing(tuple(sizes)).taps
    cols = _windows(x.data.reshape(-1, ci), taps)
    out_data = (cols @ w.data.reshape(9 * ci, co) + b.data).reshape(*x.data.shape[:-1], co)

    def backward(g):
        g = g.reshape(-1, co)
        b._accumulate(g.sum(axis=0))
        w._accumulate((cols.T @ g).reshape(w.data.shape))
        w_flip = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * co, ci)
        x._accumulate((_windows(g, taps) @ w_flip).reshape(x.data.shape))

    return Tensor(out_data, (x, w, b), backward)
