"""Finite-difference checks for every engine op."""

import numpy as np
import pytest

from tablemt import autograd as ag
from tablemt.autograd import Tensor

import reference_ops as ref


def fd_check(fn, arrays, eps=1e-6, rtol=1e-5):
    """Compare backward() grads of scalar fn(*tensors) against central FD."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = fn(*tensors)
    out.backward()

    def feval(ai, idx, delta):
        mod = [a.copy() for a in arrays]
        mod[ai][idx] += delta
        return fn(*[Tensor(m) for m in mod]).item()

    for ai, (t, base) in enumerate(zip(tensors, arrays)):
        grad = t.grad if t.grad is not None else np.zeros_like(base)
        for pos in range(min(base.size, 6)):
            idx = np.unravel_index(pos, base.shape)
            fd = (feval(ai, idx, eps) - feval(ai, idx, -eps)) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=rtol, abs=1e-7), f"grad mismatch at {idx}"


rng = np.random.default_rng(42)


def test_add_mul_broadcast():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    fd_check(lambda x, y: ((x + y) * (x * 0.5 + 2.0)).sum(), [a, b])


def test_sub_div_pow():
    a = rng.normal(size=(3, 3)) + 3.0
    b = rng.normal(size=(3, 3)) + 3.0
    fd_check(lambda x, y: ((x - y) * ref.power(y, -2.0)).sum(), [a, b])


def test_matmul_transpose():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    fd_check(lambda x, y: ((x @ y) * (x @ y)).sum(), [a, b])
    fd_check(lambda x: (x.T @ x).sum(), [a])


def test_nonlinearities():
    a = rng.normal(size=(2, 5))
    fd_check(lambda x: x.tanh().sum(), [a])
    fd_check(lambda x: x.sigmoid().sum(), [a])
    fd_check(lambda x: ref.sqrt(x * x + 0.5).sum(), [a])
    fd_check(lambda x: x.exp().sum(), [a])
    fd_check(lambda x: (x * x + 1.0).log().sum(), [a])


def test_relu_and_clamp_away_from_kinks():
    a = rng.normal(size=(4, 4))
    a[np.abs(a) < 0.1] = 0.5
    fd_check(lambda x: x.relu().sum(), [a])
    fd_check(lambda x: ref.clamp_min(x, 0.0).sum(), [a])


def test_reductions():
    a = rng.normal(size=(3, 4, 2))
    fd_check(lambda x: x.sum(axis=1).tanh().sum(), [a])
    fd_check(lambda x: x.mean().tanh(), [a])
    fd_check(lambda x: ref.max(x, axis=(0, 1)).sum(), [a])
    fd_check(lambda x: ref.max(x).reshape(1).sum(), [a])


def test_max_tie_splits_gradient():
    a = Tensor(np.array([[1.0, 1.0, 0.0]]))
    out = ref.max(a, axis=1)
    out.backward()
    assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])


def test_getitem_slices_and_fancy():
    a = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    fd_check(lambda x: x[1:4, :2].sum(), [a])
    fd_check(lambda x: x[idx].sum(), [a])  # repeated index accumulates
    fd_check(lambda x: x[(np.array([0, 1]), np.array([2, 0]))].sum(), [a])


def test_reshape_concat_stack():
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    fd_check(lambda x, y: ag.concat([x, y], axis=1).tanh().sum(), [a, b])
    fd_check(lambda x: x.reshape(6).tanh().sum(), [a])
    v1 = rng.normal(size=(4,))
    v2 = rng.normal(size=(4,))
    fd_check(lambda x, y: ag.concat([x.reshape(1, -1), y.reshape(1, -1)]).tanh().sum(), [v1, v2])


def test_rect_max_matches_slices_and_grads():
    x = np.random.default_rng(7).normal(size=(4, 4, 3))
    # channel 0 ties at (0, 0) and (0, 1), the first cells fd_check probes
    x[0, 0, 0] = x[0, 1, 0] = x[..., 0].max() + 1.0
    rects = [(0, 0, 3, 3), (0, 0, 1, 1), (0, 1, 2, 3), (2, 0, 2, 3), (3, 3, 3, 3), (0, 0, 1, 1)]
    out = ag.rect_max(Tensor(x), rects, [4])
    expected = np.stack([x[a : c + 1, b : d + 1].max(axis=(0, 1)) for a, b, c, d in rects])
    assert np.array_equal(out.data, expected)
    fd_check(lambda t: ag.rect_max(t, rects, [4]).tanh().sum(), [x])


def test_range_rowmax_matches_loop_and_grads():
    h = rng.normal(size=(6, 3))
    starts = np.array([0, 2, 1, 5])
    stops = np.array([3, 6, 2, 6])
    out = ag.range_rowmax(Tensor(h), starts, stops)
    expected = np.stack([h[s:e].max(axis=0) for s, e in zip(starts, stops)])
    assert np.array_equal(out.data, expected)
    fd_check(lambda x: ag.range_rowmax(x, starts, stops).tanh().sum(), [h])


def _rect_max_loop(x, rects, g):
    """``rect_max`` as a loop over its windows, the way it was computed
    before the windows were vectorised: the output, and the gradient that
    flows back from upstream gradient ``g``."""
    windows = [(slice(a, c + 1), slice(b, d + 1)) for a, b, c, d in rects]
    out = np.stack([x[w].max(axis=(0, 1)) for w in windows])
    grad = np.zeros_like(x)
    for w, top, gw in zip(windows, out, g):
        ties = x[w] == top
        grad[w] += ties * (gw / ties.sum(axis=(0, 1)))
    return out, grad


def _range_rowmax_dense(h, starts, stops, g):
    """``range_rowmax`` through a dense (m, n, d) mask, the way it was
    computed before its forward shared ``rect_max``'s kernel."""
    rows = np.arange(h.shape[0])
    valid = (rows[None, :] >= starts[:, None]) & (rows[None, :] < stops[:, None])
    expanded = np.where(valid[:, :, None], h[None, :, :], -np.inf)
    out = expanded.max(axis=1)
    ties = (expanded == out[:, None, :]) & valid[:, :, None]
    grad = (ties * (g[:, None, :] / ties.sum(axis=1, keepdims=True))).sum(axis=0)
    return out, grad


def _tied_map(rng, shape, nan):
    """Values from {0, 1, 2}, so most windows hold ties; optionally one NaN."""
    x = rng.integers(0, 3, size=shape).astype(float)
    if nan:
        x[tuple(int(rng.integers(s)) for s in shape)] = np.nan
    return x


def _all_windows(n, rng, cap=150):
    """Every window shape: each 1x1 cell; in each row and each column, the
    full span and a random one; the full table; and inclusive windows at
    random (all of them while there are few)."""
    spans = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    some = [spans[i] for i in rng.integers(len(spans), size=n)]
    rects = [(i, j, i, j) for i in range(n) for j in range(n)]
    rects += [(i, 0, i, n - 1) for i in range(n)]
    rects += [(i, lo, i, hi) for i, (lo, hi) in enumerate(some)]
    rects += [(0, j, n - 1, j) for j in range(n)]
    rects += [(lo, j, hi, j) for j, (lo, hi) in enumerate(some)]
    rects.append((0, 0, n - 1, n - 1))
    pairs = [(a, b, c, d) for a, c in spans for b, d in spans]
    if len(pairs) > cap:
        pairs = [pairs[i] for i in rng.choice(len(pairs), cap, replace=False)]
    return rects + pairs


@pytest.mark.parametrize("nan", [False, True], ids=["ties", "ties-and-nan"])
def test_rect_max_equals_the_window_loop_bit_for_bit(nan):
    rng = np.random.default_rng(31 + nan)
    for n in range(1, 25):
        x = _tied_map(rng, (n, n, 3), nan)
        rects = _all_windows(n, rng)
        g = rng.normal(size=(len(rects), 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            expected, expected_grad = _rect_max_loop(x, rects, g)
            t = Tensor(x)
            out = ag.rect_max(t, rects, [n])
            (out * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(t.grad, expected_grad)


@pytest.mark.parametrize("nan", [False, True], ids=["ties", "ties-and-nan"])
def test_range_rowmax_equals_the_dense_mask_bit_for_bit(nan):
    rng = np.random.default_rng(41 + nan)
    for n in range(1, 25):
        h = _tied_map(rng, (n, 3), nan)
        # every token range build_table pools, singletons and the whole sentence included
        ii, jj = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        starts, stops = np.minimum(ii, jj), np.maximum(ii, jj) + 1
        g = rng.normal(size=(n * n, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            expected, expected_grad = _range_rowmax_dense(h, starts, stops, g)
            t = Tensor(h)
            out = ag.range_rowmax(t, starts, stops)
            (out * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(t.grad, expected_grad)


def test_conv3x3_shapes_and_grads():
    x = rng.normal(size=(4, 4, 3))
    w = rng.normal(size=(3, 3, 3, 2))
    b = rng.normal(size=(2,))
    out = ag.conv3x3(Tensor(x), Tensor(w), Tensor(b), [4])
    assert out.shape == (4, 4, 2)
    fd_check(lambda xx, ww, bb: ag.conv3x3(xx, ww, bb, [4]).tanh().sum(), [x, w, b])


def test_conv3x3_single_cell_is_center_tap():
    x = rng.normal(size=(1, 1, 3))
    w = rng.normal(size=(3, 3, 3, 2))
    b = rng.normal(size=(2,))
    out = ag.conv3x3(Tensor(x), Tensor(w), Tensor(b), [1])
    dense = x[0, 0] @ w[1, 1] + b
    assert np.allclose(out.data[0, 0], dense)


def _nine_matmul_conv(x, w, b, g):
    """The 9-matmul forward and 18-matmul backward conv3x3 ran before im2col:
    the output and the x, w and b gradients for upstream gradient g."""
    n, ci, co = x.shape[0], x.shape[2], w.shape[3]
    xp = np.zeros((n + 2, n + 2, ci))
    xp[1:-1, 1:-1] = x
    out = np.broadcast_to(b, (n, n, co)).copy()
    g2 = g.reshape(n * n, co)
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            patch = xp[di : di + n, dj : dj + n].reshape(n * n, ci)
            out += (patch @ w[di, dj]).reshape(n, n, co)
            gw[di, dj] = patch.T @ g2
            gxp[di : di + n, dj : dj + n] += (g2 @ w[di, dj].T).reshape(n, n, ci)
    return out, gxp[1:-1, 1:-1], gw, g.sum(axis=(0, 1))


@pytest.mark.parametrize("n", range(1, 25))
def test_conv3x3_equals_nine_matmul_reference(n):
    r = np.random.default_rng(n)
    x, w, b = r.normal(size=(n, n, 5)), r.normal(size=(3, 3, 5, 7)), r.normal(size=(7,))
    g = r.normal(size=(n, n, 7))
    leaves = [Tensor(a) for a in (x, w, b)]
    out = ag.conv3x3(*leaves, [n])
    (out * Tensor(g)).sum().backward()
    want = _nine_matmul_conv(x, w, b, g)
    # im2col sums the 9 * c_in products in another order: rounding only
    for got, ref in zip([out.data] + [t.grad for t in leaves], want):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_conv3x3_alone_matches_finite_differences():
    x = rng.normal(size=(5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=(3,))
    g = rng.normal(size=(5, 5, 3))
    fd_check(lambda xx, ww, bb: (ag.conv3x3(xx, ww, bb, [5]) * Tensor(g)).sum(), [x, w, b])


def _fd_every_entry(fn, array, grad, eps=1e-6):
    """Central differences of scalar ``fn(Tensor)`` at every entry of ``array``."""
    for idx in np.ndindex(array.shape):
        hi, lo = array.copy(), array.copy()
        hi[idx] += eps
        lo[idx] -= eps
        fd = (fn(Tensor(hi)).item() - fn(Tensor(lo)).item()) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7), f"grad mismatch at {idx}"


def test_conv3x3_on_two_packed_maps_matches_finite_differences():
    sizes = [3, 2]
    x = rng.normal(size=(9 + 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=(3,))
    g = rng.normal(size=(9 + 4, 3))
    leaves = [Tensor(a) for a in (x, w, b)]
    (ag.conv3x3(*leaves, sizes) * Tensor(g)).sum().backward()
    _fd_every_entry(lambda t: (ag.conv3x3(t, leaves[1], leaves[2], sizes) * Tensor(g)).sum(),
                    x, leaves[0].grad)
    fd_check(lambda xx, ww, bb: (ag.conv3x3(xx, ww, bb, sizes) * Tensor(g)).sum(), [x, w, b])
    # each map sees only itself: the packed output is the two maps' own convs
    # (up to rounding: BLAS may sum a row in another order when the number
    # of rows in the product changes)
    first = ag.conv3x3(Tensor(x[:9].reshape(3, 3, 2)), leaves[1], leaves[2], [3])
    second = ag.conv3x3(Tensor(x[9:].reshape(2, 2, 2)), leaves[1], leaves[2], [2])
    packed = ag.conv3x3(Tensor(x), leaves[1], leaves[2], sizes)
    np.testing.assert_allclose(packed.data, np.concatenate(
        [first.data.reshape(9, 3), second.data.reshape(4, 3)]), rtol=1e-12, atol=1e-12)


def test_range_rowmax_on_two_packed_sentences_matches_finite_differences():
    # the token ranges build_table pools, for sentences of 3 and 4 tokens
    # stacked as rows 0-2 and 3-6
    starts, stops = [], []
    for n, offset in ((3, 0), (4, 3)):
        ii, jj = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        starts.append(offset + np.minimum(ii, jj))
        stops.append(offset + np.maximum(ii, jj) + 1)
    starts, stops = np.concatenate(starts), np.concatenate(stops)
    h = rng.normal(size=(7, 3))
    g = rng.normal(size=(len(starts), 3))
    t = Tensor(h)
    (ag.range_rowmax(t, starts, stops) * Tensor(g)).sum().backward()
    _fd_every_entry(lambda x: (ag.range_rowmax(x, starts, stops) * Tensor(g)).sum(), h, t.grad)


def test_rect_max_on_packed_maps_equals_each_map_alone_bit_for_bit():
    """Windows of four maps packed back to back (one a single cell) give the
    rows and the gradient each map's own ``rect_max`` gives, bit for bit."""
    rng_ = np.random.default_rng(53)
    sizes = [3, 1, 5, 2]
    maps = [_tied_map(rng_, (n, n, 3), False) for n in sizes]
    rects = [_all_windows(n, rng_, cap=20) for n in sizes]
    grads = [rng_.normal(size=(len(r), 3)) for r in rects]
    row0 = np.cumsum(sizes) - sizes
    stacked = [(r0 + a, b, r0 + c, d) for r0, rs in zip(row0, rects) for a, b, c, d in rs]
    packed = Tensor(np.concatenate([m.reshape(-1, 3) for m in maps]))
    out = ag.rect_max(packed, stacked, sizes)
    (out * Tensor(np.concatenate(grads))).sum().backward()
    alone_rows, alone_grads = [], []
    for n, m, rs, g in zip(sizes, maps, rects, grads):
        t = Tensor(m)
        alone = ag.rect_max(t, rs, [n])
        (alone * Tensor(g)).sum().backward()
        alone_rows.append(alone.data)
        alone_grads.append(t.grad.reshape(-1, 3))
    np.testing.assert_array_equal(out.data, np.concatenate(alone_rows))
    np.testing.assert_array_equal(packed.grad, np.concatenate(alone_grads))


def test_rect_max_on_two_packed_maps_matches_finite_differences():
    sizes = [3, 2]
    x = rng.normal(size=(9 + 4, 2))
    rects = [(0, 0, 2, 2), (1, 1, 2, 1), (3, 0, 4, 1), (4, 1, 4, 1), (3, 1, 3, 1)]
    g = rng.normal(size=(len(rects), 2))
    t = Tensor(x)
    (ag.rect_max(t, rects, sizes) * Tensor(g)).sum().backward()
    _fd_every_entry(lambda u: (ag.rect_max(u, rects, sizes) * Tensor(g)).sum(), x, t.grad)


@pytest.mark.parametrize("nan", [False, True], ids=["ties", "ties-and-nan"])
def test_rect_max_on_packed_tied_maps_equals_the_window_loop_bit_for_bit(nan):
    """Maps of 1 to 24 tokens packed back to back, most windows holding ties:
    the output and the gradient equal the loop over the windows that
    ``rect_max`` ran on the stacked, padded rows before its backward was
    vectorised, bit for bit."""
    rng_ = np.random.default_rng(61 + nan)
    sizes = [24, 1, 2, 7, 24, 3]
    x = np.concatenate([_tied_map(rng_, (n * n, 4), False) for n in sizes])
    if nan:
        x[int(rng_.integers(len(x))), 2] = np.nan
    row0 = np.cumsum(sizes) - sizes
    rects = [(r0 + a, b, r0 + c, d) for n, r0 in zip(sizes, row0)
             for a, b, c, d in _all_windows(n, rng_, cap=60)]
    g = rng_.normal(size=(len(rects), 4))
    inside = np.arange(max(sizes)) < np.repeat(sizes, sizes)[:, None]
    rows = np.zeros(inside.shape + (4,))
    rows[inside] = x
    with np.errstate(divide="ignore", invalid="ignore"):
        expected, expected_grad = _rect_max_loop(rows, rects, g)
        t = Tensor(x)
        out = ag.rect_max(t, rects, sizes)
        (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(out.data, expected)
    np.testing.assert_array_equal(t.grad, expected_grad[inside])


def test_rect_max_on_maps_of_one_width_equals_the_window_loop_bit_for_bit():
    """Maps all as wide as the widest have no padded row, so ``rect_max``
    reads their stacked rows in place: one map, and three of one size."""
    rng_ = np.random.default_rng(67)
    for sizes in ([5], [4, 4, 4]):
        x = np.concatenate([_tied_map(rng_, (n * n, 3), False) for n in sizes])
        row0 = np.cumsum(sizes) - sizes
        rects = [(r0 + a, b, r0 + c, d) for n, r0 in zip(sizes, row0)
                 for a, b, c, d in _all_windows(n, rng_, cap=40)]
        g = rng_.normal(size=(len(rects), 3))
        expected, expected_grad = _rect_max_loop(x.reshape(sum(sizes), sizes[0], 3), rects, g)
        t = Tensor(x)
        out = ag.rect_max(t, rects, sizes)
        (out * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(t.grad, expected_grad.reshape(x.shape))


_GATHERS = {
    "repeated rows": ((6, 3), np.array([0, 2, 2, 5, 2, 0])),
    "bilinear (ii, jj)": ((5, 5), (np.repeat(np.arange(5), 5), np.tile([0, 1, 1, 4, 4], 5))),
    "triu_indices": ((5, 5), np.triu_indices(5)),
    "2-D index array": ((4, 2), np.array([[0, 3], [3, 3], [1, 0]])),
    "slices": ((5, 4), (slice(1, 4), slice(None, None, 2))),
    "an int and a slice": ((5, 4), (2, slice(1, None))),
    "negative rows": ((5, 3), np.array([-1, 0, -1, 4, -5])),
    "negative pairs": ((4, 4, 2), (np.array([-1, 0, 3, -1]), np.array([2, -4, -1, 2]))),
    "a boolean mask": ((3, 4), np.array([True, False, True])),
    "a slice and an array": ((3, 5), (slice(None), np.array([4, 0, 4]))),
}


@pytest.mark.parametrize("name", list(_GATHERS))
def test_getitem_backward_equals_np_add_at_bit_for_bit(name):
    """The scatter that ``x[idx]`` sends back sums duplicates in index
    order from +0.0, as ``np.add.at`` into a zero buffer does; upstream
    ``-0.0`` values, alone and repeated, keep that sum's signs."""
    shape, idx = _GATHERS[name]
    rng_ = np.random.default_rng(71)
    t = Tensor(rng_.normal(size=shape))
    out = t[idx]
    g = rng_.normal(size=out.shape)
    g.ravel()[::3] = -0.0
    (out * Tensor(g)).sum().backward()
    expected = np.zeros(shape)
    np.add.at(expected, idx, g)
    assert t.grad.shape == shape and t.grad.tobytes() == expected.tobytes()


def _broadcast_packing(sizes):
    """``packing``'s tables as one broadcast over every cell of the batch,
    the way they were built before each size's tables were cached."""
    n = np.array(sizes)
    cell0, row0 = np.cumsum(n * n) - n * n, np.cumsum(n) - n
    owner = np.repeat(np.arange(len(n)), n * n)
    size = n[owner][:, None]
    i, j = np.divmod(np.arange(len(owner)) - cell0[owner], n[owner])
    di, dj = np.divmod(np.arange(9), 3)
    ti, tj = i[:, None] + di - 1, j[:, None] + dj - 1
    on_map = (ti >= 0) & (ti < size) & (tj >= 0) & (tj < size)
    taps = np.where(on_map, cell0[owner][:, None] + ti * size + tj, len(owner))
    inside = np.arange(n.max()) < np.repeat(n, n)[:, None]
    return cell0, row0, i + row0[owner], j + row0[owner], taps, inside


def test_packing_equals_the_broadcast_construction():
    rng_ = np.random.default_rng(73)
    for _ in range(40):
        sizes = tuple(int(n) for n in rng_.integers(1, 25, size=rng_.integers(1, 10)))
        sizes += (1, 24)
        sizes = tuple(rng_.permutation(sizes).tolist())
        tables = zip(ag.Packing._fields, ag.packing(sizes), _broadcast_packing(sizes))
        for name, table, expected in tables:
            dtype = np.int32 if name == "taps" else expected.dtype  # conv3x3 gathers by int32
            assert table.dtype == dtype and table.shape == expected.shape
            np.testing.assert_array_equal(table, expected)
            assert not table.flags.writeable


def _alone(n):
    """One n x n map's tables, cell by cell: each cell's token rows, and its
    3x3 taps with n² for a tap off the map."""
    ii, jj, taps = [], [], []
    for i in range(n):
        for j in range(n):
            ii.append(i)
            jj.append(j)
            taps.append([(i + di - 1) * n + j + dj - 1
                         if 0 <= i + di - 1 < n and 0 <= j + dj - 1 < n else n * n
                         for di in range(3) for dj in range(3)])
    return np.array(ii), np.array(jj), np.array(taps)


def test_packing_is_each_map_alone_shifted_by_its_offsets():
    sizes = (3, 1, 24, 2, 1, 24, 5)
    p = ag.packing(sizes)
    total = sum(n * n for n in sizes)
    assert p.cell0.tolist() == [0, 9, 10, 586, 590, 591, 1167]
    assert p.row0.tolist() == [0, 3, 4, 28, 30, 31, 55]
    assert p.taps.shape == (total, 9) and p.inside.shape == (sum(sizes), 24)
    for n, c0, r0 in zip(sizes, p.cell0, p.row0):
        ii, jj, taps = _alone(n)
        cells, rows = slice(c0, c0 + n * n), slice(r0, r0 + n)
        np.testing.assert_array_equal(p.ii[cells], ii + r0)
        np.testing.assert_array_equal(p.jj[cells], jj + r0)
        np.testing.assert_array_equal(p.taps[cells], np.where(taps == n * n, total, taps + c0))
        assert p.inside[rows, :n].all() and not p.inside[rows, n:].any()
    for table in p:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    assert ag.packing(sizes) is p


def _bce_composed(p, y, w, floor):
    """``weighted_bce`` written with the engine's elementwise ops."""
    logp = ref.clamp_min(p, floor).log()
    log1mp = ref.clamp_min(1.0 - p, floor).log()
    return -(Tensor(w) * (Tensor(y) * logp + Tensor(1.0 - y) * log1mp)).sum()


def test_weighted_bce_matches_finite_differences_and_the_composed_ops():
    p = rng.uniform(0.05, 0.95, size=(13,))
    y = rng.integers(0, 2, size=13).astype(float)
    w = rng.uniform(0.0, 1.0, size=13)
    w[[2, 7]] = 0.0  # cells outside the loss weigh nothing
    t = Tensor(p)
    out = ag.weighted_bce(t, y, w, 1e-12)
    out.backward()
    _fd_every_entry(lambda u: ag.weighted_bce(u, y, w, 1e-12), p, t.grad)
    ref_t = Tensor(p)
    ref = _bce_composed(ref_t, y, w, 1e-12)
    ref.backward()
    assert out.item() == pytest.approx(ref.item(), rel=1e-14)
    np.testing.assert_allclose(t.grad, ref_t.grad, rtol=1e-14, atol=0)
    assert t.grad[2] == t.grad[7] == 0.0


def test_weighted_bce_floors_its_logs_like_clamp_min():
    # saturated probabilities: each log reads the floor and passes no gradient
    p = np.array([0.0, 1.0, 1e-20, 1.0 - 1e-17, 0.5])
    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    w = np.full(5, 0.2)
    t, ref_t = Tensor(p), Tensor(p)
    out = ag.weighted_bce(t, y, w, 1e-12)
    ref = _bce_composed(ref_t, y, w, 1e-12)
    out.backward()
    ref.backward()
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(ref.item(), rel=1e-14)
    np.testing.assert_array_equal(t.grad, ref_t.grad)


_POS = np.random.default_rng(3).uniform(0.5, 2.0, size=(3, 3))  # log, sqrt and pow
_ANY = np.random.default_rng(4).normal(size=(3, 3))
_MAP = np.random.default_rng(5).normal(size=(3, 3, 2))

# op -> (function of leaf tensors, the arrays to make them from)
_OPS = {
    "add": (lambda x, y: x + y, [_ANY, _POS]),
    "mul": (lambda x, y: x * y, [_ANY, _POS]),
    "pow": (lambda x: ref.power(x, -2.0), [_POS]),
    "matmul": (lambda x, y: x @ y, [_ANY, _POS]),
    "T": (lambda x: x.T, [_ANY]),
    "tanh": (Tensor.tanh, [_ANY]),
    "relu": (Tensor.relu, [_ANY]),
    "sigmoid": (Tensor.sigmoid, [_ANY]),
    "exp": (Tensor.exp, [_ANY]),
    "log": (Tensor.log, [_POS]),
    "sqrt": (ref.sqrt, [_POS]),
    "clamp_min": (lambda x: ref.clamp_min(x, 0.1), [_ANY]),
    "sum": (lambda x: x.sum(axis=0), [_ANY]),
    "max": (lambda x: ref.max(x, axis=1), [_ANY]),
    "reshape": (lambda x: x.reshape(9), [_ANY]),
    "getitem": (lambda x: x[np.array([0, 2, 2])], [_ANY]),
    "concat": (lambda x, y: ag.concat([x, y], axis=1), [_ANY, _POS]),
    "rect_max": (lambda x: ag.rect_max(x, [(0, 0, 1, 2), (2, 1, 2, 1)], [3]), [_MAP]),
    "range_rowmax": (lambda x: ag.range_rowmax(x, np.array([0, 1]), np.array([2, 3])), [_ANY]),
    "weighted_bce": (lambda x: ag.weighted_bce(x, np.eye(3), _POS, 1e-12),
                     [_POS / _POS.max() * 0.9]),
    "conv3x3": (lambda x, w, b: ag.conv3x3(x, w, b, [3]),
                [_MAP, _MAP.reshape(3, 3, 2, 1) * np.ones(2), _POS[0, :2]]),
}


@pytest.mark.parametrize("op", _OPS)
def test_no_grad_suppresses_graph(op):
    fn, arrays = _OPS[op]
    recorded = fn(*[Tensor(a) for a in arrays])
    assert recorded._parents != () and recorded._backward is not None
    with ag.no_grad():
        out = fn(*[Tensor(a) for a in arrays])
    assert out._parents == () and out._backward is None
    assert out.data.shape == recorded.data.shape
    assert out.data.tobytes() == recorded.data.tobytes()


def test_backward_accumulates_through_shared_nodes():
    a = Tensor(np.array([2.0]))
    b = a * a  # a appears twice
    (b + a).backward()
    assert np.allclose(a.grad, [5.0])  # 2a + 1


def test_zero_upstream_gives_zero_param_grad():
    a = Tensor(rng.normal(size=(3, 3)))
    (a.tanh() * 0.0).sum().backward()
    assert np.allclose(a.grad, 0.0)


def test_x_plus_x_leaves_the_upstream_gradient_alone():
    x = Tensor(rng.normal(size=(2, 3)))
    y = x + x  # hands one gradient array to both of its parents, both x
    y.backward()
    assert np.array_equal(y.grad, np.ones((2, 3)))
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_parents_sharing_one_gradient_keep_their_own():
    a = Tensor(rng.normal(size=(3,)))
    b = Tensor(rng.normal(size=(3,)))
    s = a + b  # a and b first receive the same gradient array
    (s + a).sum().backward()  # a then receives a second contribution
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(s.grad, np.ones(3))


def test_reshape_parent_does_not_write_into_the_childs_gradient():
    x = Tensor(rng.normal(size=(2, 3)))
    r = x.reshape(6)  # its backward hands x a view of r's gradient
    t = r.tanh()
    (t.sum() + (x * 3.0).sum()).backward()
    want_r = 1.0 - t.data * t.data
    assert np.array_equal(r.grad, want_r)
    assert np.array_equal(x.grad, want_r.reshape(2, 3) + 3.0)


def test_second_backward_adds_to_the_first_without_aliasing():
    # as the zero-filling engine did: each backward() adds into the grads the
    # last one left, intermediate nodes' included
    x = Tensor(np.ones(3))
    p = x.reshape(3)
    out = (p + p).sum()
    out.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))
    out.backward()  # p's gradient, lent to x as a view, must not change
    assert np.array_equal(p.grad, np.full(3, 8.0))
    assert np.array_equal(x.grad, np.full(3, 10.0))
