"""Tensor ops that only the tests use, built on ``Tensor._unary``.

The library computes its pooling with ``rect_max``, its logs with
``weighted_bce`` and its MMD as one node; the references that the tests
check those fused ops against compose these elementwise ops and reductions
instead.  Each records one tape node, as the engine's own ops do.
"""

import numpy as np

from tablemt.autograd import Tensor


def power(x: Tensor, p: float) -> Tensor:
    """``x ** p`` elementwise."""
    return x._unary(x.data**p, lambda g, y: g * p * x.data ** (p - 1))


def sqrt(x: Tensor) -> Tensor:
    # Guarded at exact zeros so a zero upstream gradient stays zero
    # instead of producing 0 * inf = nan.
    return x._unary(np.sqrt(x.data), lambda g, y: g * 0.5 / np.where(y > 0.0, y, 1.0))


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """``max(x, floor)`` elementwise; a clamped entry passes no gradient."""
    return x._unary(np.maximum(x.data, floor), lambda g, y: g * (x.data > floor))


def max(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max over ``axis``; the entries that tie for a max split its gradient
    evenly."""

    def grad(g, y):
        if axis is not None and not keepdims:
            y, g = np.expand_dims(y, axis), np.expand_dims(g, axis)
        mask = x.data == y
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return mask * (g / counts)

    return x._unary(x.data.max(axis=axis, keepdims=keepdims), grad)
