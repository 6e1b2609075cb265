"""Training objectives: supervised corner/region losses, teacher-student
region consistency, and the kernel two-sample (MMD) domain losses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .detector import Mode, RegionProposal, foreground_classes, invalid_class
from .tagging import GoldRegion

_LOG_FLOOR = 1e-12
# MMD bandwidth when the median pairwise distance is undefined or zero.
_FALLBACK_BANDWIDTH = 1.0


@dataclass
class LossBreakdown:
    """The step's loss terms; its fields, in order, are the loss columns of
    the training history."""

    l_rpn: float = 0.0
    l_rpc: float = 0.0
    l_sup: float = 0.0
    l_uns: float = 0.0
    l_mmd: float = 0.0
    total: float = 0.0


def loss_rpn(pb: Tensor, pe: Tensor, yb: np.ndarray, ye: np.ndarray,
             weights: np.ndarray) -> Tensor:
    """Cell-weighted binary cross-entropy of both corner maps: each cell's
    B and E terms weigh ``weights`` at that cell.  Weights of 1 / (2 n²) give
    the mean over one sentence's 2n² corner cells; a training batch also
    divides by its source sentences and weighs every other cell 0."""
    if not pb.shape == pe.shape == yb.shape == ye.shape == weights.shape:
        raise ValueError("score/label/weight shape mismatch")
    return (ag.weighted_bce(pb, yb.astype(float), weights, _LOG_FLOOR)
            + ag.weighted_bce(pe, ye.astype(float), weights, _LOG_FLOOR))


def loss_rpc(logp: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted categorical cross-entropy -sum(w * log p[target]) over the
    first ``len(targets)`` rows of ``logp``; zero when there are none.
    Weights of 1 / m give the mean over one sentence's m proposals."""
    m = len(targets)
    if m == 0:
        return Tensor(0.0)
    picked = logp[(np.arange(m), np.asarray(targets, dtype=np.int64))]
    return (picked * Tensor(-weights)).sum()


def match_gold(
    proposals: Sequence[RegionProposal],
    gold_regions: Sequence[GoldRegion],
    mode: Mode,
) -> np.ndarray:
    """Class targets per proposal by exact rectangle match; unmatched
    proposals are INVALID, and a gold class that is not one of the mode's
    foreground classes takes the first of them (AOPE's VALID).  Gold
    rectangles the pruner missed reach the proposals through
    ``model.forward(extra_rects=)``, not here."""
    fg = foreground_classes(mode)
    gold_by_rect: dict[tuple[int, int, int, int], int] = {}
    for g in gold_regions:
        gold_by_rect.setdefault(g.rect(), int(g.cls) if g.cls in fg else fg[0])
    invalid = invalid_class(mode)
    targets = [gold_by_rect.get(p, invalid) for p in proposals]
    return np.array(targets, dtype=np.int64)


def loss_uns(student_probs: Tensor | None, teacher_probs: np.ndarray) -> Tensor:
    """Mean squared L2 distance between student and teacher class
    probabilities over the retained pseudo-labeled regions."""
    if student_probs is None or teacher_probs.shape[0] == 0:
        return Tensor(0.0)
    diff = student_probs - Tensor(teacher_probs)
    return (diff * diff).sum(axis=1).mean()


def mmd(x, y) -> Tensor:
    """Biased-estimator (V-statistic) squared MMD with a Gaussian kernel
    between the rows of two (m, k) Tensors or arrays:
    mean k(x,x') + mean k(y,y') - 2 mean k(x,y), clamped at zero.  The
    bandwidth is the median pairwise distance over the pooled samples (the
    mean of the two middle ones for an even count, 1.0 when that is zero);
    it and the kernel read one pooled squared-distance matrix.

    One tape node with parents ``(x, y)``.  Its value and both gradients
    equal, byte for byte, those of the same formula composed from tape ops
    (``concat``, the pairwise differences, the median's gathers, the kernel
    blocks' means and a clamp at zero)."""
    xm, ym = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, y))
    m, k = xm.shape[0], ym.shape[0]
    if m == 0 or k == 0:
        return Tensor(0.0)
    z = np.concatenate([xm.data, ym.data], axis=0)
    p = len(z)
    diff = z[:, None, :] - z[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    iu, ju = np.triu_indices(p, k=1)
    dists = np.sqrt(d2[iu, ju])
    q = len(dists)
    mid = np.argsort(dists, kind="stable")[(q - 1) // 2 : q // 2 + 1]
    med = np.asarray(dists[mid].mean())  # 0-d: a numpy scalar's ** rounds differently
    fallback = float(med) <= 0.0
    if fallback:
        med = np.asarray(_FALLBACK_BANDWIDTH)
    inv_two_sigma_sq = med**-2.0 * 0.5
    kern = np.exp(-d2 * inv_two_sigma_sq)
    blocks = ((slice(None, m), slice(None, m)), (slice(m, None), slice(m, None)),
              (slice(None, m), slice(m, None)))
    # numpy sums a strided block of over 8192 cells in another order than a copy
    mxx, myy, mxy = (np.array(kern[b]).sum() * (1.0 / kern[b].size) for b in blocks)
    raw = mxx + myy - mxy * 2.0

    def backward(g):
        g_raw = g * (raw > 0.0)
        g_kern = np.zeros((p, p))
        for b, g_mean in zip(blocks, (g_raw, g_raw, g_raw * -2.0)):
            g_kern[b] += g_mean * (1.0 / kern[b].size)
        g_exp = g_kern * kern
        g_d2 = -g_exp * inv_two_sigma_sq
        if not fallback:
            g_inv = (g_exp * -d2).sum(axis=0).sum()
            g_med = g_inv * 0.5 * -2.0 * med**-3.0
            g_mid = g_med * (1.0 / mid.size) * 0.5
            g_d2[iu[mid], ju[mid]] += g_mid / np.where(dists[mid] > 0.0, dists[mid], 1.0)
        g_diff = 2.0 * (g_d2[:, :, None] * diff)
        g_z = g_diff.sum(axis=1) - g_diff.sum(axis=0)
        xm._accumulate(g_z[:m])
        ym._accumulate(g_z[m:])

    return Tensor(np.maximum(raw, 0.0), (xm, ym), backward)


def loss_mmd(src_groups: dict, tgt_groups: dict) -> Tensor:
    """Sum of ``mmd`` over the feature groups present on both sides, in
    sorted key order.  Each group maps a key to its (m, k) feature rows."""
    keys = sorted(src_groups.keys() & tgt_groups.keys())
    terms = [mmd(src_groups[k], tgt_groups[k]) for k in keys]
    return sum(terms[1:], terms[0]) if terms else Tensor(0.0)


def total_loss(l_sup: Tensor, l_uns_t: Tensor, l_mmd_t: Tensor, alpha: float, beta: float) -> Tensor:
    return l_sup + alpha * l_uns_t + beta * l_mmd_t
