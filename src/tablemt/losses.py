"""Training objectives: supervised corner/region losses, teacher-student
region consistency, and the kernel two-sample (MMD) domain losses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .detector import AOPE_VALID, Mode, RegionProposal, invalid_class
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
    proposals are INVALID.  Gold rectangles the pruner missed reach the
    proposals through ``model.forward(extra_rects=)``, not here."""
    gold_by_rect: dict[tuple[int, int, int, int], int] = {}
    for g in gold_regions:
        gold_by_rect.setdefault(g.rect(), int(g.cls) if mode == Mode.ASTE else AOPE_VALID)
    targets = [gold_by_rect.get(p, invalid_class(mode)) for p in proposals]
    return np.array(targets, dtype=np.int64)


def loss_uns(student_probs: Tensor | None, teacher_probs: np.ndarray) -> Tensor:
    """Mean squared L2 distance between student and teacher class
    probabilities over the retained pseudo-labeled regions."""
    if student_probs is None or teacher_probs.shape[0] == 0:
        return Tensor(0.0)
    diff = student_probs - Tensor(teacher_probs)
    return (diff * diff).sum(axis=1).mean()


def _median_bandwidth(d2: Tensor) -> Tensor:
    """Median distance over the pairs i < j of a (p, p) squared-distance
    matrix, p >= 2: the mean of the two middle ones for an even count."""
    dists = d2[np.triu_indices(d2.shape[0], k=1)].sqrt()
    q = dists.shape[0]
    order = np.argsort(dists.data, kind="stable")
    med = dists[order[(q - 1) // 2 : q // 2 + 1]].mean()
    if float(med.data) <= 0.0:
        return Tensor(_FALLBACK_BANDWIDTH)
    return med


def mmd(x, y) -> Tensor:
    """Biased-estimator (V-statistic) squared MMD with a Gaussian kernel
    between the rows of two (m, k) Tensors or arrays:
    mean k(x,x') + mean k(y,y') - 2 mean k(x,y), clamped at zero.  The
    bandwidth is the median pairwise distance over the pooled samples; it
    and the kernel read one pooled squared-distance matrix."""
    xm, ym = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, y))
    m, k = xm.shape[0], ym.shape[0]
    if m == 0 or k == 0:
        return Tensor(0.0)
    z = ag.concat([xm, ym], axis=0)
    p, dim = z.shape
    diff = z.reshape(p, 1, dim) - z.reshape(1, p, dim)
    d2 = (diff * diff).sum(axis=2)
    inv_two_sigma_sq = (_median_bandwidth(d2) ** -2.0) * 0.5
    kern = (d2 * -1.0 * inv_two_sigma_sq).exp()
    raw = kern[:m, :m].mean() + kern[m:, m:].mean() - 2.0 * kern[:m, m:].mean()
    return raw.clamp_min(0.0)


def loss_mmd(src_groups: dict, tgt_groups: dict) -> Tensor:
    """Sum of ``mmd`` over the feature groups present on both sides, in
    sorted key order.  Each group maps a key to its (m, k) feature rows."""
    keys = sorted(src_groups.keys() & tgt_groups.keys())
    terms = [mmd(src_groups[k], tgt_groups[k]) for k in keys]
    return sum(terms[1:], terms[0]) if terms else Tensor(0.0)


def total_loss(l_sup: Tensor, l_uns_t: Tensor, l_mmd_t: Tensor, alpha: float, beta: float) -> Tensor:
    return l_sup + alpha * l_uns_t + beta * l_mmd_t
