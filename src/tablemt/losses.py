"""Training objectives: supervised corner/region losses, teacher-student
region consistency, and the kernel two-sample (MMD) domain losses."""

from __future__ import annotations

import functools
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


# The pairs i < j of p rows, as read-only (2, p(p - 1) / 2) indices.
@functools.lru_cache(maxsize=64)
def _upper_pairs(p: int) -> np.ndarray:
    pairs = np.array(np.triu_indices(p, k=1))
    pairs.flags.writeable = False
    return pairs


def mmd(x, y) -> Tensor:
    """Biased-estimator (V-statistic) squared MMD with a Gaussian kernel
    between the rows of two (m, k) Tensors or arrays:
    mean k(x,x') + mean k(y,y') - 2 mean k(x,y), clamped at zero, with the
    median pooled pairwise distance as bandwidth (the mean of the two middle
    ones for an even count, 1.0 when that is zero).  Distances come in Gram
    form over the distinct rows, so rows equal but for a zero's sign are 0
    apart; the kernel means weigh those rows by their counts, so two sides of
    the same rows give exactly 0.  One tape node with parents ``(x, y)``,
    within 1e-12 relative, 1e-15 absolute of the composed tape-op formula."""
    xm, ym = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, y))
    m, k = xm.shape[0], ym.shape[0]
    if m == 0 or k == 0:
        return Tensor(0.0)
    z = np.concatenate([xm.data, ym.data], axis=0)
    rows = (z + 0.0).view(np.dtype((np.void, z.itemsize * z.shape[1]))).ravel()  # -0.0 -> 0.0
    _, first, inv = np.unique(rows, return_index=True, return_inverse=True)
    u = z[first]
    gram = u @ u.T  # |a|² from its diagonal, so a row is exactly 0 from itself
    du = np.maximum(gram.diagonal()[:, None] + gram.diagonal() - 2.0 * gram, 0.0)
    iu, ju = _upper_pairs(len(z))
    dists = np.sqrt(du[inv[iu], inv[ju]])
    q = len(dists)
    mid = np.argsort(dists, kind="stable")[(q - 1) // 2 : q // 2 + 1]
    med = np.asarray(dists[mid].mean())  # 0-d: a numpy scalar's ** rounds differently
    fallback = float(med) <= 0.0
    if fallback:
        med = np.asarray(_FALLBACK_BANDWIDTH)
    inv_two_sigma_sq = med**-2.0 * 0.5
    ku = np.exp(-du * inv_two_sigma_sq)
    cx, cy = (np.bincount(idx, minlength=len(u)) * 1.0 for idx in (inv[:m], inv[m:]))
    mxx, myy, mxy = (ku @ b @ a / (a.sum() * b.sum()) for a, b in ((cx, cx), (cy, cy), (cx, cy)))
    raw = mxx + myy - mxy * 2.0

    def backward(g):
        side = np.repeat([0, 1], (m, k))
        # d mean / d kernel entry on the xx, xy (upper right) and yy blocks
        g_block = np.array([[1.0 / (m * m), -2.0 / (m * k)], [0.0, 1.0 / (k * k)]]) * g
        g_block *= raw > 0.0
        kern, d2 = ku[inv[:, None], inv], du[inv[:, None], inv]
        g_exp = g_block[side[:, None], side] * kern
        g_d2 = -g_exp * inv_two_sigma_sq
        if not fallback:
            g_mid = (g_exp * d2).sum() * med**-3.0 * (0.5 / mid.size)
            g_d2[iu[mid], ju[mid]] += g_mid / np.where(dists[mid] > 0.0, dists[mid], 1.0)
        s = g_d2 + g_d2.T  # d2[i, j] = |z_i - z_j|², so row i moves by 2 sum_j s_ij (z_i - z_j)
        g_z = 2.0 * (s.sum(axis=1)[:, None] * z - s @ z)
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
