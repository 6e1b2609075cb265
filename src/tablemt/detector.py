"""Corner scoring, top-k pruning, corner pairing, RoI pooling, and region
classification over the encoded word-pair table.

Scoring, pooling and classification run on the packed (Σn², d) map that
``encoder.encode`` makes of a batch of sentences, once per batch; top-k
pruning and pairing run on one sentence's (n, n) corner maps, in numpy."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import Span, Triplet
from .tagging import RegionClass, decode_regions


class Mode(enum.Enum):
    ASTE = "aste"  # 4-way region classes {POS, NEU, NEG, INVALID}
    AOPE = "aope"  # binary region classes {VALID, INVALID}


@functools.cache
def foreground_classes(mode: Mode) -> tuple[int, ...]:
    """The region classes of ``mode`` other than INVALID, the one table of
    them: each is numbered as the ``RegionClass`` of the polarity it decodes
    to, so AOPE's VALID, which decodes as a placeholder POS, is 0.  INVALID
    is the class right after them."""
    if mode == Mode.ASTE:
        return (int(RegionClass.POS), int(RegionClass.NEU), int(RegionClass.NEG))
    return (int(RegionClass.POS),)


def num_classes(mode: Mode) -> int:
    return len(foreground_classes(mode)) + 1


def invalid_class(mode: Mode) -> int:
    return len(foreground_classes(mode))


def init_detector_params(d: int, mode: Mode, rng: np.random.Generator) -> dict[str, np.ndarray]:
    c = num_classes(mode)
    return {
        "rpn_b_w": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, 1)),
        "rpn_b_b": np.zeros(1),
        "rpn_e_w": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, 1)),
        "rpn_e_b": np.zeros(1),
        "cls_w": rng.normal(0.0, 1.0 / np.sqrt(3 * d), size=(3 * d, c)),
        "cls_b": np.zeros(c),
    }


@dataclass(frozen=True)
class RpnScores:
    pb: Tensor  # (Σn²,) top-left corner probabilities of every packed cell
    pe: Tensor  # (Σn²,) bottom-right corner probabilities

    def maps(self, sizes: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each sentence's (n, n) B and E maps, as views of the packed data."""
        cell0 = ag.packing(tuple(sizes)).cell0.tolist()
        return [(self.pb.data[c : c + n * n].reshape(n, n),
                 self.pe.data[c : c + n * n].reshape(n, n)) for c, n in zip(cell0, sizes)]


class RegionProposal(NamedTuple):
    """A proposed (a, b, c, d) rectangle; equal to, and hashed as, its tuple."""

    a: int
    b: int
    c: int
    d: int

    def rect(self) -> tuple[int, int, int, int]:
        return tuple(self)


def rpn_scores(tl: Tensor, params: dict[str, Tensor]) -> RpnScores:
    """Corner probabilities of every cell of a packed (Σn², d) map."""
    pb = (tl @ params["rpn_b_w"] + params["rpn_b_b"]).sigmoid().reshape(-1)
    pe = (tl @ params["rpn_e_w"] + params["rpn_e_b"]).sigmoid().reshape(-1)
    return RpnScores(pb, pe)


def topk_prune(scores: np.ndarray, kappa: float) -> list[tuple[int, int, float]]:
    """Keep the k = max(1, ceil(kappa * n)) best cells of an (n, n) map; ties
    resolve in row-major cell order and NaN cells rank after every finite one."""
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must be in (0, 1]")
    k = max(1, math.ceil(kappa * scores.shape[0]))
    flat = scores.ravel()
    order = np.argsort(-flat, kind="stable")[:k]
    rows, cols = np.divmod(order, scores.shape[1])
    return list(zip(rows.tolist(), cols.tolist(), flat[order].tolist()))


def propose_regions(
    b_top: list[tuple[int, int, float]], e_top: list[tuple[int, int, float]]
) -> list[RegionProposal]:
    """Pair every B candidate with every E candidate it can enclose with
    (a <= c and b <= d); deduplicated per rectangle, sorted by (a, b, c, d)."""
    rects = {(a, b, c, d) for a, b, _ in b_top for c, d, _ in e_top if a <= c and b <= d}
    return list(map(RegionProposal._make, sorted(rects)))


def roi_represent(tl: Tensor, sizes: Sequence[int],
                  rects: Sequence[Sequence[tuple[int, int, int, int]]]) -> Tensor:
    """Fixed-length region vectors over a packed (Σn², d) map of sentences
    of ``sizes``: one (3d,) row per (a, b, c, d) rectangle of ``rects[s]`` on
    sentence s, sentences in order, each the B-corner cell + E-corner cell +
    elementwise max over every cell inside."""
    p = ag.packing(tuple(sizes))
    local = np.fromiter(chain.from_iterable(chain.from_iterable(rects)), np.int64).reshape(-1, 4)
    a, b, c, d = local.T
    n, cell0, row0 = (np.repeat(v, [len(r) for r in rects]) for v in (sizes, p.cell0, p.row0))
    windows = np.stack([a + row0, b, c + row0, d], axis=1)
    return ag.concat([tl[cell0 + a * n + b], tl[cell0 + c * n + d],
                      ag.rect_max(tl, windows, sizes)], axis=1)


def classify_regions(rois: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Softmax class probabilities and log-probabilities for (m, 3d) RoIs."""
    logits = rois @ params["cls_w"] + params["cls_b"]
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = logits - shift
    lse = z.exp().sum(axis=1, keepdims=True).log()
    logp = z - lse
    return logp.exp(), logp


def decode_triplets(
    proposals: list[RegionProposal], probs: np.ndarray, mode: Mode
) -> list[Triplet] | list[tuple[Span, Span]]:
    """Argmax class per proposal; rectangles classified INVALID are dropped
    on the argmax array, before any tuple is built.  Returns the
    ``mode_items`` of the decoded triplets."""
    assert len(proposals) == probs.shape[0]
    picks = probs.argmax(axis=1)
    kept = np.flatnonzero(picks != invalid_class(mode))
    triplets = decode_regions([proposals[i] + (k,)
                               for i, k in zip(kept.tolist(), picks[kept].tolist())])
    return mode_items(triplets, mode)


def mode_items(triplets: Sequence[Triplet], mode: Mode) -> list[Triplet] | list[tuple[Span, Span]]:
    """The items ``mode`` predicts and scores: the triplets for ASTE, their
    (aspect, opinion) pairs, deduplicated in order, for AOPE."""
    if mode == Mode.ASTE:
        return list(triplets)
    return list(dict.fromkeys((t.aspect, t.opinion) for t in triplets))
