"""Full model assembly: encoder + detector parameters, the detector's forward
pass over one sentence's encoded table, and decoding predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import Sentence, Span, Triplet
from .detector import (
    Mode,
    RegionProposal,
    classify_regions,
    decode_triplets,
    init_detector_params,
    propose_regions,
    roi_represent,
    rpn_scores,
    topk_prune,
)
from .encoder import EncoderConfig, encode, init_encoder_params


def init_params(cfg: EncoderConfig, mode: Mode, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params = init_encoder_params(cfg, rng)
    params.update(init_detector_params(cfg.d, mode, rng))
    return params


def as_tensors(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.items()}


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


class NonFiniteScoreError(ValueError):
    """Scores that hold a NaN or an infinity, as non-finite parameters give."""


def check_finite_scores(*scores: np.ndarray) -> None:
    """Raise ``NonFiniteScoreError`` unless every score is finite."""
    if not all(np.isfinite(s).all() for s in scores):
        raise NonFiniteScoreError("non-finite scores: the parameters hold a NaN or an infinity")


@dataclass
class SentenceForward:
    tl: Tensor  # (n, n, d) final feature map
    pb: Tensor  # (n, n)
    pe: Tensor
    proposals: list[RegionProposal]
    n_predicted: int  # proposals[:n_predicted] came from the pruner, the rest were injected
    extra_rows: list[int]  # the proposal row of each of ``extra_rects``, in the order given
    rois: Tensor | None  # (m, 3d)
    probs: Tensor | None  # (m, C)
    logp: Tensor | None


def forward(
    tl: Tensor,
    params: dict[str, Tensor],
    mode: Mode,
    kappa: float,
    extra_rects: list[tuple[int, int, int, int]] | None = None,
) -> SentenceForward:
    """Run the detector on one sentence's (n, n, d) table from ``encode``;
    ``extra_rects`` adds rectangles (deduplicated against the proposals) so
    losses can score regions the pruner missed."""
    scores = rpn_scores(tl, params)
    proposals = propose_regions(topk_prune(scores.pb.data, kappa), topk_prune(scores.pe.data, kappa))
    n_predicted = len(proposals)
    extra_rows = []
    if extra_rects:
        row_of = {p.rect(): i for i, p in enumerate(proposals)}
        for rect in extra_rects:
            if rect not in row_of:
                row_of[rect] = len(proposals)
                proposals.append(RegionProposal(*rect))
            extra_rows.append(row_of[rect])
    if proposals:
        rois = roi_represent(tl, [p.rect() for p in proposals])
        probs, logp = classify_regions(rois, params, mode)
    else:
        rois = probs = logp = None
    return SentenceForward(tl, scores.pb, scores.pe, proposals, n_predicted, extra_rows, rois,
                           probs, logp)


def predict(
    sentence: Sentence,
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    mode: Mode,
    kappa: float,
) -> list[Triplet] | list[tuple[Span, Span]]:
    """Decode the model's triplets (ASTE) or aspect-opinion pairs (AOPE);
    non-finite corner or class scores raise ``NonFiniteScoreError``."""
    with ag.no_grad():
        params_t = as_tensors(params)
        (tl,) = encode([sentence], params_t, cfg)
        fwd = forward(tl, params_t, mode, kappa)
    check_finite_scores(fwd.pb.data, fwd.pe.data)
    if not fwd.proposals:
        return []
    check_finite_scores(fwd.probs.data)
    return decode_triplets(fwd.proposals, fwd.probs.data, mode)

