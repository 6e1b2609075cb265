"""Full model assembly: encoder + detector parameters, the detector's
proposal stage over one sentence's corner maps, the batched region head,
and decoding predictions.

A batch runs in three stages: ``rpn_scores`` over the packed map of every
sentence, ``forward`` per sentence on its slice of the corner maps (numpy
only, no tape), then ``classify`` once over every sentence's proposals.
``predict`` and the teacher's pseudo labelling run the same stages on a
batch of one sentence."""

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
    proposals: list[RegionProposal]
    n_predicted: int  # proposals[:n_predicted] came from the pruner, the rest were injected
    extra_rows: list[int]  # the proposal row of each of ``extra_rects``, in the order given


def forward(
    pb: np.ndarray,
    pe: np.ndarray,
    kappa: float,
    extra_rects: list[tuple[int, int, int, int]] | None = None,
) -> SentenceForward:
    """The proposal stage of one sentence: top-k pruning of its (n, n) corner
    probabilities ``pb`` and ``pe`` and corner pairing; ``extra_rects`` adds
    rectangles (deduplicated against the proposals) so losses can score
    regions the pruner missed.  Records nothing on the tape."""
    proposals = propose_regions(topk_prune(pb, kappa), topk_prune(pe, kappa))
    n_predicted = len(proposals)
    extra_rows = []
    if extra_rects:
        row_of = {p.rect(): i for i, p in enumerate(proposals)}
        for rect in extra_rects:
            if rect not in row_of:
                row_of[rect] = len(proposals)
                proposals.append(RegionProposal(*rect))
            extra_rows.append(row_of[rect])
    return SentenceForward(proposals, n_predicted, extra_rows)


def classify(tl: Tensor, sizes: list[int], fwds: list[SentenceForward],
             params: dict[str, Tensor], mode: Mode) -> tuple[Tensor, Tensor, Tensor]:
    """The region head over a packed map: the (M, 3d) RoI rows of every
    sentence's proposals, sentences in order, and their class probabilities
    and log-probabilities.  Needs at least one proposal."""
    rois = roi_represent(tl, sizes, [[p.rect() for p in f.proposals] for f in fwds])
    probs, logp = classify_regions(rois, params, mode)
    return rois, probs, logp


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
        tl = encode([sentence], params_t, cfg)
        scores = rpn_scores(tl, params_t)
        check_finite_scores(scores.pb.data, scores.pe.data)
        fwd = forward(*scores.maps([sentence.n])[0], kappa)
        if not fwd.proposals:
            return []
        _, probs, _ = classify(tl, [sentence.n], [fwd], params_t, mode)
    check_finite_scores(probs.data)
    return decode_triplets(fwd.proposals, probs.data, mode)
