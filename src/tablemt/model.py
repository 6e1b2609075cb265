"""Full model assembly: encoder + detector parameters, the detector's
proposal stage over one sentence's corner maps, the no-grad detector
pass, and decoding predictions.

A batch runs in three stages: ``rpn_scores`` over the packed map of every
sentence, ``forward`` per sentence on its slice of the corner maps (numpy
only, no tape), then the region head, ``roi_represent`` and
``classify_regions``, once over every sentence's proposals.
``detect`` is that sequence with its scores checked, and the one no-grad
detector: ``predict_batch`` decodes it on each packed chunk of
``encoder.chunks``, ``predict`` is ``predict_batch`` of one sentence, and
the teacher's ``trainer.teacher_pseudo_label`` keeps its confident rows."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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
    num_classes,
    propose_regions,
    roi_represent,
    rpn_scores,
    topk_prune,
)
from .encoder import EncoderConfig, chunks, encode, init_encoder_params


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
        row_of = {p: i for i, p in enumerate(proposals)}
        for rect in extra_rects:
            if rect not in row_of:
                row_of[rect] = len(proposals)
                proposals.append(RegionProposal(*rect))
            extra_rows.append(row_of[rect])
    return SentenceForward(proposals, n_predicted, extra_rows)


def detect(tl: Tensor, sizes: list[int], params_t: dict[str, Tensor], mode: Mode,
           kappa: float) -> list[tuple[list[RegionProposal], np.ndarray]]:
    """The detector's pass over a packed map of sentences of ``sizes``, for
    callers under ``no_grad``: each sentence's proposals and their (m, C)
    class probabilities, sentences in order.  Non-finite corner or class
    scores raise ``NonFiniteScoreError``; the region head is skipped when no
    sentence has a proposal."""
    scores = rpn_scores(tl, params_t)
    check_finite_scores(scores.pb.data, scores.pe.data)
    fwds = [forward(pb, pe, kappa) for pb, pe in scores.maps(sizes)]
    counts = [len(f.proposals) for f in fwds]
    probs = np.empty((0, num_classes(mode)))
    if any(counts):
        rois = roi_represent(tl, sizes, [f.proposals for f in fwds])
        probs = classify_regions(rois, params_t)[0].data
        check_finite_scores(probs)
    ends = accumulate(counts)
    return [(f.proposals, probs[end - m : end]) for f, m, end in zip(fwds, counts, ends)]


Prediction = list[Triplet] | list[tuple[Span, Span]]


def predict(
    sentence: Sentence,
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    mode: Mode,
    kappa: float,
) -> Prediction:
    """Decode the model's triplets (ASTE) or aspect-opinion pairs (AOPE);
    non-finite corner or class scores raise ``NonFiniteScoreError``."""
    return predict_batch([sentence], params, cfg, mode, kappa)[0]


def predict_batch(
    sentences: list[Sentence],
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
    mode: Mode,
    kappa: float,
) -> list[Prediction]:
    """``predict`` of each sentence, in order: each packed chunk of
    ``encoder.chunks`` is encoded and goes through ``detect`` once, and only
    decoding runs per sentence.  An over-length sentence anywhere raises
    ``ValueError`` before any encode; non-finite corner or class scores in a
    chunk raise ``NonFiniteScoreError``."""
    with ag.no_grad():
        params_t = as_tensors(params)
        return [decode_triplets(proposals, probs, mode) if proposals else []
                for part in chunks(sentences, cfg)
                for proposals, probs in detect(encode(part, params_t, cfg), [s.n for s in part],
                                               params_t, mode, kappa)]
