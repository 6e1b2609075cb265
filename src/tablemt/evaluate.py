"""Sentence-level exact-set F1, micro triplet P/R/F1, and the pseudo-label
error taxonomy."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Sequence

from .corpus import LabeledSentence, Triplet
from .detector import Mode, mode_items


def _set_pairs(preds: Sequence, golds: Sequence) -> list[tuple[set, set]]:
    if len(preds) != len(golds):
        raise ValueError("prediction/gold list length mismatch")
    return [(set(p), set(g)) for p, g in zip(preds, golds)]


def _prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def sentence_prf(preds: Sequence, golds: Sequence) -> tuple[float, float, float]:
    """A sentence is a true positive iff its predicted item set equals its
    gold set exactly.  Precision counts over sentences with any prediction,
    recall over sentences with any gold; sentences empty on both sides are
    counted nowhere."""
    pairs = _set_pairs(preds, golds)
    return _prf(sum(bool(gs) and ps == gs for ps, gs in pairs),
                sum(bool(ps) for ps, _ in pairs), sum(bool(gs) for _, gs in pairs))


def triplet_prf(preds: Sequence, golds: Sequence) -> tuple[float, float, float]:
    """Micro-averaged exact match over items pooled across sentences."""
    pairs = _set_pairs(preds, golds)
    return _prf(sum(len(ps & gs) for ps, gs in pairs),
                sum(len(ps) for ps, _ in pairs), sum(len(gs) for _, gs in pairs))


class ErrorCategory(enum.Enum):
    CORRECT = "correct"
    SENTIMENT_ERROR = "sentiment_error"
    WORDS_MIS_LOCALIZED = "words_mis_localized"
    ERROR = "error"


def audit_pseudo_labels(
    pseudo: Sequence[Triplet], gold: Sequence[Triplet]
) -> dict[ErrorCategory, int]:
    """Classify each pseudo triplet: exact match; correct spans with wrong
    polarity; correct polarity with overlapping-but-different spans; or
    plain error.  The categories cascade, so they are mutually exclusive."""
    counts = {cat: 0 for cat in ErrorCategory}
    gold = list(gold)
    gold_set = set(gold)
    for t in pseudo:
        if t in gold_set:
            counts[ErrorCategory.CORRECT] += 1
        elif any(g.aspect == t.aspect and g.opinion == t.opinion for g in gold):
            counts[ErrorCategory.SENTIMENT_ERROR] += 1
        elif any(
            g.polarity == t.polarity
            and g.aspect.overlaps(t.aspect)
            and g.opinion.overlaps(t.opinion)
            for g in gold
        ):
            counts[ErrorCategory.WORDS_MIS_LOCALIZED] += 1
        else:
            counts[ErrorCategory.ERROR] += 1
    return counts


def gold_items(ls: LabeledSentence, mode: Mode):
    """The gold items of ``ls`` that predictions of ``mode`` compare to."""
    return mode_items(ls.triplets, mode)


@dataclass
class EvalReport:
    sentence_precision: float
    sentence_recall: float
    sentence_f1: float
    triplet_precision: float
    triplet_recall: float
    triplet_f1: float
    n_sentences: int

    def rows(self) -> list[tuple[str, float]]:
        """(field name, value as float) in field order."""
        return [(f.name, float(getattr(self, f.name))) for f in fields(self)]


def build_report(preds: Sequence, golds: Sequence) -> EvalReport:
    sp, sr, sf = sentence_prf(preds, golds)
    tp, tr, tf = triplet_prf(preds, golds)
    return EvalReport(sp, sr, sf, tp, tr, tf, len(golds))
