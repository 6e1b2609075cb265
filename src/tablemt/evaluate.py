"""Sentence-level exact-set F1, micro triplet P/R/F1, and the pseudo-label
error taxonomy."""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Sequence

from .corpus import LabeledSentence, Triplet
from .detector import Mode


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def sentence_prf(preds: Sequence, golds: Sequence) -> tuple[float, float, float]:
    """A sentence is a true positive iff its predicted item set equals its
    gold set exactly.  Precision counts over sentences with any prediction,
    recall over sentences with any gold; sentences empty on both sides are
    counted nowhere."""
    if len(preds) != len(golds):
        raise ValueError("prediction/gold list length mismatch")
    tp = n_pred = n_gold = 0
    for p, g in zip(preds, golds):
        ps, gs = set(p), set(g)
        if ps:
            n_pred += 1
        if gs:
            n_gold += 1
        if gs and ps == gs:
            tp += 1
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return precision, recall, _f1(precision, recall)


def triplet_prf(preds: Sequence, golds: Sequence) -> tuple[float, float, float]:
    """Micro-averaged exact match over items pooled across sentences."""
    if len(preds) != len(golds):
        raise ValueError("prediction/gold list length mismatch")
    tp = total_pred = total_gold = 0
    for p, g in zip(preds, golds):
        ps, gs = set(p), set(g)
        tp += len(ps & gs)
        total_pred += len(ps)
        total_gold += len(gs)
    precision = tp / total_pred if total_pred else 0.0
    recall = tp / total_gold if total_gold else 0.0
    return precision, recall, _f1(precision, recall)


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
    """Comparable gold item set: triplets for ASTE, deduplicated
    (aspect, opinion) pairs for AOPE."""
    if mode == Mode.ASTE:
        return list(ls.triplets)
    seen = {}
    for t in ls.triplets:
        seen.setdefault((t.aspect, t.opinion), (t.aspect, t.opinion))
    return list(seen.values())


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
