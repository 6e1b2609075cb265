"""Sentence/triplet metrics and the pseudo-label error taxonomy."""

import numpy as np
import pytest

from tablemt.corpus import LabeledSentence, Polarity, Sentence, Span, Triplet
from tablemt.detector import Mode
from tablemt.evaluate import (
    ErrorCategory,
    audit_pseudo_labels,
    build_report,
    gold_items,
    sentence_prf,
    triplet_prf,
)


def t(a0, a1, o0, o1, pol=Polarity.POS):
    return Triplet(Span(a0, a1), Span(o0, o1), pol)


def test_sentence_f1_perfect():
    golds = [[t(0, 0, 1, 1)], [t(1, 2, 3, 3)], [t(0, 1, 2, 2, Polarity.NEG)]]
    assert sentence_prf(golds, golds)[2] == 1.0


def test_sentence_f1_half():
    golds = [[t(0, 0, 1, 1)], [t(1, 1, 2, 2)]]
    preds = [[t(0, 0, 1, 1)], [t(1, 1, 3, 3)]]
    p, r, f1 = sentence_prf(preds, golds)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_sentence_f1_subset_prediction_not_tp():
    golds = [[t(0, 0, 1, 1), t(2, 2, 3, 3)]]
    preds = [[t(0, 0, 1, 1)]]
    assert sentence_prf(preds, golds)[2] == 0.0


def test_sentence_denominator_conventions():
    # sentence 1: empty pred, gold present -> recall denominator only
    # sentence 2: pred present, empty gold -> precision denominator only
    # sentence 3: both empty -> counted nowhere
    golds = [[t(0, 0, 1, 1)], [], []]
    preds = [[], [t(0, 0, 1, 1)], []]
    p, r, f1 = sentence_prf(preds, golds)
    assert p == 0.0 and r == 0.0 and f1 == 0.0
    golds = [[t(0, 0, 1, 1)], [], [t(1, 1, 2, 2)]]
    preds = [[t(0, 0, 1, 1)], [], [t(1, 1, 2, 2)]]
    assert sentence_prf(preds, golds) == (1.0, 1.0, 1.0)


def test_sentence_f1_bounds_random():
    rng = np.random.default_rng(0)
    pool = [t(0, 0, 1, 1), t(1, 1, 2, 2), t(0, 1, 2, 2, Polarity.NEG)]
    for _ in range(200):
        golds = [[x for x in pool if rng.random() < 0.5] for _ in range(5)]
        preds = [[x for x in pool if rng.random() < 0.5] for _ in range(5)]
        f1 = sentence_prf(preds, golds)[2]
        assert 0.0 <= f1 <= 1.0
        assert (f1 == 1.0) == all(
            set(p) == set(g) for p, g in zip(preds, golds) if p or g
        )


def test_sentence_f1_length_mismatch():
    with pytest.raises(ValueError):
        sentence_prf([[]], [[], []])


def test_triplet_prf_all_correct_and_empty():
    golds = [[t(0, 0, 1, 1), t(2, 2, 3, 3)]]
    assert triplet_prf(golds, golds) == (1.0, 1.0, 1.0)
    assert triplet_prf([[]], golds) == (0.0, 0.0, 0.0)


def test_triplet_prf_matches_hand_count():
    golds = [[t(0, 0, 1, 1), t(2, 2, 3, 3)], [t(4, 4, 5, 5), t(6, 6, 7, 7), t(0, 1, 3, 3)]]
    preds = [[t(0, 0, 1, 1), t(9, 9, 9, 9)], [t(4, 4, 5, 5), t(6, 6, 7, 7)]]
    p, r, f1 = triplet_prf(preds, golds)
    assert p == pytest.approx(3 / 4)
    assert r == pytest.approx(3 / 5)
    assert f1 == pytest.approx(2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5))


GOLD = [t(1, 2, 4, 4, Polarity.POS), t(6, 6, 8, 8, Polarity.NEG)]

AUDIT_CASES = [
    # exact match
    (t(1, 2, 4, 4, Polarity.POS), ErrorCategory.CORRECT),
    (t(6, 6, 8, 8, Polarity.NEG), ErrorCategory.CORRECT),
    # spans right, polarity wrong
    (t(1, 2, 4, 4, Polarity.NEG), ErrorCategory.SENTIMENT_ERROR),
    (t(1, 2, 4, 4, Polarity.NEU), ErrorCategory.SENTIMENT_ERROR),
    (t(6, 6, 8, 8, Polarity.POS), ErrorCategory.SENTIMENT_ERROR),
    # polarity right, spans overlap but differ
    (t(1, 1, 4, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
    (t(2, 3, 4, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
    (t(1, 2, 3, 4, Polarity.POS), ErrorCategory.WORDS_MIS_LOCALIZED),
    (t(5, 6, 7, 8, Polarity.NEG), ErrorCategory.WORDS_MIS_LOCALIZED),
    # anything else
    (t(0, 0, 9, 9, Polarity.POS), ErrorCategory.ERROR),  # no overlap at all
    (t(1, 2, 4, 4 + 5, Polarity.NEU), ErrorCategory.ERROR),  # wrong pol, wrong span
    (t(1, 1, 4, 4, Polarity.NEG), ErrorCategory.ERROR),  # overlaps POS gold, NEG pol
]


@pytest.mark.parametrize("pseudo,expected", AUDIT_CASES)
def test_audit_twelve_forced_cases(pseudo, expected):
    counts = audit_pseudo_labels([pseudo], GOLD)
    assert counts[expected] == 1
    assert sum(counts.values()) == 1


def test_audit_counts_sum_to_retained():
    rng = np.random.default_rng(1)
    pool = [c[0] for c in AUDIT_CASES]
    for _ in range(50):
        pseudo = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 8))]
        counts = audit_pseudo_labels(pseudo, GOLD)
        assert sum(counts.values()) == len(pseudo)


def test_audit_permutation_invariant():
    pseudo = [c[0] for c in AUDIT_CASES]
    a = audit_pseudo_labels(pseudo, GOLD)
    b = audit_pseudo_labels(pseudo[::-1], GOLD[::-1])
    assert a == b


def test_audit_all_correct_when_equal():
    counts = audit_pseudo_labels(GOLD, GOLD)
    assert counts[ErrorCategory.CORRECT] == 2
    assert sum(counts.values()) == 2


def test_gold_items_modes():
    ls = LabeledSentence(
        Sentence(tuple(f"w{i}" for i in range(6))),
        (t(0, 0, 2, 2, Polarity.POS), t(0, 0, 2, 2, Polarity.NEG), t(3, 3, 5, 5)),
    )
    assert gold_items(ls, Mode.ASTE) == list(ls.triplets)
    pairs = gold_items(ls, Mode.AOPE)
    assert len(pairs) == 2  # same-span pair deduplicated
    assert (Span(0, 0), Span(2, 2)) in pairs


def test_build_report_fields():
    golds = [[t(0, 0, 1, 1)], [t(1, 1, 2, 2)]]
    preds = [[t(0, 0, 1, 1)], []]
    report = build_report(preds, golds)
    assert report.sentence_f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)
    assert report.n_sentences == 2
    assert dict(report.rows())["triplet_recall"] == pytest.approx(0.5)
