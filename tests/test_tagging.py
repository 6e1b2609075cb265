"""Region-scheme and cell-scheme codecs, including the exhaustive
small-table round-trip oracle."""

import itertools

import numpy as np
import pytest

from tablemt.corpus import LabeledSentence, Polarity, Sentence, Span, Triplet
from tablemt.tagging import (
    CELL_A,
    CELL_NEG,
    CELL_NONE,
    CELL_O,
    CELL_POS,
    CellConflictError,
    GoldRegion,
    RegionClass,
    _span,
    cells_by_type,
    decode_cell_table,
    decode_regions,
    encode_cell_labels,
    encode_region_labels,
)

PAPER_LINE = LabeledSentence(
    Sentence(("The", "fried", "rice", "is", "amazing", "here", ".")),
    (Triplet(Span(1, 2), Span(4, 4), Polarity.POS),),
)


def test_region_encode_paper_example():
    boundaries, regions = encode_region_labels(PAPER_LINE)
    assert boundaries.b[1, 4] == 1 and boundaries.b.sum() == 1
    assert boundaries.e[2, 4] == 1 and boundaries.e.sum() == 1
    assert regions == [GoldRegion(1, 4, 2, 4, RegionClass.POS)]


def test_region_encode_empty():
    ls = LabeledSentence(Sentence(("a", "b")), ())
    boundaries, regions = encode_region_labels(ls)
    assert boundaries.b.sum() == 0 and boundaries.e.sum() == 0 and regions == []


def test_region_encode_degenerate_single_cell():
    ls = LabeledSentence(
        Sentence(("a", "b", "c")), (Triplet(Span(1, 1), Span(2, 2), Polarity.NEU),)
    )
    boundaries, regions = encode_region_labels(ls)
    assert boundaries.b[1, 2] == 1 and boundaries.e[1, 2] == 1
    assert regions[0].rect() == (1, 2, 1, 2)


def test_decode_regions_drops_invalid_and_dedups():
    out = decode_regions([(0, 1, 0, 1, RegionClass.INVALID)])
    assert out == []
    twice = decode_regions(
        [(1, 4, 2, 4, RegionClass.POS), (1, 4, 2, 4, RegionClass.POS)]
    )
    assert twice == [Triplet(Span(1, 2), Span(4, 4), Polarity.POS)]


def test_decode_regions_sorted():
    out = decode_regions(
        [(2, 2, 2, 2, RegionClass.NEG), (0, 1, 0, 1, RegionClass.POS)]
    )
    assert [t.aspect.start for t in out] == [0, 2]


def test_decode_regions_shares_spans_across_calls():
    first = decode_regions([(1, 4, 2, 4, RegionClass.POS), (1, 2, 2, 4, RegionClass.NEG)])
    second = decode_regions([(0, 4, 0, 4, RegionClass.NEU), (1, 4, 2, 4, RegionClass.NEG)])
    assert first[0].aspect is first[1].aspect  # (1, 2) within one call
    assert second[1].aspect is first[0].aspect  # (1, 2) across calls
    assert second[0].opinion is second[1].opinion is first[1].opinion  # (4, 4)
    assert second[0].opinion is not first[0].opinion  # (2, 4)


def test_decode_regions_spans_hold_python_ints_for_numpy_bounds():
    _span.cache_clear()  # so the numpy bounds below build their spans
    rects = [(9, 11, 10, 12, RegionClass.POS), (13, 14, 15, 16, RegionClass.NEG)]
    for dtype in (np.int64, np.int32, np.intp):
        out = decode_regions([tuple(np.array(r[:4], dtype=dtype)) + (np.int64(r[4]),)
                              for r in rects])
        assert out == decode_regions(rects)
        for t in out:
            for bound in (t.aspect.start, t.aspect.end, t.opinion.start, t.opinion.end):
                assert type(bound) is int
    # spans first built from numpy bounds hold Python ints for later callers too
    out = decode_regions([(np.int64(17), np.int64(18), np.int64(19), np.int64(20), 0)])
    again = decode_regions([(17, 18, 19, 20, 0)])
    assert again[0].aspect is out[0].aspect and type(again[0].aspect.start) is int


ALL_POLARITIES = (Polarity.POS, Polarity.NEU, Polarity.NEG)


def _all_triplets(n):
    for a0, a1 in itertools.combinations_with_replacement(range(n), 2):
        for o0, o1 in itertools.combinations_with_replacement(range(n), 2):
            for pol in ALL_POLARITIES:
                yield Triplet(Span(a0, a1), Span(o0, o1), pol)


def test_region_roundtrip_exhaustive_small():
    """All triplet sets of size <= 2 over n <= 5, corner-distinct."""
    checked = 0
    for n in range(1, 6):
        singles = list(_all_triplets(n))
        sets = [(t,) for t in singles]
        pair_pols = [Polarity.POS, Polarity.NEG]
        corners = {}
        for t in singles:
            if t.polarity not in pair_pols:
                continue
            key = (t.aspect.start, t.opinion.start, t.aspect.end, t.opinion.end)
            corners.setdefault(key, []).append(t)
        keys = sorted(corners)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                if k1[:2] == k2[:2] or k1[2:] == k2[2:]:
                    continue  # shared corner cell: outside the round-trip domain
                sets.append((corners[k1][0], corners[k2][0]))
        for triplets in sets:
            ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), triplets)
            _, regions = encode_region_labels(ls)
            decoded = decode_regions([(r.a, r.b, r.c, r.d, r.cls) for r in regions])
            assert set(decoded) == set(triplets)
            checked += 1
    assert checked > 1000


def test_region_roundtrip_randomized():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        triplets = []
        corners_b, corners_e = set(), set()
        for _ in range(int(rng.integers(1, 4))):
            a0 = int(rng.integers(n)); a1 = int(rng.integers(a0, n))
            o0 = int(rng.integers(n)); o1 = int(rng.integers(o0, n))
            if (a0, o0) in corners_b or (a1, o1) in corners_e:
                continue
            corners_b.add((a0, o0)); corners_e.add((a1, o1))
            triplets.append(
                Triplet(Span(a0, a1), Span(o0, o1), ALL_POLARITIES[rng.integers(3)])
            )
        ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), tuple(triplets))
        _, regions = encode_region_labels(ls)
        decoded = decode_regions([(r.a, r.b, r.c, r.d, r.cls) for r in regions])
        assert set(decoded) == set(triplets)


def test_region_encode_emits_one_corner_per_triplet():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        a0 = int(rng.integers(n - 1)); o0 = int(rng.integers(n - 1))
        t1 = Triplet(Span(a0, a0), Span(o0, o0), Polarity.POS)
        t2 = Triplet(Span(a0 + 1, a0 + 1), Span(o0 + 1, o0 + 1), Polarity.NEG)
        ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), (t1, t2))
        boundaries, _ = encode_region_labels(ls)
        assert boundaries.b.sum() == 2 and boundaries.e.sum() == 2


def test_cell_encode_paper_example():
    tbl = encode_cell_labels(PAPER_LINE)
    assert tbl[1, 1] == CELL_A and tbl[2, 2] == CELL_A
    assert tbl[4, 4] == CELL_O
    assert tbl[1, 4] == CELL_POS and tbl[2, 4] == CELL_POS
    assert (tbl != CELL_NONE).sum() == 5


def test_cell_encode_empty_is_all_none():
    tbl = encode_cell_labels(LabeledSentence(Sentence(("a", "b")), ()))
    assert (tbl == CELL_NONE).all()


def test_cell_encode_shared_aspect_union():
    ls = LabeledSentence(
        Sentence(tuple(f"w{i}" for i in range(6))),
        (
            Triplet(Span(0, 0), Span(2, 2), Polarity.POS),
            Triplet(Span(0, 0), Span(4, 4), Polarity.NEG),
        ),
    )
    tbl = encode_cell_labels(ls)
    # brute-force oracle: every (aspect token, opinion token) crossing labeled
    expected = np.zeros((6, 6), dtype=int)
    expected[0, 0] = CELL_A
    expected[2, 2] = CELL_O
    expected[4, 4] = CELL_O
    expected[0, 2] = CELL_POS
    expected[0, 4] = CELL_NEG
    assert np.array_equal(tbl, expected)


def test_cell_encode_conflict_on_shared_token():
    ls = LabeledSentence(
        Sentence(("a", "b", "c")), (Triplet(Span(0, 1), Span(1, 1), Polarity.POS),)
    )
    with pytest.raises(CellConflictError):
        encode_cell_labels(ls)


def test_cell_roundtrip_paper_example():
    decoded = decode_cell_table(encode_cell_labels(PAPER_LINE))
    assert decoded == list(PAPER_LINE.triplets)


def test_cell_decode_all_none():
    assert decode_cell_table(np.zeros((4, 4), dtype=np.int8)) == []


def test_cell_decode_majority_and_tie():
    # aspect run rows 0-2, opinion at col 4; crossing votes 2 POS / 1 NEG
    tbl = np.zeros((5, 5), dtype=np.int8)
    for i in range(3):
        tbl[i, i] = CELL_A
    tbl[4, 4] = CELL_O
    tbl[0, 4] = CELL_POS
    tbl[1, 4] = CELL_POS
    tbl[2, 4] = CELL_NEG
    out = decode_cell_table(tbl)
    assert out == [Triplet(Span(0, 2), Span(4, 4), Polarity.POS)]
    # exact tie drops the pair
    tbl[1, 4] = CELL_NEG
    tbl[2, 4] = CELL_NONE
    assert decode_cell_table(tbl) == []


def test_cell_decode_majority_matches_enumeration_oracle():
    """All 3-cell crossing label assignments against a direct vote count."""
    labels = [CELL_NONE, CELL_POS, CELL_NEG]
    from collections import Counter

    for assignment in itertools.product(labels, repeat=3):
        tbl = np.zeros((5, 5), dtype=np.int8)
        for i in range(3):
            tbl[i, i] = CELL_A
        tbl[4, 4] = CELL_O
        for i, lab in enumerate(assignment):
            tbl[i, 4] = lab
        votes = Counter(lab for lab in assignment if lab != CELL_NONE)
        out = decode_cell_table(tbl)
        ranked = votes.most_common()
        if not ranked or (len(ranked) > 1 and ranked[0][1] == ranked[1][1]):
            assert out == []
        else:
            assert len(out) == 1
            expected = {CELL_POS: Polarity.POS, CELL_NEG: Polarity.NEG}[ranked[0][0]]
            assert out[0].polarity == expected


def test_cell_roundtrip_constrained_random():
    """Non-adjacent same-type spans, no aspect/opinion token overlap."""
    rng = np.random.default_rng(55)
    for _ in range(300):
        n = int(rng.integers(6, 12))
        used = set()
        triplets = []
        for _ in range(int(rng.integers(1, 3))):
            a0 = int(rng.integers(0, n - 1))
            a1 = min(n - 1, a0 + int(rng.integers(0, 2)))
            o0 = int(rng.integers(0, n))
            aspect = set(range(a0 - 1, a1 + 2))  # pad so runs stay non-adjacent
            opinion = {o0 - 1, o0, o0 + 1}
            if (aspect | opinion) & used or (set(range(a0, a1 + 1)) & {o0}):
                continue
            used |= aspect | opinion
            triplets.append(
                Triplet(Span(a0, a1), Span(o0, o0), ALL_POLARITIES[rng.integers(3)])
            )
        if not triplets:
            continue
        ls = LabeledSentence(Sentence(tuple(f"w{i}" for i in range(n))), tuple(triplets))
        decoded = decode_cell_table(encode_cell_labels(ls))
        assert set(decoded) == set(triplets)


def test_cells_by_type_lenient_grouping():
    t1 = Triplet(Span(0, 1), Span(3, 3), Polarity.POS)
    groups = cells_by_type([t1])
    assert groups[CELL_A] == [(0, 0), (1, 1)]
    assert groups[CELL_O] == [(3, 3)]
    assert groups[CELL_POS] == [(0, 3), (1, 3)]
    assert groups[CELL_NEG] == []
    # token 1 is aspect and opinion, (1, 3) is POS and NEG: encode_cell_labels
    # rejects this set, the grouping lists each cell once per group it is in
    t2 = Triplet(Span(1, 1), Span(3, 3), Polarity.NEG)
    t3 = Triplet(Span(4, 4), Span(1, 1), Polarity.NEG)
    groups = cells_by_type([t1, t2, t3, t1])
    assert groups[CELL_A] == [(0, 0), (1, 1), (4, 4)]
    assert groups[CELL_O] == [(3, 3), (1, 1)]
    assert groups[CELL_POS] == [(0, 3), (1, 3)]
    assert groups[CELL_NEG] == [(1, 3), (4, 1)]
    with pytest.raises(CellConflictError):
        encode_cell_labels(LabeledSentence(Sentence(tuple("abcde")), (t1, t2, t3)))
