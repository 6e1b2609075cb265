"""Corner scoring, pruning, pairing, RoI pooling, classification, decoding."""

import itertools
import math

import numpy as np
import pytest

from tablemt.autograd import Tensor, concat
from tablemt.corpus import Polarity, Span, Triplet
from tablemt.detector import (
    Mode,
    RegionProposal,
    classify_regions,
    decode_triplets,
    foreground_classes,
    init_detector_params,
    invalid_class,
    num_classes,
    propose_regions,
    roi_represent,
    rpn_scores,
    topk_prune,
)
from tablemt.tagging import RegionClass, decode_regions

import reference_ops as ref

D = 6


def _params(mode=Mode.ASTE, seed=0):
    return {k: Tensor(v) for k, v in init_detector_params(D, mode, np.random.default_rng(seed)).items()}


def test_rpn_zero_weights_give_half():
    params = _params()
    params["rpn_b_w"] = Tensor(np.zeros((D, 1)))
    params["rpn_b_b"] = Tensor(np.zeros(1))
    tl = Tensor(np.random.default_rng(0).normal(size=(9, D)))
    scores = rpn_scores(tl, params)
    assert scores.pb.shape == (9,)
    assert np.allclose(scores.pb.data, 0.5)


def test_rpn_bias_monotonicity():
    params = _params()
    tl = Tensor(np.random.default_rng(1).normal(size=(16, D)))
    lo = rpn_scores(tl, params).pb.data
    params["rpn_b_b"] = Tensor(params["rpn_b_b"].data + 1.0)
    hi = rpn_scores(tl, params).pb.data
    assert (hi > lo).all()


def test_rpn_matches_direct_sigmoid_2x2():
    params = _params(seed=3)
    tl_data = np.random.default_rng(2).normal(size=(2, 2, D))
    scores = rpn_scores(Tensor(tl_data.reshape(4, D)), params)
    w = params["rpn_e_w"].data[:, 0]
    b = params["rpn_e_b"].data[0]
    for i in range(2):
        for j in range(2):
            direct = 1.0 / (1.0 + math.exp(-(tl_data[i, j] @ w + b)))
            assert scores.pe.data[2 * i + j] == pytest.approx(direct, rel=1e-12)


def test_topk_count_rule():
    scores = np.zeros((6, 6))
    assert len(topk_prune(scores, 0.3)) == 2  # ceil(1.8)
    assert len(topk_prune(np.zeros((1, 1)), 0.3)) == 1  # floor guard
    assert len(topk_prune(np.zeros((2, 2)), 1.0)) == 2
    with pytest.raises(ValueError):
        topk_prune(scores, 0.0)


def test_topk_uniform_ties_row_major():
    cells = topk_prune(np.full((3, 3), 0.7), 0.5)  # k = 2
    assert [(i, j) for i, j, _ in cells] == [(0, 0), (0, 1)]


def test_topk_sorted_descending():
    rng = np.random.default_rng(4)
    scores = rng.random((5, 5))
    cells = topk_prune(scores, 0.6)
    vals = [s for _, _, s in cells]
    assert vals == sorted(vals, reverse=True)
    assert len(cells) == 3


def _topk_by_tuple_sort(scores, kappa):
    """The (-score, i, j) tuple sort that topk_prune must reproduce."""
    n = scores.shape[0]
    cells = [(float(scores[i, j]), i, j) for i in range(n) for j in range(n)]
    cells.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [(i, j, s) for s, i, j in cells[: max(1, math.ceil(kappa * n))]]


@pytest.mark.parametrize("seed", range(6))
def test_topk_matches_tuple_sort_with_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    scores = rng.integers(0, 4, size=(n, n)) / 4.0  # few distinct values: many ties
    for kappa in (0.3, 0.5, 1.0):
        cells = topk_prune(scores, kappa)
        assert cells == _topk_by_tuple_sort(scores, kappa)
        assert all(type(i) is int and type(j) is int for i, j, _ in cells)


def test_topk_ranks_nan_after_finite():
    rng = np.random.default_rng(7)
    scores = rng.random((5, 5))
    nan_cells = {(0, 0), (1, 3), (4, 4)}
    for i, j in nan_cells:
        scores[i, j] = np.nan
    cells = topk_prune(scores, 1.0)  # k = 5 of 22 finite cells
    assert not nan_cells & {(i, j) for i, j, _ in cells}
    scores[:] = np.nan
    scores[2, 1] = -np.inf
    assert topk_prune(scores, 0.2)[0][:2] == (2, 1)


def test_propose_regions_forced_examples():
    bset = [(1, 4, 0.9), (0, 0, 0.8)]
    eset = [(2, 4, 0.7)]
    rects = {p.rect() for p in propose_regions(bset, eset)}
    assert rects == {(1, 4, 2, 4), (0, 0, 2, 4)}
    assert propose_regions([(3, 3, 0.5)], [(1, 1, 0.5)]) == []


def test_propose_regions_matches_bruteforce_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 5))
        bset = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.random())) for _ in range(k)]
        eset = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.random())) for _ in range(k)]
        got = [p.rect() for p in propose_regions(bset, eset)]
        brute = sorted(
            {
                (a, b, c, d)
                for (a, b, _s1) in bset
                for (c, d, _s2) in eset
                if a <= c and b <= d
            }
        )
        assert got == brute
        assert all(a <= c and b <= d for a, b, c, d in got)


def test_roi_single_cell_triples_the_cell():
    tl = Tensor(np.random.default_rng(0).normal(size=(9, D)))
    r = roi_represent(tl, [3], [[(1, 2, 1, 2)]])
    assert r.shape == (1, 3 * D)
    cell = tl.data[1 * 3 + 2]
    assert np.array_equal(r.data[0], np.concatenate([cell, cell, cell]))


def test_roi_pool_matches_loop_oracle():
    """One batched call equals, row for row and bit for bit, the corner cells
    and the per-rectangle slice max of each rectangle on its own."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        tl_data = rng.normal(size=(n, n, D))
        tl_data[rng.random((n, n, D)) < 0.3] = 0.5  # ties inside windows
        rects = []
        for _ in range(int(rng.integers(1, 8))):
            a, c = sorted(int(v) for v in rng.integers(0, n, size=2))
            b, d = sorted(int(v) for v in rng.integers(0, n, size=2))
            rects.append((a, b, c, d))
        r = roi_represent(Tensor(tl_data.reshape(n * n, D)), [n], [rects])
        oracle = np.stack([
            np.concatenate([tl_data[a, b], tl_data[c, d],
                            [tl_data[a : c + 1, b : d + 1, k].max() for k in range(D)]])
            for a, b, c, d in rects
        ])
        assert np.array_equal(r.data, oracle)


def test_roi_pool_gradient_matches_per_rect_graph():
    rng = np.random.default_rng(4)
    tl_data = rng.normal(size=(5, 5, D))
    tl_data[1:3, 1:4, 0] = 2.0  # a tied window
    rects = [(1, 1, 2, 3), (0, 0, 4, 4), (3, 2, 3, 2), (1, 1, 2, 3)]
    batched, per_rect = Tensor(tl_data.reshape(25, D)), Tensor(tl_data)
    weights = rng.normal(size=(len(rects), 3 * D))
    (roi_represent(batched, [5], [rects]) * weights).sum().backward()
    total = Tensor(0.0)
    for (a, b, c, d), w in zip(rects, weights):
        row = concat([per_rect[a, b], per_rect[c, d],
                      ref.max(per_rect[a : c + 1, b : d + 1], axis=(0, 1))], axis=0)
        total = total + (row * w).sum()
    total.backward()
    np.testing.assert_allclose(batched.grad.reshape(5, 5, D), per_rect.grad, rtol=1e-13,
                               atol=1e-15)


def test_roi_represent_on_packed_sentences_equals_each_alone():
    """RoI rows of sentences packed back to back (one of them with no
    rectangle) equal each sentence's own rows, and so does the gradient, bit
    for bit; the rpn maps split back to each sentence's own scores."""
    rng = np.random.default_rng(8)
    sizes = [4, 1, 3, 2]
    maps = [rng.normal(size=(n * n, D)) for n in sizes]
    rects = [[(0, 1, 2, 3), (1, 1, 1, 1), (0, 0, 3, 3)], [(0, 0, 0, 0)], [], [(0, 0, 1, 1)]]
    weights = rng.normal(size=(5, 3 * D))
    packed = Tensor(np.concatenate(maps))
    (roi_represent(packed, sizes, rects) * weights).sum().backward()
    rows, grads, lo = [], [], 0
    for n, m, rs in zip(sizes, maps, rects):
        alone = Tensor(m)
        if rs:
            r = roi_represent(alone, [n], [rs])
            (r * weights[lo : lo + len(rs)]).sum().backward()
            rows.append(r.data)
            lo += len(rs)
        grads.append(alone.grad if alone.grad is not None else np.zeros_like(m))
    np.testing.assert_array_equal(roi_represent(packed, sizes, rects).data, np.concatenate(rows))
    np.testing.assert_array_equal(packed.grad, np.concatenate(grads))
    scores = rpn_scores(packed, _params())
    for (pb, pe), n, m in zip(scores.maps(sizes), sizes, maps):
        alone = rpn_scores(Tensor(m), _params())
        np.testing.assert_allclose(pb, alone.pb.data.reshape(n, n), rtol=1e-15, atol=0)
        np.testing.assert_allclose(pe, alone.pe.data.reshape(n, n), rtol=1e-15, atol=0)


def test_classify_zero_weights_uniform():
    for mode in (Mode.ASTE, Mode.AOPE):
        c = num_classes(mode)
        params = _params(mode)
        params["cls_w"] = Tensor(np.zeros((3 * D, c)))
        params["cls_b"] = Tensor(np.zeros(c))
        rois = Tensor(np.random.default_rng(1).normal(size=(1, 3 * D)))
        probs, _ = classify_regions(rois, params)
        assert probs.shape == (1, c)
        assert np.allclose(probs.data, 1.0 / c)


def test_classify_simplex_and_shift_invariance():
    rng = np.random.default_rng(5)
    params = _params()
    rois = Tensor(rng.normal(size=(7, 3 * D)))
    probs, logp = classify_regions(rois, params)
    assert probs.data.shape == (7, 4)
    assert (probs.data >= 0).all()
    assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-6
    shifted = dict(params)
    shifted["cls_b"] = Tensor(params["cls_b"].data + 123.4)
    probs2, _ = classify_regions(rois, shifted)
    assert np.allclose(probs.data, probs2.data)
    assert np.allclose(np.exp(logp.data), probs.data)


def test_decode_triplets_basic_and_invalid():
    props = [RegionProposal(1, 4, 2, 4)]
    probs = np.array([[0.9, 0.05, 0.03, 0.02]])
    out = decode_triplets(props, probs, Mode.ASTE)
    assert out == [Triplet(Span(1, 2), Span(4, 4), Polarity.POS)]
    probs_inv = np.array([[0.01, 0.01, 0.01, 0.97]])
    assert decode_triplets(props, probs_inv, Mode.ASTE) == []


def test_decode_triplets_dedups_identical_rectangles():
    props = [RegionProposal(0, 0, 1, 1), RegionProposal(0, 0, 1, 1)]
    probs = np.array([[0.9, 0.05, 0.03, 0.02], [0.9, 0.05, 0.03, 0.02]])
    out = decode_triplets(props, probs, Mode.ASTE)
    assert len(out) == 1


def test_decode_aope_pairs():
    props = [RegionProposal(0, 1, 0, 1), RegionProposal(1, 1, 2, 2)]
    probs = np.array([[0.8, 0.2], [0.1, 0.9]])
    out = decode_triplets(props, probs, Mode.AOPE)
    assert out == [(Span(0, 0), Span(1, 1))]


_ENUM_POLARITY = {RegionClass.POS: Polarity.POS, RegionClass.NEU: Polarity.NEU,
                  RegionClass.NEG: Polarity.NEG}


def _decode_regions_enum(regions):
    """``decode_regions`` as it was, through a ``RegionClass`` per rectangle."""
    out = {}
    for a, b, c, d, cls in regions:
        cls = RegionClass(cls)
        if cls == RegionClass.INVALID:
            continue
        if not (a <= c and b <= d):
            raise ValueError(f"degenerate rectangle ({a},{b},{c},{d})")
        out[(a, b, c, d, int(cls))] = Triplet(Span(a, c), Span(b, d), _ENUM_POLARITY[cls])
    return [out[k] for k in sorted(out)]


def _decode_triplets_enum(proposals, probs, mode):
    """``decode_triplets`` as it was, with numpy picks turned into enums."""
    picks = probs.argmax(axis=1)
    if mode == Mode.ASTE:
        return _decode_regions_enum([
            (p.a, p.b, p.c, p.d, RegionClass(int(k)))
            for p, k in zip(proposals, picks)
            if int(k) != int(RegionClass.INVALID)
        ])
    pairs = {
        (p.a, p.b, p.c, p.d): (Span(p.a, p.c), Span(p.b, p.d))
        for p, k in zip(proposals, picks)
        if int(k) in foreground_classes(Mode.AOPE)
    }
    return [pairs[r] for r in sorted(pairs)]


@pytest.mark.parametrize("mode", [Mode.ASTE, Mode.AOPE], ids=["aste", "aope"])
def test_decode_triplets_equals_the_enum_decoding(mode):
    rng = np.random.default_rng(17)
    picked = set()
    for _ in range(300):
        n = int(rng.integers(1, 25))
        pool = []
        for _ in range(int(rng.integers(1, 12))):
            a, c = sorted(int(v) for v in rng.integers(0, n, size=2))
            b, d = sorted(int(v) for v in rng.integers(0, n, size=2))
            pool.append(RegionProposal(a, b, c, d))
        # drawn with replacement from a small pool, so rectangles repeat
        proposals = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 30)))]
        probs = rng.dirichlet(np.ones(num_classes(mode)), size=len(proposals))
        picked.update(probs.argmax(axis=1).tolist())
        expected = _decode_triplets_enum(proposals, probs, mode)
        assert decode_triplets(proposals, probs, mode) == expected
    assert picked == set(range(num_classes(mode)))


def test_decode_regions_equals_the_enum_decoding_and_errors():
    rng = np.random.default_rng(23)
    kinds = (int, RegionClass, np.int64)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        regions = []
        for _ in range(int(rng.integers(0, 12))):
            a, c = sorted(int(v) for v in rng.integers(0, n, size=2))
            b, d = sorted(int(v) for v in rng.integers(0, n, size=2))
            cls = kinds[int(rng.integers(3))](int(rng.integers(4)))
            regions += [(a, b, c, d, cls)] * int(rng.integers(1, 3))
        assert decode_regions(regions) == _decode_regions_enum(regions)
    # an INVALID rectangle is dropped before its corners are checked
    assert decode_regions([(2, 0, 1, 0, RegionClass.INVALID)]) == []
    bad = [
        [(2, 0, 1, 0, RegionClass.POS)],
        [(0, 3, 0, 1, 2)],
        [(0, 0, 0, 0, 4)],
        [(0, 0, 0, 0, 1), (1, 1, 1, 1, -1)],
        [(0, 0, 0, 0, 7), (2, 0, 1, 0, 0)],
        [(0, 0, 0, 0, "POS")],
        [(-1, 0, 0, 0, 0)],
    ]
    for regions in bad:
        with pytest.raises(ValueError) as old:
            _decode_regions_enum(regions)
        with pytest.raises(ValueError) as new:
            decode_regions(regions)
        assert str(new.value) == str(old.value)


def test_foreground_class_sets():
    assert foreground_classes(Mode.ASTE) == (0, 1, 2)
    assert foreground_classes(Mode.AOPE) == (0,)
    assert invalid_class(Mode.AOPE) == 1
    assert invalid_class(Mode.ASTE) == int(RegionClass.INVALID) == 3
    assert num_classes(Mode.ASTE) == 4 and num_classes(Mode.AOPE) == 2


def test_end_to_end_plumbing_with_adversarially_perfect_scores():
    """Corner cells scored 1-eps, classifier forced: decode returns gold."""
    gold = [
        Triplet(Span(1, 2), Span(4, 4), Polarity.POS),
        Triplet(Span(5, 5), Span(0, 0), Polarity.NEG),
    ]
    n = 6
    eps = 1e-3
    pb = np.full((n, n), eps)
    pe = np.full((n, n), eps)
    for t in gold:
        pb[t.aspect.start, t.opinion.start] = 1 - eps
        pe[t.aspect.end, t.opinion.end] = 1 - eps
    bset = topk_prune(pb, 0.3)
    eset = topk_prune(pe, 0.3)
    props = propose_regions(bset, eset)
    gold_rects = {
        (t.aspect.start, t.opinion.start, t.aspect.end, t.opinion.end): t for t in gold
    }
    probs = np.zeros((len(props), 4))
    for i, p in enumerate(props):
        if p.rect() in gold_rects:
            cls = {"POS": 0, "NEU": 1, "NEG": 2}[gold_rects[p.rect()].polarity.value]
            probs[i, cls] = 1.0
        else:
            probs[i, 3] = 1.0
    decoded = decode_triplets(props, probs, Mode.ASTE)
    assert set(decoded) == set(gold)
