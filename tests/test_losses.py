"""Loss oracles: per-cell BCE, proposal CE, consistency MSE, kernel MMD."""

import math

import numpy as np
import pytest

from tablemt import autograd as ag
from tablemt.autograd import Tensor
from tablemt.corpus import Polarity, Sentence
from tablemt.detector import Mode, RegionProposal, classify_regions, roi_represent, rpn_scores
from tablemt.losses import (
    LossBreakdown,
    loss_mmd,
    loss_rpc,
    loss_rpn,
    loss_uns,
    match_gold,
    mmd,
    total_loss,
)
from tablemt.encoder import EncoderConfig, encode
from tablemt.model import as_tensors, forward, init_params
from tablemt.tagging import GoldRegion, RegionClass

import reference_ops as ref


def _mean_weights(y):
    """Per-cell weights that make ``loss_rpn`` the mean over both maps."""
    return np.full(y.shape, 1.0 / (2 * y.size))


def test_loss_rpn_perfect_prediction_near_zero():
    y = np.array([[1, 0], [0, 1]])
    eps = 1e-9
    p = Tensor(np.where(y == 1, 1 - eps, eps).astype(float))
    out = loss_rpn(p, p, y, y, _mean_weights(y))
    assert out.item() < 1e-8


def test_loss_rpn_half_everywhere_is_ln2():
    y = np.array([[1, 0], [1, 1]])
    p = Tensor(np.full((2, 2), 0.5))
    assert loss_rpn(p, p, y, 1 - y, _mean_weights(y)).item() == pytest.approx(math.log(2),
                                                                              rel=1e-12)


def test_loss_rpn_matches_loop_oracle():
    rng = np.random.default_rng(0)
    pb = rng.uniform(0.05, 0.95, size=(3, 3))
    pe = rng.uniform(0.05, 0.95, size=(3, 3))
    yb = rng.integers(0, 2, size=(3, 3))
    ye = rng.integers(0, 2, size=(3, 3))
    total = 0.0
    for p, y in ((pb, yb), (pe, ye)):
        for i in range(3):
            for j in range(3):
                total += -(y[i, j] * math.log(p[i, j]) + (1 - y[i, j]) * math.log(1 - p[i, j]))
    expected = total / 18.0
    out = loss_rpn(Tensor(pb), Tensor(pe), yb, ye, _mean_weights(yb))
    assert out.item() == pytest.approx(expected, rel=1e-12)


def test_loss_rpn_shape_mismatch():
    with pytest.raises(ValueError):
        loss_rpn(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), np.ones((3, 3)), np.ones((2, 2)),
                 np.ones((2, 2)))
    with pytest.raises(ValueError):
        loss_rpn(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), np.ones((2, 2)), np.ones((2, 2)),
                 np.ones(4))


def _logp(probs):
    return Tensor(np.log(probs))


def _mean_rpc(logp, targets):
    return loss_rpc(logp, targets, np.full(len(targets), 1.0 / max(len(targets), 1)))


def test_loss_rpc_certain_gold_is_zero():
    assert _mean_rpc(_logp(np.array([[1.0, 0, 0, 0]]) + 1e-300), np.array([0])).item() < 1e-12


def test_loss_rpc_uniform_is_ln4():
    lp = _logp(np.full((2, 4), 0.25))
    assert _mean_rpc(lp, np.array([1, 3])).item() == pytest.approx(math.log(4), rel=1e-12)


def test_loss_rpc_empty_is_zero():
    assert _mean_rpc(None, np.array([], dtype=int)).item() == 0.0


def test_loss_rpc_matches_loop_oracle():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(4), size=3)
    targets = np.array([2, 0, 3])
    expected = -sum(math.log(probs[i, targets[i]]) for i in range(3)) / 3
    assert _mean_rpc(_logp(probs), targets).item() == pytest.approx(expected, rel=1e-12)


def test_loss_rpc_weighs_each_row_and_reads_only_the_target_rows():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(4), size=5)  # rows 3 and 4 belong to no target
    targets = np.array([1, 1, 0])
    weights = np.array([0.5, 0.25, 0.125])
    expected = -sum(w * math.log(probs[i, t]) for i, (t, w) in enumerate(zip(targets, weights)))
    lp = _logp(probs)
    out = loss_rpc(lp, targets, weights)
    assert out.item() == pytest.approx(expected, rel=1e-14)
    out.backward()
    assert not lp.grad[3:].any()


def _gold(a, b, c, d, cls=RegionClass.POS):
    return GoldRegion(a, b, c, d, cls)


def test_match_gold_exact_match_and_invalid():
    props = [RegionProposal(1, 4, 2, 4), RegionProposal(0, 0, 2, 4)]
    targets = match_gold(props, [_gold(1, 4, 2, 4)], Mode.ASTE)
    assert list(targets) == [int(RegionClass.POS), int(RegionClass.INVALID)]
    # a gold rectangle no proposal covers gets no target row
    missed = match_gold(props[:1], [_gold(1, 4, 2, 4), _gold(0, 0, 1, 1)], Mode.ASTE)
    assert list(missed) == [int(RegionClass.POS)]


def test_forward_appends_missing_extra_rect_once():
    cfg = EncoderConfig(d=8, layers=1, vocab_buckets=64, max_n=8)
    params = as_tensors(init_params(cfg, Mode.ASTE, np.random.default_rng(0)))
    sentence = Sentence(("the", "snoun0", "was", "sadj0", "here"))
    n = sentence.n
    tl = encode([sentence], params, cfg)
    scores = rpn_scores(tl, params)
    (pb, pe), = scores.maps([n])
    base = forward(pb, pe, kappa=0.3)
    predicted = [p.rect() for p in base.proposals]
    assert base.n_predicted == len(predicted) > 0
    missing = next(
        (a, b, c, d)
        for a in range(n) for b in range(n) for c in range(a, n) for d in range(b, n)
        if (a, b, c, d) not in predicted
    )
    fwd = forward(pb, pe, kappa=0.3, extra_rects=[missing, predicted[0], missing])
    assert [p.rect() for p in fwd.proposals] == predicted + [missing]
    assert fwd.n_predicted == len(predicted)
    assert fwd.extra_rows == [len(predicted), 0, len(predicted)]
    probs, _ = classify_regions(roi_represent(tl, [n], [fwd.proposals]), params)
    base_probs, _ = classify_regions(roi_represent(tl, [n], [base.proposals]), params)
    assert probs.shape[0] == len(predicted) + 1
    assert np.array_equal(probs.data[:-1], base_probs.data)


def test_match_gold_aope_targets_binary():
    props = [RegionProposal(1, 1, 2, 2), RegionProposal(0, 0, 0, 0)]
    targets = match_gold(props, [_gold(1, 1, 2, 2)], Mode.AOPE)
    assert list(targets) == [0, 1]


def test_loss_uns_identical_zero_and_direct_case():
    p = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert loss_uns(Tensor(p), p).item() == 0.0
    student = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
    teacher = np.array([[0.0, 1.0, 0.0, 0.0]])
    assert loss_uns(student, teacher).item() == pytest.approx(2.0, rel=1e-12)


def test_loss_uns_matches_loop_oracle():
    rng = np.random.default_rng(2)
    s = rng.dirichlet(np.ones(4), size=3)
    t = rng.dirichlet(np.ones(4), size=3)
    expected = sum(((s[i] - t[i]) ** 2).sum() for i in range(3)) / 3
    assert loss_uns(Tensor(s), t).item() == pytest.approx(expected, rel=1e-12)


def test_loss_uns_empty_zero():
    assert loss_uns(None, np.zeros((0, 4))).item() == 0.0


# -- MMD ---------------------------------------------------------------------


def oracle_mmd(x, y, sigma=None):
    """Independent double-loop kernel-sum estimator."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if sigma is None:
        z = np.concatenate([x, y], axis=0)
        dists = []
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                dists.append(math.sqrt(((z[i] - z[j]) ** 2).sum()))
        sigma = float(np.median(dists)) if dists else 1.0
        if sigma <= 0.0:
            sigma = 1.0

    def k(u, v):
        return math.exp(-((u - v) ** 2).sum() / (2 * sigma**2))

    xx = sum(k(a, b) for a in x for b in x) / (len(x) ** 2)
    yy = sum(k(a, b) for a in y for b in y) / (len(y) ** 2)
    xy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return max(xx + yy - 2 * xy, 0.0)


def test_mmd_paper_style_two_point_example():
    # one pair at distance 2, so the median bandwidth is sigma = 2
    out = mmd(np.array([[0.0]]), np.array([[2.0]]))
    expected = 1 + 1 - 2 * math.exp(-0.5)
    assert out.item() == pytest.approx(expected, rel=1e-12)
    assert out.item() == pytest.approx(0.786939, abs=1e-6)


def test_mmd_identical_sets_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4))
    assert mmd(x, x.copy()).item() == 0.0
    xt, yt = Tensor(x), Tensor(x[::-1].copy())
    out = mmd(xt, yt)  # clamped at 0, so no gradient passes
    assert out.item() == 0.0
    out.backward()
    assert not xt.grad.any() and not yt.grad.any()


def test_mmd_symmetry_and_nonnegativity():
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=(int(rng.integers(1, 6)), 3))
        y = rng.normal(size=(int(rng.integers(1, 6)), 3))
        fwd = mmd(x, y).item()
        rev = mmd(y, x).item()
        assert fwd == pytest.approx(rev, abs=1e-14)
        assert fwd >= 0.0


def test_mmd_matches_oracle_100_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        x = rng.normal(size=(int(rng.integers(1, 9)), dim))
        y = rng.normal(size=(int(rng.integers(1, 9)), dim))
        assert abs(mmd(x, y).item() - oracle_mmd(x, y)) < 1e-10


def test_mmd_empty_set_contract():
    assert mmd(np.zeros((0, 3)), np.ones((2, 3))).item() == 0.0
    assert mmd(Tensor(np.zeros((0, 3))), Tensor(np.ones((1, 3)))).item() == 0.0


def test_mmd_median_fallback_when_degenerate():
    x = np.ones((3, 2))
    y = np.ones((2, 2))
    out = mmd(x, y)  # all pairwise distances zero -> bandwidth falls back
    assert out.item() == 0.0  # identical distributions regardless
    mostly = np.full((10, 3), 1.5)  # 28 of the 45 distances zero: the median is 0
    mostly[[2, 8]] = np.random.default_rng(20).normal(size=(2, 3))
    x, y = Tensor(mostly[:5]), Tensor(mostly[5:])
    out = mmd(x, y)
    assert out.item() == pytest.approx(oracle_mmd(mostly[:5], mostly[5:], sigma=1.0), abs=1e-14)
    out.backward()
    assert np.abs(x.grad).max() > 0.0


def test_mmd_gradient_matches_fd_through_median():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(3, 2))
    y0 = rng.normal(size=(4, 2))

    def value(x):
        return mmd(Tensor(x), Tensor(y0)).item()

    xt = Tensor(x0.copy())
    out = mmd(xt, Tensor(y0))
    out.backward()
    eps = 1e-6
    for idx in [(0, 0), (1, 1), (2, 0)]:
        p = x0.copy(); p[idx] += eps
        m = x0.copy(); m[idx] -= eps
        fd = (value(p) - value(m)) / (2 * eps)
        assert xt.grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def _three_pass_mmd(xm, ym):
    """The formula ``mmd`` had before it read one pooled distance matrix:
    the bandwidth from its own upper-triangle gather, then one repeat/tile
    gather per kernel block (xx, yy, xy)."""
    z = ag.concat([xm, ym], axis=0)
    iu, ju = np.triu_indices(z.shape[0], k=1)
    diff = z[iu] - z[ju]
    dists = ref.sqrt((diff * diff).sum(axis=1))
    order = np.argsort(dists.data, kind="stable")
    q = order.shape[0]
    if q % 2 == 1:
        sigma = dists[order[q // 2]]
    else:
        sigma = (dists[order[q // 2 - 1]] + dists[order[q // 2]]) * 0.5
    if float(sigma.data) <= 0.0:
        sigma = Tensor(1.0)
    inv_two_sigma_sq = ref.power(sigma, -2.0) * 0.5

    def kernel_mean(a, b):
        m, k = a.shape[0], b.shape[0]
        d = a[np.repeat(np.arange(m), k)] - b[np.tile(np.arange(k), m)]
        return ((d * d).sum(axis=1) * -1.0 * inv_two_sigma_sq).exp().mean()

    raw = kernel_mean(xm, xm) + kernel_mean(ym, ym) - 2.0 * kernel_mean(xm, ym)
    return ref.clamp_min(raw, 0.0)


def _mmd_cases():
    """(name, x blocks, y blocks): each side is its blocks' rows, stacked by
    ``concat`` as a batch stacks per-sentence rows, so the gradient reaches
    every block."""
    rng = np.random.default_rng(12)
    # pooled sizes 2..9 give pair counts 1, 3, 6, 10, 15, 21, 28, 36
    for m, k in [(1, 1), (1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (4, 4), (5, 4)]:
        yield f"{m}x{k}", [rng.normal(size=(m, 3))], [rng.normal(size=(k, 3))]
    for i in range(40):
        dim = int(rng.integers(1, 17))
        x = [rng.normal(size=(int(rng.integers(1, 9)), dim))]
        yield f"random{i}", x, [rng.normal(size=(int(rng.integers(1, 9)), dim))]
    base = rng.integers(-2, 3, size=(3, 4)).astype(float)
    yield "duplicated rows", [base[[0, 0, 1, 2]]], [base[[1, 2, 2]]]
    yield "integer grid ties", [rng.integers(0, 2, size=(4, 2)).astype(float)], \
        [rng.integers(0, 2, size=(5, 2)).astype(float)]
    yield "all rows equal", [np.full((3, 2), 0.5)], [np.full((2, 2), 0.5)]
    yield "one sentence each", [rng.normal(size=(2, 5))], [rng.normal(size=(3, 5))]
    yield "per-sentence lists", [rng.normal(size=(s, 5)) for s in (2, 1, 3)], \
        [rng.normal(size=(s, 5)) for s in (1, 4)]


@pytest.mark.parametrize("name,xs,ys", list(_mmd_cases()), ids=[c[0] for c in _mmd_cases()])
def test_mmd_equals_three_pass_reference(name, xs, ys):
    def run(f):
        leaves = [Tensor(a.copy()) for a in xs + ys]
        x, y = leaves[: len(xs)], leaves[len(xs):]
        out = f(*(ag.concat(v, axis=0) if len(v) > 1 else v[0] for v in (x, y)))
        out.backward()
        return out.data, [t.grad for t in leaves]

    got, got_grads = run(mmd)
    want, want_grads = run(_three_pass_mmd)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


def _composed_mmd(x, y):
    """``mmd`` as composed tape ops: ``concat``, pairwise differences, the
    median bandwidth's gathers, the kernel blocks' means and ``clamp_min``,
    about thirty nodes.  The fused op must match it, value and gradients, to
    within 1e-12 relative with a 1e-15 absolute floor."""
    xm, ym = (v if isinstance(v, Tensor) else Tensor(v) for v in (x, y))
    m, k = xm.shape[0], ym.shape[0]
    if m == 0 or k == 0:
        return Tensor(0.0)
    z = ag.concat([xm, ym], axis=0)
    p, dim = z.shape
    diff = z.reshape(p, 1, dim) - z.reshape(1, p, dim)
    d2 = (diff * diff).sum(axis=2)
    dists = ref.sqrt(d2[np.triu_indices(p, k=1)])
    q = dists.shape[0]
    order = np.argsort(dists.data, kind="stable")
    med = dists[order[(q - 1) // 2 : q // 2 + 1]].mean()
    if float(med.data) <= 0.0:
        med = Tensor(1.0)
    inv_two_sigma_sq = ref.power(med, -2.0) * 0.5
    kern = (d2 * -1.0 * inv_two_sigma_sq).exp()
    raw = kern[:m, :m].mean() + kern[m:, m:].mean() - 2.0 * kern[:m, m:].mean()
    return ref.clamp_min(raw, 0.0)


def _fit_shape_cases():
    """(name, x blocks, y blocks) at the shapes a tfmt fit hands ``mmd``
    (pooled p up to 60, dims 16 and 48, m != k), one-row sides, the
    zero-median fallback and equal sets, which clamp at 0."""
    rng = np.random.default_rng(19)
    for dim in (16, 48):
        for m, k in [(6, 7), (12, 5), (20, 39), (36, 24), (1, 1), (1, 9), (9, 1)]:
            yield f"{m}x{k}x{dim}", [rng.normal(size=(m, dim))], [rng.normal(size=(k, dim))]
    yield "all rows equal", [np.full((4, 16), 0.5)], [np.full((3, 16), 0.5)]
    mostly = np.full((10, 16), -0.25)  # 28 of the 45 distances are 0
    mostly[[0, 7]] = rng.normal(size=(2, 16))
    yield "median distance 0", [mostly[:4]], [mostly[4:]]
    x = rng.normal(size=(12, 48))
    yield "x equal to y", [x], [x.copy()]
    yield "x equal to y, shuffled", [x], [x[rng.permutation(12)]]
    yield "per-sentence lists", [rng.normal(size=(s, 48)) for s in (5, 1, 9)], \
        [rng.normal(size=(s, 48)) for s in (14, 3)]


def _leaf_grads(f, xs, ys, how):
    """``f``'s value and the leaves' gradients, upstream 0.3, with x and y
    each stacked from its blocks by ``concat`` (``how="concat"``) or
    gathered by ``[]`` from one table that holds every block (``"gather"``),
    as ``_mmd_groups`` gathers both sides from the batch tensors."""
    if how == "concat":
        leaves = [Tensor(a.copy()) for a in xs + ys]
        x, y = (ag.concat(v, axis=0) if len(v) > 1 else v[0]
                for v in (leaves[: len(xs)], leaves[len(xs):]))
    else:
        table = Tensor(np.concatenate(xs + ys))
        m = sum(len(a) for a in xs)
        x, y = table[np.arange(m)], table[np.arange(m, table.shape[0])]
        leaves = [table]
    out = f(x, y) * Tensor(0.3)
    out.backward()
    return [out.data] + [t.grad for t in leaves]


ALL_MMD_CASES = list(_mmd_cases()) + list(_fit_shape_cases())


@pytest.mark.parametrize("how", ["concat", "gather"])
@pytest.mark.parametrize("name,xs,ys", ALL_MMD_CASES, ids=[c[0] for c in ALL_MMD_CASES])
def test_fused_mmd_equals_the_composed_graph_byte_for_byte(name, xs, ys, how):
    """The name is older than the Gram-form ``mmd``: this checks the
    tolerance that ``_composed_mmd`` states, not bytes."""
    got = _leaf_grads(mmd, xs, ys, how)
    want = _leaf_grads(_composed_mmd, xs, ys, how)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


def test_mmd_records_one_node_with_parents_x_and_y():
    rng = np.random.default_rng(21)
    table = Tensor(rng.normal(size=(9, 16)))
    x, y = table[np.arange(4)], table[np.arange(4, 9)]
    out = mmd(x, y)
    assert out._parents == (x, y)
    assert all(p._parents == (table,) for p in out._parents)
    xa, ya = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
    leaf_out = mmd(xa, ya)
    assert [p.data.tobytes() for p in leaf_out._parents] == [xa.tobytes(), ya.tobytes()]
    assert all(not p._parents for p in leaf_out._parents)


def test_fused_mmd_gradients_match_fd_at_a_fit_shape():
    """Central differences at a fit's shape (p 40, dim 48) on every entry of
    the rows whose distances set the median bandwidth, which alone get the
    bandwidth's gradient and here lie in both x and y, and of two other rows."""
    rng = np.random.default_rng(22)
    m = 17
    z0 = np.concatenate([rng.normal(size=(m, 48)), rng.normal(size=(23, 48)) + 0.3])
    iu, ju = np.triu_indices(len(z0), k=1)
    dists = np.sqrt(((z0[iu] - z0[ju]) ** 2).sum(axis=1))
    mid = np.argsort(dists, kind="stable")[len(dists) // 2 - 1 : len(dists) // 2 + 1]
    median_rows = np.unique(np.concatenate([iu[mid], ju[mid]]))
    assert (median_rows < m).any() and (median_rows >= m).any()

    def value(z):
        return mmd(z[:m], z[m:]).item()

    x, y = Tensor(z0[:m].copy()), Tensor(z0[m:].copy())
    mmd(x, y).backward()
    grad = np.concatenate([x.grad, y.grad])
    eps = 1e-6
    for r in [*median_rows, 0, 30]:
        for c in range(z0.shape[1]):
            plus = z0.copy(); plus[r, c] += eps
            minus = z0.copy(); minus[r, c] -= eps
            fd = (value(plus) - value(minus)) / (2 * eps)
            assert grad[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9), (r, c)


def test_mmd_rows_that_differ_only_in_the_sign_of_a_zero_are_0_apart():
    """``[0.0, 1.0]`` and ``[-0.0, 1.0]`` are one row: with every row like
    that, every distance is 0, the bandwidth falls back and the value is
    exactly 0.  So it does at a fit shape (p 36, dim 48) for copies of one
    row whose six zeros take random signs, where a Gram product over the
    rows as distinct bytes leaves rounding residues between the copies."""
    x = Tensor(np.array([[0.0, 1.0], [-0.0, 1.0]]))
    y = Tensor(np.array([[-0.0, 1.0], [0.0, 1.0]]))
    out = mmd(x, y)
    assert out.item() == 0.0
    out.backward()
    assert not x.grad.any() and not y.grad.any()
    rng = np.random.default_rng(24)
    for _ in range(10):
        z = np.tile(rng.normal(size=48), (36, 1))
        for col in rng.choice(48, size=6, replace=False):
            z[:, col] = np.where(rng.random(36) < 0.5, -0.0, 0.0)
        assert mmd(z[:18], z[18:]).item() == 0.0


def test_mmd_gradients_match_fd_with_repeated_rows():
    """Central differences at a shape of the ``b`` and ``e`` groups (p 37,
    dim 16, 20 distinct rows, 17 of them twice) on every entry of the rows
    of the median pairs, which include a repeated row and its twin, each
    with its own gradient.  Repeated rows tie many distances; the median
    here sits on two that nothing else ties with, where it is smooth."""
    rng = np.random.default_rng(0)
    base = rng.normal(size=(20, 16))
    idx = rng.permutation(np.concatenate([np.arange(20), np.arange(17)]))
    z0, m = base[idx], 20
    iu, ju = np.triu_indices(len(z0), k=1)
    dists = np.sqrt(((z0[iu] - z0[ju]) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")
    ranked, lo, hi = dists[order], (len(dists) - 1) // 2, len(dists) // 2
    assert ranked[lo] - ranked[lo - 1] > 1e-4 and ranked[hi + 1] - ranked[hi] > 1e-4
    median_rows = np.unique(np.concatenate([iu[order[lo : hi + 1]], ju[order[lo : hi + 1]]]))
    twins = [r for r in median_rows if (idx == idx[r]).sum() == 2]
    assert len(twins) == 2 and (median_rows < m).any() and (median_rows >= m).any()

    def value(z):
        return mmd(z[:m], z[m:]).item()

    x, y = Tensor(z0[:m].copy()), Tensor(z0[m:].copy())
    mmd(x, y).backward()
    grad = np.concatenate([x.grad, y.grad])
    assert not np.array_equal(grad[twins[0]], grad[twins[1]])
    eps = 1e-6
    for r in median_rows:
        for c in range(z0.shape[1]):
            plus = z0.copy(); plus[r, c] += eps
            minus = z0.copy(); minus[r, c] -= eps
            fd = (value(plus) - value(minus)) / (2 * eps)
            assert grad[r, c] == pytest.approx(fd, rel=1e-5, abs=1e-9), (r, c)


def test_mmd_of_a_row_permutation_is_exactly_0_at_a_fit_shape():
    """Sides that hold the same rows in another order (p 36, dim 48) give
    exactly 0 and pass no gradient, in each of 20 draws."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.normal(size=(18, 48))
        xt, yt = Tensor(x), Tensor(x[rng.permutation(18)])
        out = mmd(xt, yt)
        assert out.item() == 0.0
        out.backward()
        assert not xt.grad.any() and not yt.grad.any()


def test_loss_mmd_region_level_identical_and_empty():
    rng = np.random.default_rng(7)
    feats = {
        "b": Tensor(rng.normal(size=(3, 4))),
        "e": Tensor(rng.normal(size=(3, 4))),
        "roi": Tensor(rng.normal(size=(3, 12))),
    }
    same = {k: Tensor(v.data.copy()) for k, v in feats.items()}
    assert loss_mmd(feats, same).item() == 0.0
    assert loss_mmd(feats, {}).item() == 0.0


def test_loss_mmd_region_level_matches_oracle_sum():
    rng = np.random.default_rng(8)
    shapes = {"b": (2, 4), "e": (2, 4), "roi": (2, 12)}
    src = {k: Tensor(rng.normal(size=shape)) for k, shape in shapes.items()}
    tgt = {k: Tensor(rng.normal(size=shape)) for k, shape in shapes.items()}
    expected = sum(oracle_mmd(src[k].data, tgt[k].data) for k in ("b", "e", "roi"))
    assert loss_mmd(src, tgt).item() == pytest.approx(expected, abs=1e-10)


def test_loss_mmd_cell_level_by_type():
    rng = np.random.default_rng(9)
    a_src = rng.normal(size=(3, 4)); a_tgt = rng.normal(size=(2, 4))
    o_src = rng.normal(size=(2, 4)); o_tgt = rng.normal(size=(2, 4))
    src = {1: Tensor(a_src), 2: Tensor(o_src), 3: Tensor(rng.normal(size=(2, 4)))}
    tgt = {1: Tensor(a_tgt), 2: Tensor(o_tgt), 5: Tensor(rng.normal(size=(1, 4)))}
    out = loss_mmd(src, tgt)
    expected = oracle_mmd(a_src, a_tgt) + oracle_mmd(o_src, o_tgt)  # types 3, 5 skipped
    assert out.item() == pytest.approx(expected, abs=1e-10)
    only_a = loss_mmd({1: Tensor(a_src)}, {1: Tensor(a_tgt)})
    assert only_a.item() == pytest.approx(oracle_mmd(a_src, a_tgt), abs=1e-12)
    identical = loss_mmd(src, {k: Tensor(v.data.copy()) for k, v in src.items()})
    assert identical.item() == 0.0


def test_total_loss_arithmetic_and_linearity():
    val = total_loss(Tensor(1.0), Tensor(0.5), Tensor(2.0), alpha=1.0, beta=0.005)
    assert val.item() == pytest.approx(1.51, rel=1e-12)
    assert total_loss(Tensor(1.0), Tensor(9.0), Tensor(9.0), 0.0, 0.0).item() == 1.0
    a1 = total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.0), 0.3, 0.0).item()
    a2 = total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.0), 0.6, 0.0).item()
    assert a2 - a1 == pytest.approx(0.3 * 2.0, rel=1e-12)


def test_breakdown_invariants():
    bd = LossBreakdown(l_rpn=0.25, l_rpc=0.5, l_sup=0.75, l_uns=0.1, l_mmd=0.5, total=0.8525)
    assert bd.l_sup == bd.l_rpn + bd.l_rpc
