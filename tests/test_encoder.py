"""Toy encoder, table construction, conv stack, and the gradient contract."""

import numpy as np
import pytest

from tablemt import autograd as ag
from tablemt.autograd import Tensor
from tablemt.corpus import Sentence
from tablemt.encoder import (
    EncoderConfig,
    _CHUNK_TOKENS,
    _window_mean_matrix,
    build_table,
    chunks,
    conv_stack,
    embed,
    encode,
    fnv1a64,
    init_encoder_params,
    token_buckets,
)

CFG = EncoderConfig(d=8, layers=2, vocab_buckets=128, max_n=10)


def _params(seed=0, cfg=CFG):
    return init_encoder_params(cfg, np.random.default_rng(seed))


def _tensors(params):
    return {k: Tensor(v) for k, v in params.items()}


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(d=3)
    with pytest.raises(ValueError):
        EncoderConfig(d=6, layers=0)
    with pytest.raises(ValueError):
        EncoderConfig(vocab_buckets=1)


def test_fnv1a64_is_the_published_hash():
    # Reference values of 64-bit FNV-1a
    assert fnv1a64("") == 14695981039346656037
    assert fnv1a64("a") == 12638187200555641996


def _fnv1a64_uncached(token):
    h = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


@pytest.mark.parametrize("tokens", [
    ("the", "fried", "rice", "is", "amazing", "snoun3", "AT&T", "x_1"),  # ASCII
    ("café", "naïve", "日本語", "😀", "Ж", "e\u0301"),  # non-ASCII
    ("a", "Z", "0", ".", "\x00", "\x7f"),  # one byte each
])
def test_fnv1a64_cache_returns_the_uncached_hash(tokens):
    fnv1a64.cache_clear()
    for _ in range(2):  # a miss, then a hit
        assert [fnv1a64(t) for t in tokens] == [_fnv1a64_uncached(t) for t in tokens]
    assert fnv1a64.cache_info().hits == len(set(tokens))
    assert fnv1a64.cache_info().maxsize is not None


def _window_mean_loop(sizes, window):
    """A[i, j] = 1/|range| over token i's +-window range inside its sentence."""
    total = sum(sizes)
    a = np.zeros((total, total))
    start = 0
    for n in sizes:
        for i in range(n):
            lo, hi = max(0, i - window), min(n - 1, i + window)
            a[start + i, start + lo : start + hi + 1] = 1.0 / (hi - lo + 1)
        start += n
    return a


@pytest.mark.parametrize("window", [0, 1, 2, 24, 50])
@pytest.mark.parametrize("sizes", [(1,), (1, 1, 1), (3, 1, 24, 1), (5, 1, 2), (24,)])
def test_window_mean_matrix_cache_equals_a_fresh_build(sizes, window):
    _window_mean_matrix.cache_clear()
    cached = _window_mean_matrix(sizes, window)
    assert _window_mean_matrix(sizes, window) is cached
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 2.0
    fresh = _window_mean_matrix.__wrapped__(sizes, window)
    assert cached.dtype == fresh.dtype and cached.tobytes() == fresh.tobytes()
    np.testing.assert_array_equal(cached, _window_mean_loop(sizes, window))
    assert _window_mean_matrix.cache_info().maxsize is not None


def test_embed_shape_and_determinism():
    sent = Sentence(("a", "b", "c", "d", "e"))
    cfg16 = EncoderConfig(d=16, layers=1, vocab_buckets=64, max_n=8)
    p = _tensors(init_encoder_params(cfg16, np.random.default_rng(1)))
    h1 = embed([sent], p, cfg16)
    h2 = embed([sent], p, cfg16)
    assert h1.shape == (5, 16)
    assert np.array_equal(h1.data, h2.data)


def test_embed_position_disambiguates_identical_tokens():
    sent = Sentence(("x", "x", "x"))
    p = _tensors(_params())
    h = embed([sent], p, CFG)
    assert not np.allclose(h.data[0], h.data[1])
    assert not np.allclose(h.data[1], h.data[2])


def test_embed_rejects_long_sentence():
    sent = Sentence(tuple(f"w{i}" for i in range(CFG.max_n + 1)))
    with pytest.raises(ValueError):
        embed([sent], _tensors(_params()), CFG)


def test_token_buckets_in_range():
    sent = Sentence(("alpha", "beta", "gamma"))
    idx = token_buckets(sent, CFG)
    assert ((0 <= idx) & (idx < CFG.vocab_buckets)).all()


def test_build_table_diagonal_pool_equals_row():
    p = _tensors(_params())
    h = embed([Sentence(("a", "b", "c"))], p, CFG)
    ii = np.array([0, 1, 2])
    pooled = ag.range_rowmax(h, ii, ii + 1)
    assert np.allclose(pooled.data, h.data)


def test_build_table_bilinear_slot_constant_when_v_and_w_zeroed():
    params = _params()
    params["V"][:] = 0.0
    params["tab_w"][:] = 0.0
    # only the bilinear input row of the projection is (potentially) nonzero
    params["tab_w"][3 * CFG.d, :] = 1.0
    p = _tensors(params)
    h = embed([Sentence(("a", "b", "c"))], p, CFG)
    t0 = build_table(h, [3], p)
    expected = np.tanh(params["tab_b"])
    assert np.allclose(t0.data, expected[None, None, :])


def test_build_table_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, 4))
    ii = np.repeat(np.arange(6), 6)
    jj = np.tile(np.arange(6), 6)
    pooled = ag.range_rowmax(Tensor(h), np.minimum(ii, jj), np.maximum(ii, jj) + 1)
    for r, (i, j) in enumerate(zip(ii, jj)):
        lo, hi = min(i, j), max(i, j)
        direct = np.array([h[lo : hi + 1, k].max() for k in range(4)])
        assert np.allclose(pooled.data[r], direct)


def test_table_asymmetric_in_general_symmetric_for_equal_rows():
    params = _params()
    p = _tensors(params)
    h = embed([Sentence(("a", "b", "c"))], p, CFG)
    t0 = build_table(h, [3], p).reshape(3, 3, CFG.d)
    assert not np.allclose(t0.data[0, 2], t0.data[2, 0])
    # force two equal rows: t_ij == t_ji when h_i == h_j
    h_eq = Tensor(np.vstack([h.data[0], h.data[0], h.data[2]]))
    t_eq = build_table(h_eq, [3], p).reshape(3, 3, CFG.d)
    assert np.allclose(t_eq.data[0, 1], t_eq.data[1, 0])


def test_conv_stack_zero_kernels_is_identity():
    params = _params()
    for layer in (1, 2):
        params[f"conv{layer}_w1"][:] = 0.0
        params[f"conv{layer}_b1"][:] = 0.0
        params[f"conv{layer}_w2"][:] = 0.0
        params[f"conv{layer}_b2"][:] = 0.0
    p = _tensors(params)
    rng = np.random.default_rng(0)
    t0 = Tensor(rng.normal(size=(4, 4, CFG.d)))
    out = conv_stack(t0, [4], p, CFG)
    assert np.array_equal(out.data, t0.data)


def test_conv_stack_shape_invariance_and_finiteness():
    p = _tensors(_params(seed=5))
    for n in (1, 3, 7):
        sent = Sentence(tuple(f"w{i}" for i in range(n)))
        tl = encode([sent], p, CFG)
        assert tl.shape == (n * n, CFG.d)
        assert np.isfinite(tl.data).all()


def _encoder_grad(sentence, params, upstream):
    """Parameter gradients of sum(T_L * upstream) for every encoder parameter."""
    tensors = _tensors(params)
    (encode([sentence], tensors, CFG) * Tensor(upstream.reshape(-1, CFG.d))).sum().backward()
    return {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in tensors.items()
    }


def test_encoder_grad_matches_finite_differences():
    params = _params(seed=7)
    sent = Sentence(("the", "snoun", "is", "sadj"))
    rng = np.random.default_rng(11)
    upstream = rng.normal(size=(4, 4, CFG.d))
    grads = _encoder_grad(sent, params, upstream)

    def loss(p):
        tl = encode([sent], _tensors(p), CFG)
        return float((tl.data.reshape(upstream.shape) * upstream).sum())

    eps = 1e-3
    for name, g in grads.items():
        if g.size == 0 or np.abs(g).max() == 0:
            continue
        idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        mod = {k: v.copy() for k, v in params.items()}
        mod[name][idx] += eps
        f_plus = loss(mod)
        mod[name][idx] -= 2 * eps
        f_minus = loss(mod)
        fd = (f_plus - f_minus) / (2 * eps)
        assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1.0) < 1e-4, name


def test_encoder_grad_zero_upstream():
    params = _params()
    sent = Sentence(("a", "b"))
    grads = _encoder_grad(sent, params, np.zeros((2, 2, CFG.d)))
    assert all(np.allclose(g, 0.0) for g in grads.values())


def test_residual_path_passes_gradient_with_zero_kernels():
    params = _params()
    for layer in (1, 2):
        params[f"conv{layer}_w1"][:] = 0.0
        params[f"conv{layer}_w2"][:] = 0.0
    p = _tensors(params)
    t0 = Tensor(np.random.default_rng(1).normal(size=(3, 3, CFG.d)))
    out = conv_stack(t0, [3], p, CFG)
    out.sum().backward()
    assert np.allclose(t0.grad, 1.0)  # identity pass-through


PACK_CFG = EncoderConfig(d=16, layers=2, vocab_buckets=128, max_n=24)
# every length from 1 to max_n, in mixed-length batches
PACK_BATCHES = [(1, 24, 7), (3, 1, 1, 12, 2), (24, 16, 5, 9), (2, 11, 4, 24, 1, 8, 17)]


def _pack_params(seed):
    params = init_encoder_params(PACK_CFG, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    for layer in (1, 2):  # training starts these at zero; make the second convs act
        params[f"conv{layer}_w2"] = rng.normal(0.0, 0.1, size=params[f"conv{layer}_w2"].shape)
    return params


def _sentences(lengths, rng):
    return [Sentence(tuple(f"w{rng.integers(40)}" for _ in range(n))) for n in lengths]


def _grads(tensors):
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for k, t in tensors.items()}


@pytest.mark.parametrize("lengths", PACK_BATCHES, ids=lambda b: "-".join(map(str, b)))
def test_packed_tables_equal_one_sentence_encodings(lengths):
    rng = np.random.default_rng(len(lengths))
    params = _pack_params(len(lengths))
    sentences = _sentences(lengths, rng)
    upstream = [rng.normal(size=(n, n, PACK_CFG.d)) for n in lengths]

    packed_t = _tensors(params)
    packed = encode(sentences, packed_t, PACK_CFG)
    (packed * Tensor(np.concatenate([u.reshape(-1, PACK_CFG.d) for u in upstream]))).sum().backward()
    bounds = np.cumsum([0] + [n * n for n in lengths])
    tables = [packed.data[lo:hi].reshape(n, n, PACK_CFG.d)
              for lo, hi, n in zip(bounds, bounds[1:], lengths)]

    alone_grads = {k: np.zeros_like(v) for k, v in params.items()}
    for sentence, tl, u in zip(sentences, tables, upstream):
        alone_t = _tensors(params)
        n = sentence.n
        alone = encode([sentence], alone_t, PACK_CFG)
        if n > 1:
            np.testing.assert_array_equal(tl, alone.data.reshape(n, n, PACK_CFG.d))
        else:
            # A one-token sentence alone makes one-row products, which numpy
            # hands to BLAS gemv; in a pack its rows go through gemm, which
            # sums in another order.
            np.testing.assert_allclose(tl, alone.data.reshape(1, 1, -1), rtol=0, atol=1e-15)
        (alone * Tensor(u.reshape(n * n, -1))).sum().backward()
        for k, g in _grads(alone_t).items():
            alone_grads[k] += g
    for k, g in _grads(packed_t).items():
        np.testing.assert_allclose(g, alone_grads[k], rtol=1e-12, atol=1e-12, err_msg=k)


# A packed cell's largest gap to its lone encoding, from BLAS summing a row in
# another order: the long pack below reads up to 8.9e-16 (4 units in the last
# place of a value near 1; the tables stay within +-2.7).
LONG_PACK_ATOL = 1e-14


def test_a_long_pack_equals_one_sentence_encodings_up_to_rounding():
    """Bit-for-bit equality holds for the short packs above, not for every
    pack: on a long pack BLAS may sum some rows of a packed product in
    another order than the lone encoding does, so a few cells of a few
    sentences move by rounding.  Here 40 sentences of 16 to 24 tokens, ~800
    tokens in one pack at d 16, must stay within ``LONG_PACK_ATOL``."""
    rng = np.random.default_rng(40)
    lengths = rng.integers(16, PACK_CFG.max_n + 1, size=40)
    params = _tensors(_pack_params(40))
    sentences = _sentences(lengths, rng)
    packed = encode(sentences, params, PACK_CFG).data
    bounds = np.cumsum([0] + [n * n for n in lengths])
    for sentence, lo, hi in zip(sentences, bounds, bounds[1:]):
        alone = encode([sentence], params, PACK_CFG).data
        np.testing.assert_allclose(packed[lo:hi], alone, rtol=0, atol=LONG_PACK_ATOL)


def test_pack_with_an_over_length_sentence_fails_before_any_encoding():
    rng = np.random.default_rng(0)
    sentences = _sentences([3, CFG.max_n, 2, CFG.max_n + 1], rng)
    # empty parameters: any encoding work would raise KeyError first
    with pytest.raises(ValueError, match=f"sentence length {CFG.max_n + 1} exceeds max_n"):
        encode(sentences, {}, CFG)


def test_chunks_cut_runs_of_at_most_the_bound_in_order():
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, PACK_CFG.max_n + 1, size=60)
    sentences = _sentences(lengths, rng)
    parts = chunks(sentences, PACK_CFG)
    assert [s for part in parts for s in part] == sentences
    totals = [sum(s.n for s in part) for part in parts]
    assert len(parts) > 1 and max(totals) <= _CHUNK_TOKENS
    # each run is cut only where its next sentence would cross the bound
    assert all(t + part[0].n > _CHUNK_TOKENS for t, part in zip(totals, parts[1:]))
    assert chunks([], PACK_CFG) == []


def test_chunks_give_a_sentence_over_the_bound_its_own_run():
    cfg = EncoderConfig(d=8, layers=1, vocab_buckets=128, max_n=_CHUNK_TOKENS + 1)
    rng = np.random.default_rng(4)
    sentences = _sentences([3, _CHUNK_TOKENS + 1, 2, 5], rng)
    assert chunks(sentences, cfg) == [sentences[:1], sentences[1:2], sentences[2:]]


def test_chunks_check_every_length_before_the_first_run():
    rng = np.random.default_rng(0)
    sentences = _sentences([3] * 100 + [CFG.max_n + 1], rng)
    with pytest.raises(ValueError, match=f"sentence length {CFG.max_n + 1} exceeds max_n"):
        chunks(sentences, CFG)
