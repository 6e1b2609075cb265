"""Trainable toy sentence encoder, word-pair table construction, and the
residual convolutional stack.

Token vectors come from a hash-embedding table (FNV-1a 64-bit over the UTF-8
bytes) plus a learned position table, mixed with the mean of the neighbor
embeddings inside a +-window through one affine map and tanh.  Cell (i, j)
of the table concatenates h_i, h_j, an elementwise max over the inclusive
token range between them, and the scalar bilinear form h_i^T V h_j, then
projects to d dims with tanh.  Each conv layer adds a 3x3/3x3 bottleneck
back onto its input so zero kernels give the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import Sentence

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 16
    layers: int = 2
    vocab_buckets: int = 4096
    window: int = 1
    max_n: int = 24

    def __post_init__(self):
        if self.d < 4 or self.d % 2 != 0:
            raise ValueError("d must be >= 4 and even")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.vocab_buckets < 2:
            raise ValueError("vocab_buckets must be >= 2")
        if self.window < 0 or self.max_n < 1:
            raise ValueError("window must be >= 0 and max_n >= 1")


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d = cfg.d
    # Position entries are a deliberately weaker cue than token identity, and
    # the second conv of each residual bottleneck starts at zero so the stack
    # begins as the identity map; both stabilize desk-scale training.
    params = {
        "emb": rng.normal(0.0, 0.5, size=(cfg.vocab_buckets, d)),
        "pos": rng.normal(0.0, 0.25, size=(cfg.max_n, d)),
        "mix_w": rng.normal(0.0, 1.0 / np.sqrt(2 * d), size=(2 * d, d)),
        "mix_b": np.zeros(d),
        "V": rng.normal(0.0, 1.0 / d, size=(d, d)),
        "tab_w": rng.normal(0.0, 1.0 / np.sqrt(3 * d + 1), size=(3 * d + 1, d)),
        "tab_b": np.zeros(d),
    }
    for layer in range(1, cfg.layers + 1):
        scale = 1.0 / np.sqrt(9 * d)
        params[f"conv{layer}_w1"] = rng.normal(0.0, scale, size=(3, 3, d, d))
        params[f"conv{layer}_b1"] = np.zeros(d)
        params[f"conv{layer}_w2"] = np.zeros((3, 3, d, d))
        params[f"conv{layer}_b2"] = np.zeros(d)
    return params


def token_buckets(sentence: Sentence, cfg: EncoderConfig) -> np.ndarray:
    return np.array([fnv1a64(t) % cfg.vocab_buckets for t in sentence.tokens], dtype=np.int64)


def _window_mean_matrix(n: int, window: int) -> np.ndarray:
    # A[i, j] = 1/|range| for j in [i-window, i+window] clipped to the sentence.
    a = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - window), min(n - 1, i + window)
        a[i, lo : hi + 1] = 1.0 / (hi - lo + 1)
    return a


def embed(sentence: Sentence, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Token representations H, shape (n, d)."""
    n = sentence.n
    if n > cfg.max_n:
        raise ValueError(f"sentence length {n} exceeds max_n={cfg.max_n}")
    idx = token_buckets(sentence, cfg)
    emb = params["emb"][idx]  # (n, d)
    u = emb + params["pos"][np.arange(n)]
    m = Tensor(_window_mean_matrix(n, cfg.window)) @ emb
    x = ag.concat([u, m], axis=1)
    return (x @ params["mix_w"] + params["mix_b"]).tanh()


def build_table(h: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Layer-0 relation table, shape (n, n, d)."""
    n, d = h.shape
    ii = np.repeat(np.arange(n), n)
    jj = np.tile(np.arange(n), n)
    hi = h[ii]
    hj = h[jj]
    pooled = ag.range_rowmax(h, np.minimum(ii, jj), np.maximum(ii, jj) + 1)
    bilinear = ((h @ params["V"]) @ h.T).reshape(n * n, 1)
    x = ag.concat([hi, hj, pooled, bilinear], axis=1)
    return ((x @ params["tab_w"]) + params["tab_b"]).tanh().reshape(n, n, d)


def conv_stack(t0: Tensor, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    t = t0
    for layer in range(1, cfg.layers + 1):
        y = ag.conv3x3(t, params[f"conv{layer}_w1"], params[f"conv{layer}_b1"]).relu()
        y = ag.conv3x3(y, params[f"conv{layer}_w2"], params[f"conv{layer}_b2"])
        t = t + y
    return t


def encode_sentence(sentence: Sentence, params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Full encoder pipeline: tokens -> H -> layer-0 table -> layer-L table."""
    return conv_stack(build_table(embed(sentence, params, cfg), params), params, cfg)
