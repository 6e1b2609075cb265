"""Trainable toy sentence encoder, word-pair table construction, and the
residual convolutional stack, run over several sentences as one packed map.

Token vectors come from a hash-embedding table (FNV-1a 64-bit over the UTF-8
bytes) plus a learned position table, mixed with the mean of the neighbor
embeddings inside a +-window through one affine map and tanh.  Cell (i, j)
of the table concatenates h_i, h_j, an elementwise max over the inclusive
token range between them, and the scalar bilinear form h_i^T V h_j, then
projects to d dims with tanh.  Each conv layer adds a 3x3/3x3 bottleneck
back onto its input so zero kernels give the identity map.

``encode`` takes a list of sentences through every layer at once.  Their
tokens are stacked as one (Σn, d) matrix, and their tables as one ragged
(Σn², d) map: each sentence's n² row-major cells, back to back, with no
padding.  The window mean is one block-diagonal matrix; the table's token
rows and the conv layers' 3x3 taps come from ``autograd.packing(sizes)``,
whose taps outside a sentence's own map read a zero row.  So no cell sees
another sentence, and each sentence's cells equal its encoding alone up to
the order in which BLAS sums a row of a product, which can change with the
number of rows: a one-token sentence alone is made of one-row products, and
in a long pack some rows of a few sentences are summed in another order.
Those cells move by rounding only, a few units in the last place (up to
8.9e-16 in one pack of 40 sentences of 16 to 24 tokens at d 16); short
packs are often bit-identical.  A training step encodes once per role:
the student's source and target sentences together, and the teacher's
target sentences under ``no_grad``.  The window mean and the bilinear form are (Σn)²
matrices, so pack a step's sentences, not a corpus: prediction and the
no-grad labelling of a corpus encode it in the packed chunks ``chunks``
cuts, each of at most ``_CHUNK_TOKENS`` tokens.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import Sentence

# The Σn bound of one of ``chunks``' packed maps.  Past it the (Σn)² window
# mean and bilinear form cost more than the per-call work that packing
# saves: predicting 100 synth sentences (765 tokens) took the same time at
# bounds of 128 and 256 tokens, ~45% more at 24, and at kappa 1.0 ~15% more
# at 512.
_CHUNK_TOKENS = 256

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


# Kept per token, as every encode of a sentence hashes each of its tokens.
@functools.lru_cache(maxsize=1 << 16)
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


def check_lengths(sentences: Sequence[Sentence], max_n: int, name: str = "input"
                  ) -> tuple[int, ...]:
    """Each sentence's length; ``ValueError`` names ``name``, the index and
    the length of the first sentence longer than ``max_n``."""
    sizes = tuple(s.n for s in sentences)
    for i, n in enumerate(sizes):
        if n > max_n:
            raise ValueError(f"{name} record {i}: sentence length {n} exceeds max_n={max_n}")
    return sizes


def chunks(sentences: Sequence[Sentence], cfg: EncoderConfig) -> list[list[Sentence]]:
    """``sentences`` in order, cut into runs of at most ``_CHUNK_TOKENS``
    tokens each (a longer sentence runs alone), for one ``encode`` per run.
    Every length is checked before the first run is cut, so an over-length
    sentence anywhere raises ``ValueError`` before any work."""
    out: list[list[Sentence]] = []
    total = 0
    for s, n in zip(sentences, check_lengths(sentences, cfg.max_n)):
        if not out or total + n > _CHUNK_TOKENS:
            out.append([])
            total = 0
        out[-1].append(s)
        total += n
    return out


# Kept for predict, whose sizes repeat (~4% of a one-sentence call); training hits 9 in 205.
@functools.lru_cache(maxsize=32)
def _window_mean_matrix(sizes: tuple[int, ...], window: int) -> np.ndarray:
    """Block-diagonal (Σn, Σn): A[i, j] = 1/|range| for j in [i-window,
    i+window] clipped to the sentence of token i.  Read-only, and kept for
    the last few packings, as ``autograd.packing`` keeps its tables."""
    ends = np.repeat(np.cumsum(sizes), sizes)  # one past each token's sentence
    rows = np.arange(len(ends))
    lo = np.maximum(ends - np.repeat(sizes, sizes), rows - window)
    hi = np.minimum(ends - 1, rows + window)
    inside = (rows >= lo[:, None]) & (rows <= hi[:, None])
    matrix = inside / (hi - lo + 1)[:, None]
    matrix.flags.writeable = False
    return matrix


def embed(sentences: Sequence[Sentence], params: dict[str, Tensor], cfg: EncoderConfig) -> Tensor:
    """Token representations H of every sentence, stacked: shape (Σn, d)."""
    sizes = check_lengths(sentences, cfg.max_n)
    idx = np.concatenate([token_buckets(s, cfg) for s in sentences])
    emb = params["emb"][idx]  # (Σn, d)
    u = emb + params["pos"][np.concatenate([np.arange(n) for n in sizes])]
    m = Tensor(_window_mean_matrix(sizes, cfg.window)) @ emb
    x = ag.concat([u, m], axis=1)
    return (x @ params["mix_w"] + params["mix_b"]).tanh()


def build_table(h: Tensor, sizes: Sequence[int], params: dict[str, Tensor]) -> Tensor:
    """Layer-0 relation tables of stacked tokens ``h`` from sentences of
    ``sizes``, packed: shape (Σn², d)."""
    p = ag.packing(tuple(sizes))
    ii, jj = p.ii, p.jj
    hi = h[ii]
    hj = h[jj]
    pooled = ag.range_rowmax(h, np.minimum(ii, jj), np.maximum(ii, jj) + 1)
    bilinear = ((h @ params["V"]) @ h.T)[(ii, jj)].reshape(len(ii), 1)
    x = ag.concat([hi, hj, pooled, bilinear], axis=1)
    return ((x @ params["tab_w"]) + params["tab_b"]).tanh()


def conv_stack(t0: Tensor, sizes: Sequence[int], params: dict[str, Tensor],
               cfg: EncoderConfig) -> Tensor:
    """The residual conv layers over packed tables of ``sizes``."""
    t = t0
    for layer in range(1, cfg.layers + 1):
        y = ag.conv3x3(t, params[f"conv{layer}_w1"], params[f"conv{layer}_b1"], sizes).relu()
        y = ag.conv3x3(y, params[f"conv{layer}_w2"], params[f"conv{layer}_b2"], sizes)
        t = t + y
    return t


def encode(sentences: Sequence[Sentence], params: dict[str, Tensor],
           cfg: EncoderConfig) -> Tensor:
    """Full encoder pipeline over one packed map: tokens -> H -> layer-0
    tables -> layer-L tables.  Returns the (Σn², d) map, each sentence's n²
    row-major cells back to back; an over-length sentence raises
    ``ValueError`` before any work."""
    sizes = check_lengths(sentences, cfg.max_n)
    return conv_stack(build_table(embed(sentences, params, cfg), sizes, params), sizes, params, cfg)
