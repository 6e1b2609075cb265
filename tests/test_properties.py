"""Property tests (hypothesis, derandomized): the ``####`` line codec round
trip (or its refusal), parse failures that are always ``ParseError``, and the bit-exact
checkpoint round trip."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablemt.checkpoint import load_checkpoint, save_checkpoint
from tablemt.corpus import (
    LabeledSentence,
    ParseError,
    Polarity,
    Sentence,
    Span,
    Triplet,
    parse_aste_line,
    serialize_aste_line,
)
from tablemt.detector import Mode
from tablemt.encoder import EncoderConfig
from tablemt.model import init_params
from tablemt.trainer import ABLATIONS, Checkpoint, TrainConfig, Variant

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Token characters: no separators and no control characters (neither splits
# a token nor joins one).  '#' is drawn often, so some texts would merge with
# the '####' separator.
TOKENS = st.text(
    st.one_of(st.characters(blacklist_categories=("Z", "C")), st.just("#")),
    min_size=1, max_size=6,
)


@st.composite
def labeled_sentences(draw):
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=10))
    n = len(tokens)

    def span():
        start = draw(st.integers(0, n - 1))
        return Span(start, draw(st.integers(start, n - 1)))

    triplets = []
    for _ in range(draw(st.integers(0, 4))):
        t = Triplet(span(), span(), draw(st.sampled_from(Polarity)))
        if t not in triplets:
            triplets.append(t)
    return LabeledSentence(Sentence(tuple(tokens)), tuple(triplets))


@PROPERTY
@given(labeled_sentences())
def test_line_codec_round_trips(ls):
    """Every record round-trips, or serializing it raises ValueError; it is
    refused only where the plain line would not parse back."""
    try:
        line = serialize_aste_line(ls)
    except ValueError as exc:
        assert "would not split back" in str(exc)
        with pytest.raises(ParseError):
            parse_aste_line(" ".join(ls.sentence.tokens) + "####[]")
        return
    assert "\n" not in line
    assert parse_aste_line(line) == ls


INDEX = st.one_of(st.integers(-3, 6), st.booleans(), st.floats(-2, 6), st.none())
INDEX_LIST = st.one_of(
    st.builds(lambda lo, k: list(range(lo, lo + k)), st.integers(-3, 4), st.integers(1, 3)),
    st.lists(INDEX, max_size=3),
)
ENTRY = st.tuples(INDEX_LIST, INDEX_LIST, st.sampled_from(["POS", "NEU", "NEG", "GOOD", 1]))
LABELS = st.one_of(
    st.lists(ENTRY, min_size=1, max_size=3).map(repr),
    st.lists(st.one_of(ENTRY, INDEX_LIST, INDEX), max_size=3).map(repr),
    st.text(max_size=40),
)


@PROPERTY
@given(LABELS)
def test_any_label_text_parses_or_raises_parse_error(label):
    """Free text and near-valid triplet lists (negative, bool, float or
    missing indices, unknown polarities) either parse or raise ParseError."""
    try:
        ls = parse_aste_line("a b c d####" + label)
    except ParseError:
        return
    for t in ls.triplets:
        assert 0 <= t.aspect.start <= t.aspect.end < 4
        assert 0 <= t.opinion.start <= t.opinion.end < 4


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def checkpoints(draw):
    unit = st.floats(0.01, 0.99)
    enc = EncoderConfig(
        d=draw(st.sampled_from([4, 6, 8])), layers=draw(st.integers(1, 2)),
        vocab_buckets=draw(st.integers(2, 16)), window=draw(st.integers(0, 2)),
        max_n=draw(st.integers(1, 8)),
    )
    cfg = TrainConfig(
        alpha=draw(st.floats(0, 1e6)), beta=draw(st.floats(0, 1e6)), ema_lambda=draw(unit),
        eta=draw(unit), kappa=draw(unit), aug_rate=draw(unit), batch=draw(st.integers(1, 9)),
        epochs=draw(st.integers(0, 9)), lr=draw(st.floats(1e-9, 1.0)),
        seed=draw(st.integers(0, 2**32)), mode=draw(st.sampled_from(Mode)),
        variant=draw(st.sampled_from(Variant)),
        ablations=draw(st.frozensets(st.sampled_from(ABLATIONS))), encoder=enc,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    student, teacher = (init_params(enc, cfg.mode, rng) for _ in range(2))
    name = draw(st.sampled_from(sorted(student)))
    flat = student[name].reshape(-1)
    flat[: 4] = draw(st.lists(FINITE, min_size=min(4, flat.size), max_size=min(4, flat.size)))
    history = [{"epoch": i + 1, "loss": draw(FINITE)} for i in range(draw(st.integers(0, 2)))]
    return Checkpoint(cfg, student, teacher, draw(st.integers(0, len(history))), history)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(checkpoints())
def test_checkpoint_round_trip_is_bit_exact(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        again = Path(tmp) / "again.bin"
        save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()
    assert loaded.config == ckpt.config
    assert (loaded.epoch, loaded.history) == (ckpt.epoch, ckpt.history)
    for saved, got in ((ckpt.student, loaded.student), (ckpt.teacher, loaded.teacher)):
        assert list(got) == sorted(saved)
        for k in saved:
            assert got[k].dtype == np.float64 and got[k].shape == saved[k].shape
            assert got[k].tobytes() == saved[k].tobytes()
