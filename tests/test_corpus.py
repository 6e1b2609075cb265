"""Line-format codec, loader, and synthetic corpus generator."""

import re

import numpy as np
import pytest

from tablemt.corpus import (
    FUNCTION_WORDS,
    LabeledSentence,
    ParseError,
    Polarity,
    Sentence,
    Span,
    SynthConfig,
    Triplet,
    domain_lexicon,
    load_dataset,
    parse_aste_line,
    save_dataset,
    serialize_aste_line,
    synth_corpus,
    vocabulary,
)


def test_parse_paper_example():
    ls = parse_aste_line("The fried rice is amazing here .####[([1, 2], [4], 'POS')]")
    assert ls.sentence.tokens == ("The", "fried", "rice", "is", "amazing", "here", ".")
    assert ls.triplets == (Triplet(Span(1, 2), Span(4, 4), Polarity.POS),)


def test_parse_empty_label_list():
    ls = parse_aste_line("ok .####[]")
    assert ls.sentence.n == 2
    assert ls.triplets == ()


def test_serialize_known_form():
    ls = LabeledSentence(
        Sentence(("a", "b")), (Triplet(Span(0, 0), Span(1, 1), Polarity.NEG),)
    )
    assert serialize_aste_line(ls) == "a b####[([0], [1], 'NEG')]"
    empty = LabeledSentence(Sentence(("a", "b")), ())
    assert serialize_aste_line(empty) == "a b####[]"


@pytest.mark.parametrize(
    "line",
    [
        "no separator here",
        "a b####[([0, 2], [1], 'POS')]",  # non-contiguous
        "a b####[([0], [5], 'POS')]",  # out of range
        "a b####[([0], [1], 'GOOD')]",  # unknown polarity
        "a b####[([0], [1], 'POS')",  # unbalanced
        "####[]",  # empty sentence
        "a b####[([], [1], 'POS')]",  # empty index list
        "a b####[([-1], [1], 'POS')]",  # negative index
        "a b####[([0], [-2, -1], 'POS')]",
        "a b####[([True], [1], 'POS')]",  # bool is not an index
        "a b####[([0], [False, True], 'NEG')]",
        "a b####{[1]: 2}",  # literal_eval raises TypeError
        pytest.param("a b####" + "-" * 5000 + "1", id="deep_negation"),  # RecursionError
    ],
)
def test_parse_errors(line):
    with pytest.raises(ParseError):
        parse_aste_line(line)


def _random_labeled(rng: np.random.Generator) -> LabeledSentence:
    n = int(rng.integers(2, 12))
    vocab = [f"w{i}" for i in range(20)]
    tokens = tuple(vocab[rng.integers(len(vocab))] for _ in range(n))
    triplets = []
    for _ in range(int(rng.integers(0, 3))):
        a0 = int(rng.integers(0, n))
        a1 = int(rng.integers(a0, min(n, a0 + 2)))
        o0 = int(rng.integers(0, n))
        o1 = int(rng.integers(o0, min(n, o0 + 2)))
        pol = [Polarity.POS, Polarity.NEU, Polarity.NEG][rng.integers(3)]
        t = Triplet(Span(a0, a1), Span(o0, o1), pol)
        if t not in triplets:
            triplets.append(t)
    return LabeledSentence(Sentence(tokens), tuple(triplets))


def test_roundtrip_property_1000_random():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        ls = _random_labeled(rng)
        assert parse_aste_line(serialize_aste_line(ls)) == ls


def test_load_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    records = [_random_labeled(rng) for _ in range(3)]
    path = tmp_path / "data.txt"
    save_dataset(path, records)
    assert load_dataset(path) == records


@pytest.mark.parametrize("tokens,bad", [
    (("x", "a#"), "a#"),  # the last token's '#' joins the separator
    (("x", "b###"), "b###"),
    (("x####y", "z"), "x####y"),
    (("x", "y####"), "y####"),
])
def test_text_that_would_not_split_back_is_refused(tmp_path, tokens, bad):
    ls = LabeledSentence(Sentence(tokens), (Triplet(Span(0, 0), Span(1, 1), Polarity.POS),))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        serialize_aste_line(ls)
    path = tmp_path / "data.txt"
    with pytest.raises(ValueError):
        save_dataset(path, [LabeledSentence(Sentence(("ok",)), ()), ls])
    assert not path.exists()  # a bad record leaves nothing written


def test_loaded_line_that_would_not_split_back_is_refused():
    ls = parse_aste_line("x a# ####[([0], [1], 'POS')]")
    assert ls.sentence.tokens == ("x", "a#")
    with pytest.raises(ValueError, match="'a#'"):
        serialize_aste_line(ls)
    inner = LabeledSentence(Sentence(("a#", "x")), ls.triplets)  # '#' away from the end
    assert parse_aste_line(serialize_aste_line(inner)) == inner


def test_load_dataset_skips_blank_lines(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("a b####[]\n\n\nc d####[]\n", encoding="utf-8")
    assert len(load_dataset(path)) == 2


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("", encoding="utf-8")
    assert load_dataset(path) == []


def test_load_dataset_reports_line_number(tmp_path):
    path = tmp_path / "data.txt"
    for bad in ("broken line", "a b####[([-1], [1], 'POS')]"):
        path.write_text(f"a b####[]\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line_no == 2


def test_sentence_rejects_whitespace_tokens():
    with pytest.raises(ValueError):
        Sentence(("a b",))
    with pytest.raises(ValueError):
        Sentence(())


def test_labeled_sentence_rejects_out_of_bounds_and_duplicates():
    t = Triplet(Span(0, 0), Span(5, 5), Polarity.POS)
    with pytest.raises(ValueError):
        LabeledSentence(Sentence(("a", "b")), (t,))
    t2 = Triplet(Span(0, 0), Span(1, 1), Polarity.POS)
    with pytest.raises(ValueError):
        LabeledSentence(Sentence(("a", "b")), (t2, t2))


def test_synth_deterministic():
    cfg = SynthConfig(seed=7)
    a = synth_corpus(cfg)
    b = synth_corpus(cfg)
    assert a.source_train == b.source_train
    assert a.target_test == b.target_test
    assert a.target_unlabeled == b.target_unlabeled


def test_synth_split_sizes_and_unlabeled_are_stripped():
    cfg = SynthConfig(seed=3, num_source=8, num_dev=4, num_target=6, num_test=5)
    corpus = synth_corpus(cfg)
    assert len(corpus.source_train) == 8
    assert len(corpus.source_dev) == 4
    assert len(corpus.target_unlabeled) == 6
    assert len(corpus.target_test) == 5
    assert all(ls.triplets == () for ls in corpus.target_unlabeled)


def test_synth_spans_in_bounds_and_polarity_table_respected():
    cfg = SynthConfig(seed=11)
    corpus = synth_corpus(cfg)
    lex = domain_lexicon(cfg, "source")
    for ls in corpus.source_train + corpus.source_dev:
        n = ls.sentence.n
        for t in ls.triplets:
            assert t.aspect.end < n and t.opinion.end < n
            opinion_word = ls.sentence.tokens[t.opinion.start]
            assert lex.polarity_of[opinion_word] == t.polarity


def test_synth_domains_disjoint():
    cfg = SynthConfig(seed=2)
    corpus = synth_corpus(cfg)
    tgt_lex = domain_lexicon(cfg, "target")
    content = set(tgt_lex.aspects) | set(tgt_lex.opinions)
    source_vocab = set(vocabulary(corpus.source_train + corpus.source_dev))
    assert source_vocab & content == set()
    src_lex = domain_lexicon(cfg, "source")
    assert (set(src_lex.aspects) | set(src_lex.opinions)) & content == set()
    # shared function words are the only overlap between the domains
    tgt_vocab = set(vocabulary(corpus.target_test))
    assert source_vocab & tgt_vocab <= set(FUNCTION_WORDS)


def test_synth_rejects_exhausted_lexicon():
    with pytest.raises(ValueError):
        SynthConfig(num_aspects=3)
