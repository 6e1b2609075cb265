"""Batched no-grad detection: ``predict_batch`` and the teacher's
``pseudo_labels`` encode each packed chunk of ``encoder.chunks`` once, and
must give what they give one sentence at a time."""

import numpy as np
import pytest

from tablemt import autograd as ag
from tablemt import encoder, model, tagging
from tablemt.corpus import Sentence, SynthConfig, synth_corpus
from tablemt.detector import Mode, rpn_scores
from tablemt.encoder import EncoderConfig, chunks
from tablemt.model import (NonFiniteScoreError, as_tensors, forward, init_params, predict,
                           predict_batch)
from tablemt.trainer import (TrainConfig, _self_labels, pseudo_labels, teacher_pseudo_label,
                             teacher_pseudo_label_cells)

ENC = EncoderConfig(d=8, layers=1)  # max_n 24
# the edge sentences of tools/fit_digest.py: 1, 2, 5 and 24 tokens
EDGE = [
    Sentence(("sadj0",)),
    Sentence(("snoun0", "sadj1")),
    Sentence(("it", "is", "so", "very", "fine")),
    Sentence(("the", "snoun1", "is", "very", "sadj2") + ("and", "here", "today") * 5
             + ("this", "snoun3", "was", "sadj0")),
    Sentence(("tadj0",)),
    Sentence(("the", "tnoun0")),
]


@pytest.fixture(scope="module")
def sentences() -> list[Sentence]:
    """The edge sentences between the small synth corpus' sentences, twice
    over, so the list spans several chunks."""
    data = synth_corpus(SynthConfig(seed=5, num_source=8, num_dev=4, num_target=6, num_test=4))
    synth = [ls.sentence for split in (data.source_train, data.target_unlabeled, data.target_test)
             for ls in split]
    return (EDGE[:3] + synth + EDGE[3:]) * 2


def _params(mode: Mode) -> dict:
    # at this seed target_test[3] and source_train[4] have no proposal, at
    # kappa 0.3 and 1.0 alike
    return init_params(ENC, mode, np.random.default_rng(1))


def _without_proposals(sentences, params, kappa) -> int:
    with ag.no_grad():
        params_t = as_tensors(params)
        maps = [rpn_scores(encoder.encode([s], params_t, ENC), params_t).maps([s.n])[0]
                for s in sentences]
    return sum(not forward(pb, pe, kappa).proposals for pb, pe in maps)


@pytest.mark.parametrize("kappa", [0.3, 1.0])
@pytest.mark.parametrize("mode", list(Mode))
def test_predict_batch_equals_predict_of_each_sentence(sentences, mode, kappa):
    params = _params(mode)
    parts = chunks(sentences, ENC)
    assert len(parts) > 1 and sum(s.n for s in sentences) > encoder._CHUNK_TOKENS
    assert _without_proposals(sentences, params, kappa) > 0
    batched = predict_batch(sentences, params, ENC, mode, kappa)
    alone = [predict(s, params, ENC, mode, kappa) for s in sentences]
    assert batched == alone
    assert sum(map(len, alone)) > 0
    assert predict_batch([], params, ENC, mode, kappa) == []


# What ``predict`` keeps between calls: token hashes, window-mean matrices
# and decoded spans, beside the packing tables.
CACHES = (encoder.fnv1a64, encoder._window_mean_matrix, tagging._span, ag.packing)


@pytest.mark.parametrize("mode", list(Mode))
def test_predictions_do_not_depend_on_what_the_caches_hold(sentences, mode):
    params = _params(mode)
    forward_order = predict_batch(sentences, params, ENC, mode, 1.0)
    for cache in CACHES:
        cache.cache_clear()
    backward_order = predict_batch(sentences[::-1], params, ENC, mode, 1.0)
    assert len(sentences) == 48 and sum(map(len, forward_order)) > 0
    assert backward_order[::-1] == forward_order
    assert all(cache.cache_info().currsize > 0 for cache in CACHES)


@pytest.mark.parametrize("name", ["cls_w", "emb", "tab_w", "rpn_e_b", "rpn_b_w"])
def test_non_finite_params_fail_a_batch(sentences, name):
    """Both no-grad callers of ``model.detect``: prediction and the teacher."""
    params = _params(Mode.ASTE)
    params[name][...] = np.nan
    with pytest.raises(NonFiniteScoreError):
        predict_batch(sentences, params, ENC, Mode.ASTE, 1.0)
    with pytest.raises(NonFiniteScoreError):
        pseudo_labels(params, sentences, TrainConfig(encoder=ENC), teacher_pseudo_label)


@pytest.mark.parametrize("at", [0, 7, -1])
def test_an_over_length_sentence_anywhere_fails_before_any_encode(sentences, monkeypatch, at):
    batch = list(sentences)
    batch.insert(at if at >= 0 else len(batch), Sentence(tuple(f"w{i}" for i in range(25))))
    monkeypatch.setattr(model, "encode", None)  # calling it would raise TypeError
    with pytest.raises(ValueError, match="sentence length 25 exceeds max_n=24"):
        predict_batch(batch, _params(Mode.ASTE), ENC, Mode.ASTE, 0.3)


def _label_bytes(per_sentence) -> list:
    return [[(pl.rect(), pl.confidence, pl.probs.tobytes()) for pl in labels]
            for labels in per_sentence]


def test_self_labels_in_chunks_equal_each_sentence_alone(sentences):
    cfg = TrainConfig(eta=0.3, encoder=ENC)
    params = _params(cfg.mode)
    assert len(chunks(sentences, ENC)) > 1
    labels = _self_labels(params, sentences, cfg)
    assert labels == [_self_labels(params, [s], cfg)[0] for s in sentences]
    assert any(labels)
    for label in (teacher_pseudo_label, teacher_pseudo_label_cells):
        chunked = _label_bytes(pseudo_labels(params, sentences, cfg, label))
        assert chunked == _label_bytes(pseudo_labels(params, [s], cfg, label)[0]
                                       for s in sentences)
        assert any(chunked)
    assert pseudo_labels(params, [], cfg, teacher_pseudo_label) == []
