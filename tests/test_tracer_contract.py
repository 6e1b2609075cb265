"""The benchmark tracer (benchmarks/tracer.py) wraps tablemt from outside by
module, function and argument name; a refactor that renames any of them
breaks ``benchmarks/run.py --trace 1``.  This runs a tiny traced fit,
predict and checkpoint round trip and checks that every wrapped name exists
and every work counter the tracer derives from bound arguments moves."""

import importlib.util
import sys
from pathlib import Path

import tablemt.cli  # noqa: F401  (the tracer wraps names in every tablemt module)
from tablemt import checkpoint, model, trainer
from tablemt.corpus import SynthConfig, synth_corpus
from tablemt.encoder import EncoderConfig
from tablemt.tagging import encode_region_labels

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tablemt_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_fit_predict_and_checkpoint_round_trip(tmp_path):
    tracer_mod = _load_tracer()
    for mod, attr, _span in tracer_mod._SPANS + tracer_mod._LOCAL_SPANS:
        assert hasattr(sys.modules[f"tablemt.{mod}"], attr), f"tablemt.{mod}.{attr}"

    data = synth_corpus(SynthConfig(seed=5, num_source=8, num_dev=4, num_target=6, num_test=4))
    cfg = trainer.TrainConfig(
        epochs=1, batch=2, eta=0.2, seed=0,
        encoder=EncoderConfig(d=8, layers=1, vocab_buckets=256, max_n=16),
    )
    original_step = trainer.train_step
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ckpt, _ = trainer.fit(data, cfg)
        for ls in data.target_test:
            model.predict(ls.sentence, ckpt.student, cfg.encoder, cfg.mode, cfg.kappa)
        path = tmp_path / "model.bin"
        checkpoint.save_checkpoint(path, ckpt)
        checkpoint.load_checkpoint(path)
    finally:
        tracer.uninstall()
    assert trainer.train_step is original_step

    for name in ("gold", "proposals", "pseudo_scored", "decoded", "checkpoint_bytes"):
        assert tracer.counts[name] > 0, name
    # the gold hook fires only when match_gold reads the proposals of the
    # forward that ran just before it, so every source sentence of the
    # pretraining epoch and of the student epoch has to run forward then
    # match_gold, one sentence at a time
    gold_rects = sum(len({g.rect() for g in encode_region_labels(ls)[1]})
                     for ls in data.source_train)
    assert tracer.counts["gold"] == 2 * gold_rects
    for span in ("losses.match_gold", "trainer.teacher_pseudo_label", "model.predict",
                 "trainer.eval", "checkpoint.save", "checkpoint.load"):
        assert tracer.calls[span] > 0, span
    metrics = tracer.metrics()
    assert metrics["detector.proposals_per_sentence"][0] > 0
    # the tracer files backward closures by the qualname of the op that
    # defines them; every named op a fit runs must keep its own line in the
    # split, and the ops without one (the ``_unary`` family) fall to ``other``
    for kind in ("getitem", "conv3x3", "mul", "add", "concat", "sum", "range_rowmax", "matmul",
                 "other"):
        assert metrics[f"autograd.op.{kind}.calls"][0] > 0, kind


def test_tracer_counts_one_teacher_pretraining_per_ablate_seed(tmp_path):
    """``tablemt ablate`` pretrains each seed's teacher once and hands it to
    every row's fit; the tracer must see those pretrainings, so the CLI has
    to reach ``pretrain_teacher`` through a name the tracer wraps."""
    from tablemt import cli

    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "3", "--num-source", "6",
                     "--num-dev", "3", "--num-target", "4", "--num-test", "3"]) == cli.EXIT_OK
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["ablate", "--data", str(data), "--out", str(tmp_path / "out"),
                         "--seeds", "1,2", "--epochs", "1", "--d", "8", "--layers", "1"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert tracer.calls["trainer.pretrain_teacher"] == 2
    assert tracer.calls["cli.fit"] == 10
