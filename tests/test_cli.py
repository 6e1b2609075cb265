"""CLI subcommands: determinism, file outputs, exit codes."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tablemt.cli as cli
import tablemt.trainer as trainer
from tablemt.checkpoint import load_checkpoint
from tablemt.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, FILE_ONLY_KEYS, TRAIN_KEYS, main
from tablemt.detector import Mode
from tablemt.gradcheck import run_gradcheck
from tablemt.trainer import TrainConfig, Variant


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    assert main([
        "synth", "--out", str(out), "--seed", "3",
        "--num-source", "12", "--num-dev", "6", "--num-target", "8", "--num-test", "6",
    ]) == EXIT_OK
    return out


TINY_TRAIN = ["--epochs", "2", "--d", "8", "--layers", "1", "--eta", "0.3"]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir) -> Path:
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(corpus_dir), "--out", str(out), "--seed", "1"] + TINY_TRAIN)
    assert code == EXIT_OK
    return out


def test_synth_rerun_byte_identical(tmp_path, corpus_dir):
    again = tmp_path / "again"
    main([
        "synth", "--out", str(again), "--seed", "3",
        "--num-source", "12", "--num-dev", "6", "--num-target", "8", "--num-test", "6",
    ])
    assert dir_bytes(again) == dir_bytes(corpus_dir)


def test_synth_refuses_overwrite_without_force(tmp_path):
    out = tmp_path / "c"
    small = ["--num-source", "4", "--num-dev", "2", "--num-target", "3", "--num-test", "2"]
    assert main(["synth", "--out", str(out), "--seed", "1"] + small) == EXIT_OK
    before = dir_bytes(out)
    assert main(["synth", "--out", str(out), "--seed", "2"] + small) == EXIT_USAGE
    assert dir_bytes(out) == before
    assert main(["synth", "--out", str(out), "--seed", "2", "--force"] + small) == EXIT_OK
    assert dir_bytes(out) != before


@pytest.mark.parametrize("flag,value,field", [("--num-source", "0", "num_source"),
                                              ("--num-aspects", "3", "num_aspects"),
                                              ("--seed", "-1", "seed")])
def test_synth_bad_value_is_a_usage_error_naming_its_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), flag, value]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and field in err
    assert not out.exists()


def test_synth_counts_match_flags(corpus_dir):
    lines = (corpus_dir / "source_train.txt").read_text().strip().splitlines()
    assert len(lines) == 12
    assert len((corpus_dir / "target_test.txt").read_text().strip().splitlines()) == 6


def test_synth_disjoint_lexicons(corpus_dir):
    from tablemt.corpus import FUNCTION_WORDS, load_dataset, vocabulary

    src = set(vocabulary(load_dataset(corpus_dir / "source_train.txt")))
    tgt = set(vocabulary(load_dataset(corpus_dir / "target_test.txt")))
    assert src & tgt <= set(FUNCTION_WORDS)


def test_train_outputs_and_rerun_determinism(tmp_path, corpus_dir, trained_dir):
    metrics = read_csv(trained_dir / "metrics_tfmt_seed1.csv")
    assert metrics[0] == ["epoch", "step", "l_rpn", "l_rpc", "l_sup", "l_uns", "l_mmd",
                          "total", "dev_f1", "test_f1"]
    assert len(metrics) == 3  # header + 2 epochs
    assert (trained_dir / "summary.csv").exists()
    assert (trained_dir / "checkpoint_tfmt_seed1.bin").exists()

    rerun = tmp_path / "rerun"
    assert main(["train", "--data", str(corpus_dir), "--out", str(rerun), "--seed", "1"]
                + TINY_TRAIN) == EXIT_OK
    assert dir_bytes(rerun) == dir_bytes(trained_dir)


def test_train_refuses_overwrite_without_force(corpus_dir, trained_dir):
    code = main(["train", "--data", str(corpus_dir), "--out", str(trained_dir), "--seed", "1"]
                + TINY_TRAIN)
    assert code == EXIT_USAGE


def test_train_multi_seed_summary_mean(tmp_path, corpus_dir):
    out = tmp_path / "multi"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out),
                 "--seeds", "1,2", "--variant", "source_only"] + TINY_TRAIN) == EXIT_OK
    assert (out / "metrics_source_only_seed1.csv").exists()
    assert (out / "metrics_source_only_seed2.csv").exists()
    header, row = read_csv(out / "summary.csv")
    # recompute the mean from the per-seed logs: test_f1 at the first dev argmax
    finals = []
    for seed in (1, 2):
        rows = read_csv(out / f"metrics_source_only_seed{seed}.csv")[1:]
        devs = [float(r[8]) for r in rows]
        finals.append(float(rows[int(np.argmax(devs))][9]))
    assert float(row[header.index("mean_test_f1")]) == pytest.approx(np.mean(finals), abs=1e-12)


def test_train_config_file_and_flag_precedence(tmp_path, corpus_dir):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epochs = 1\nd = 8\nlayers = 1\neta = 0.3\n# comment\n")
    out = tmp_path / "cfgrun"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out),
                 "--config", str(cfgfile), "--seed", "4"]) == EXIT_OK
    ckpt = load_checkpoint(out / "checkpoint_tfmt_seed4.bin")
    assert ckpt.config.epochs == 1
    assert ckpt.config.encoder.d == 8
    out2 = tmp_path / "cfgrun2"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out2),
                 "--config", str(cfgfile), "--seed", "4", "--epochs", "2"]) == EXIT_OK
    assert load_checkpoint(out2 / "checkpoint_tfmt_seed4.bin").config.epochs == 2


@pytest.mark.parametrize("line", ["seed = 5", "epoch = 7"])
def test_train_rejects_unknown_config_key(tmp_path, corpus_dir, capsys, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"d = 8\n{line}\n")
    out = tmp_path / "cfgrun"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out),
                 "--config", str(cfgfile)] + TINY_TRAIN) == EXIT_USAGE
    assert repr(line.split()[0]) in capsys.readouterr().err
    assert not list(out.glob("metrics_*.csv"))


def test_train_rejects_repeated_config_key(tmp_path, corpus_dir, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 1\nd = 8\nalpha = 0.25\n")
    out = tmp_path / "cfgrun"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out),
                 "--config", str(cfgfile)] + TINY_TRAIN) == EXIT_USAGE
    assert "config key 'alpha' is repeated" in capsys.readouterr().err
    assert not out.exists()


# Flag key -> (value on the command line, config field, parsed value); every
# value differs from the field's default.
FLAG_VALUES = {
    "alpha": ("0.5", "alpha", 0.5), "beta": ("0.25", "beta", 0.25),
    "lambda": ("0.7", "ema_lambda", 0.7), "eta": ("0.5", "eta", 0.5),
    "kappa": ("0.5", "kappa", 0.5), "aug_rate": ("0.25", "aug_rate", 0.25),
    "epochs": ("3", "epochs", 3), "batch": ("2", "batch", 2), "lr": ("0.05", "lr", 0.05),
    "mode": ("aope", "mode", Mode.AOPE), "variant": ("ctfmt", "variant", Variant.CTFMT),
    "ablate": ("no_aug+no_mmd", "ablations", frozenset({"no_aug", "no_mmd"})),
    "d": ("8", "encoder.d", 8), "layers": ("1", "encoder.layers", 1),
}
FILE_VALUES = {"vocab_buckets": 128, "window": 2, "max_n": 20}


def _field(cfg, name):
    for part in name.split("."):
        cfg = getattr(cfg, part)
    return cfg


def _configs_trained(monkeypatch, argv) -> tuple[int, list]:
    """Run ``tablemt train argv`` with fitting replaced by a recorder of the
    configs it would train."""
    seen = []

    def record(data, cfg, *args, **kwargs):
        seen.append(cfg)
        return [], [0.0] * 4

    monkeypatch.setattr(cli, "_run_seeds", record)
    return main(["train"] + argv), seen


def test_flag_table_covers_train_keys():
    assert set(FLAG_VALUES) | set(FILE_VALUES) == set(TRAIN_KEYS)
    assert set(FILE_VALUES) == set(FILE_ONLY_KEYS)


@pytest.mark.parametrize("key", sorted(FLAG_VALUES))
def test_train_flag_sets_its_field(tmp_path, corpus_dir, monkeypatch, key):
    raw, name, value = FLAG_VALUES[key]
    assert _field(TrainConfig(), name) != value
    code, seen = _configs_trained(monkeypatch, [
        "--data", str(corpus_dir), "--out", str(tmp_path / "o"), "--" + key.replace("_", "-"), raw])
    assert code == EXIT_OK
    assert [_field(cfg, name) for cfg in seen] == [value]


@pytest.mark.parametrize("key", sorted(FILE_VALUES))
def test_file_only_key_has_no_flag(tmp_path, corpus_dir, monkeypatch, key):
    value = FILE_VALUES[key]
    assert _field(TrainConfig(), "encoder." + key) != value
    base = ["--data", str(corpus_dir), "--out", str(tmp_path / "o")]
    code, seen = _configs_trained(monkeypatch, base + ["--" + key.replace("_", "-"), str(value)])
    assert (code, seen) == (EXIT_USAGE, [])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    code, seen = _configs_trained(monkeypatch, base + ["--config", str(cfgfile)])
    assert code == EXIT_OK
    assert [_field(cfg, "encoder." + key) for cfg in seen] == [value]


@pytest.mark.parametrize("flag", ["--alpha", "--variant", "--epochs"])
def test_bad_flag_value_names_its_key(tmp_path, corpus_dir, capsys, flag):
    assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "o"),
                 flag, "bogus"]) == EXIT_USAGE
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gradcheck_defaults_are_run_gradchecks(monkeypatch, capsys):
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return run_gradcheck(**kwargs)

    monkeypatch.setattr(cli, "run_gradcheck", spy)
    assert main(["gradcheck"]) == EXIT_OK
    printed = capsys.readouterr().out
    default = run_gradcheck()
    assert f"max relative error: {default.max_rel_err:.3e} (tolerance {default.tol:.0e})" in printed
    # the micro teacher keeps no pseudo label at d 6, seed 3: a usage error
    assert main(["gradcheck", "--d", "6", "--seed", "3"]) == EXIT_USAGE
    assert calls == [{}, {"d": 6, "seed": 3}]
    err = capsys.readouterr().err
    assert err.startswith("usage error: gradcheck point d=6, seed=3 is vacuous")
    assert "try another seed" in err


@pytest.mark.parametrize("flag,value", [("--eps", "0"), ("--eps", "nan"), ("--tol", "0")])
def test_gradcheck_rejects_eps_or_tol_not_finite_and_positive(capsys, flag, value):
    assert main(["gradcheck", flag, value]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: eps and tol must be finite and > 0")


def test_eval_reports_and_mode_mismatch(tmp_path, corpus_dir, trained_dir, capsys):
    ckpt_path = trained_dir / "checkpoint_tfmt_seed1.bin"
    out_csv = tmp_path / "report.csv"
    assert main(["eval", "--checkpoint", str(ckpt_path),
                 "--data", str(corpus_dir / "source_dev.txt"), "--out", str(out_csv)]) == EXIT_OK
    rows = read_csv(out_csv)
    assert rows[0] == ["metric", "value"]
    assert rows[1][0] == "sentence_precision"
    assert main(["eval", "--checkpoint", str(ckpt_path), "--mode", "aope",
                 "--data", str(corpus_dir / "source_dev.txt")]) == EXIT_USAGE


def test_eval_empty_file_errors(tmp_path, trained_dir):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(empty)])
    assert code == EXIT_USAGE


def test_eval_deterministic_rerun(tmp_path, corpus_dir, trained_dir):
    ckpt_path = trained_dir / "checkpoint_tfmt_seed1.bin"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["eval", "--checkpoint", str(ckpt_path),
                     "--data", str(corpus_dir / "source_dev.txt"), "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_audit_outputs_histogram(tmp_path, corpus_dir, trained_dir, capsys):
    out_csv = tmp_path / "audit.csv"
    assert main(["audit", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(corpus_dir / "target_test.txt"), "--eta", "0.3",
                 "--out", str(out_csv)]) == EXIT_OK
    captured = capsys.readouterr().out
    rows = read_csv(out_csv)
    assert rows[0] == ["category", "count", "fraction"]
    assert [r[0] for r in rows[1:]] == ["correct", "sentiment_error",
                                        "words_mis_localized", "error"]
    retained = int(captured.split("retained ")[1].split(" ")[0])
    assert sum(int(r[1]) for r in rows[1:]) == retained


def test_audit_eta_one_empty_histogram(tmp_path, corpus_dir, trained_dir):
    out_csv = tmp_path / "audit1.csv"
    assert main(["audit", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(corpus_dir / "target_test.txt"), "--eta", "1.0",
                 "--out", str(out_csv)]) == EXIT_OK
    rows = read_csv(out_csv)
    assert all(int(r[1]) == 0 for r in rows[1:])


@pytest.mark.parametrize("eta", ["-1", "2", "nan"])
def test_audit_rejects_eta_outside_unit_interval(tmp_path, corpus_dir, trained_dir, eta):
    out_csv = tmp_path / "audit.csv"
    assert main(["audit", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(corpus_dir / "target_test.txt"), "--eta", eta,
                 "--out", str(out_csv)]) == EXIT_USAGE
    assert not out_csv.exists()


def test_audit_requires_labels(tmp_path, corpus_dir, trained_dir):
    code = main(["audit", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(corpus_dir / "target_unlabeled.txt")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["eval", "audit"])
def test_over_length_record_stops_eval_and_audit_before_any_prediction(
        tmp_path, corpus_dir, trained_dir, monkeypatch, capsys, command):
    """A last record longer than the checkpoint's ``max_n`` is named, with
    its file and index, before the first sentence is predicted or labelled."""
    data = tmp_path / "long.txt"
    records = (corpus_dir / "target_test.txt").read_text(encoding="utf-8").splitlines()
    tokens = " ".join(f"w{i}" for i in range(25))
    data.write_text("\n".join(records + [tokens + "####[]"]) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_predict_items", None)  # neither may run
    monkeypatch.setattr(cli, "pseudo_labels", None)
    out_csv = tmp_path / "out.csv"
    assert main([command, "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(data), "--out", str(out_csv)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: ValueError: {data} record {len(records)}: sentence length 25 exceeds max_n=24\n")
    assert not out_csv.exists()


def test_ablate_row_set(tmp_path, corpus_dir):
    out = tmp_path / "ablate"
    assert main(["ablate", "--data", str(corpus_dir), "--out", str(out),
                 "--seeds", "1", "--alpha-grid", "0,1"] + TINY_TRAIN) == EXIT_OK
    rows = read_csv(out / "ablation.csv")
    labels = [r[0] for r in rows[1:]]
    assert labels == ["full", "no_aug", "no_uns", "no_mmd", "no_uns+no_mmd",
                      "alpha=0.0", "alpha=1.0"]
    # reduction identity: the alpha=0 sweep cell equals the no_uns ablation row
    header = rows[0]
    by_label = {r[0]: r for r in rows[1:]}
    assert by_label["alpha=0.0"][header.index("mean_test_f1")] == \
        by_label["no_uns"][header.index("mean_test_f1")]


@pytest.fixture
def pretrains(monkeypatch) -> list:
    """The seeds of the teachers a run pretrains through
    ``trainer.pretrain_teacher``; each pretraining returns an empty dict."""
    seeds = []

    def pretrain_teacher(source_train, cfg):
        seeds.append(cfg.seed)
        return {}

    monkeypatch.setattr(trainer, "pretrain_teacher", pretrain_teacher)
    return seeds


@pytest.mark.parametrize("grid", [["--alpha-grid", "abc"], ["--beta-grid", "-1"],
                                  ["--alpha-grid", "1,nan"]])
def test_ablate_checks_grids_before_training(tmp_path, corpus_dir, pretrains, grid):
    out = tmp_path / "ablate_bad"
    assert main(["ablate", "--data", str(corpus_dir), "--out", str(out), "--seeds", "1"]
                + grid + TINY_TRAIN) == EXIT_USAGE
    assert not list(out.glob("metrics_*.csv"))
    assert pretrains == []


@pytest.mark.parametrize("variant,per_seed", [("tfmt", 1), ("ctfmt", 1), ("source_only", 0)])
def test_ablate_pretrains_one_teacher_per_seed(tmp_path, corpus_dir, monkeypatch, variant,
                                               per_seed):
    seeds = []
    real = trainer.pretrain_teacher

    def counted(source_train, cfg):
        seeds.append(cfg.seed)
        return real(source_train, cfg)

    monkeypatch.setattr(trainer, "pretrain_teacher", counted)
    flags = ["--variant", variant, "--epochs", "1", "--d", "8", "--layers", "1", "--eta", "0.3"]
    out = tmp_path / "ablate"
    assert main(["ablate", "--data", str(corpus_dir), "--out", str(out), "--seeds", "1,2"]
                + flags) == EXIT_OK
    assert seeds == [1, 2] * per_seed
    # a row trained alone, pretraining its own teacher, writes the same bytes
    alone = tmp_path / "alone"
    assert main(["train", "--data", str(corpus_dir), "--out", str(alone), "--seed", "2",
                 "--ablate", "no_mmd"] + flags) == EXIT_OK
    assert ((out / "metrics_ablate_no_mmd_seed2.csv").read_bytes()
            == (alone / f"metrics_{variant}_seed2.csv").read_bytes())


def _corpus_with_empty(tmp_path: Path, corpus_dir: Path, split: str) -> Path:
    """A copy of the test corpus whose ``<split>.txt`` is empty."""
    data = tmp_path / f"no_{split}"
    data.mkdir()
    for p in corpus_dir.iterdir():
        (data / p.name).write_bytes(b"" if p.stem == split else p.read_bytes())
    return data


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("split,message", [
    ("source_dev", "source train/dev sets must be non-empty"),
    ("source_train", "source train/dev sets must be non-empty"),
    ("target_unlabeled", "target unlabeled set must be non-empty for this variant"),
], ids=["source_dev", "source_train", "target_unlabeled"])
def test_empty_split_stops_before_out_and_pretraining(tmp_path, corpus_dir, pretrains, capsys,
                                                      command, split, message):
    data = _corpus_with_empty(tmp_path, corpus_dir, split)
    out = tmp_path / "o"
    assert main([command, "--data", str(data), "--out", str(out), "--seeds", "1,2"]
                + TINY_TRAIN) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert pretrains == [] and not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_over_length_sentence_stops_before_out_and_pretraining(tmp_path, corpus_dir, pretrains,
                                                               capsys, command):
    """A sentence longer than ``max_n`` in a split the fit reads is refused
    before ``--out`` exists or a teacher is pretrained, not by eval after
    a full epoch."""
    data = tmp_path / "long"
    shutil.copytree(corpus_dir, data)
    test_file = data / "target_test.txt"
    records = test_file.read_text(encoding="utf-8").splitlines()
    tokens = " ".join(f"w{i}" for i in range(25))
    test_file.write_text("\n".join(records + [tokens + "####[]"]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--data", str(data), "--out", str(out), "--seeds", "1,2"]
                + TINY_TRAIN) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        f"error: ValueError: target_test record {len(records)}: "
        "sentence length 25 exceeds max_n=24\n")
    assert pretrains == [] and not out.exists()


def test_source_only_ablate_runs_without_target_unlabeled(tmp_path, corpus_dir):
    data = _corpus_with_empty(tmp_path, corpus_dir, "target_unlabeled")
    out = tmp_path / "o"
    assert main(["ablate", "--data", str(data), "--out", str(out), "--seeds", "1",
                 "--variant", "source_only"] + TINY_TRAIN) == EXIT_OK
    assert len(read_csv(out / "ablation.csv")) == 1 + len(cli.ABLATION_ROWS)


@pytest.fixture
def fits(monkeypatch) -> list:
    """The seeds of the fits a run starts; each fit fails at once, so a run
    that reaches one exits 2 and writes nothing."""
    seeds = []

    def fit(data, cfg, teacher=None):
        seeds.append(cfg.seed)
        raise RuntimeError("fit reached")

    monkeypatch.setattr(cli, "fit", fit)
    return seeds


@pytest.mark.parametrize("command,flags", [
    ("train", ["--seed", "-1"]), ("ablate", ["--seed", "-1"]),
    ("train", ["--seeds", "1,2,1"]), ("ablate", ["--seeds", "1,2,1"]),
    ("train", ["--seeds", "1,-1"]), ("ablate", ["--seeds", "1,-1"]),
    ("ablate", ["--seeds", "1", "--beta-grid", "0.5,0.50"]),
    ("train", ["--seed", "5", "--seeds", "1,2"]), ("ablate", ["--seed", "5", "--seeds", "1,2"]),
], ids=["train-negative", "ablate-negative", "train-repeated", "ablate-repeated",
        "train-later-negative", "ablate-later-negative", "ablate-repeated-grid",
        "train-seed-and-seeds", "ablate-seed-and-seeds"])
def test_bad_seed_or_grid_value_stops_before_any_fit(tmp_path, corpus_dir, fits, pretrains,
                                                     command, flags):
    out = tmp_path / "o"
    assert main([command, "--data", str(corpus_dir), "--out", str(out)] + flags
                + TINY_TRAIN) == EXIT_USAGE
    assert fits == [] and pretrains == [] and not out.exists()


@pytest.mark.parametrize("command,existing", [
    ("train", "metrics_tfmt_seed2.csv"),
    ("train", "checkpoint_tfmt_seed2.bin"),
    ("train", "summary.csv"),
    ("ablate", "metrics_ablate_no_mmd_seed2.csv"),
    ("ablate", "ablation.csv"),
])
def test_every_output_is_checked_before_the_first_fit(tmp_path, corpus_dir, fits, pretrains,
                                                      command, existing):
    out = tmp_path / "o"
    out.mkdir()
    (out / existing).write_bytes(b"kept")
    argv = [command, "--data", str(corpus_dir), "--out", str(out), "--seeds", "1,2"] + TINY_TRAIN
    assert main(argv) == EXIT_USAGE
    assert fits == [] and pretrains == [] and dir_bytes(out) == {existing: b"kept"}
    assert main(argv + ["--force"]) == EXIT_RUNTIME  # --force lets the first fit start
    assert fits == [1]
    # ablate pretrains every seed's teacher before its first fit; train's
    # fits pretrain their own
    assert pretrains == ([1, 2] if command == "ablate" else [])


def test_audit_counts_invalid_argmax_under_best_foreground(tmp_path, trained_dir, monkeypatch):
    """A label retained by foreground confidence whose overall argmax is
    INVALID still counts, under its most probable foreground polarity."""
    import tablemt.cli as cli
    from tablemt.trainer import PseudoLabel

    data = tmp_path / "one.txt"
    data.write_text("the tnoun1 was tadj1####[([1], [3], 'NEU')]\n")
    label = PseudoLabel((1, 3, 1, 3), np.array([0.1, 0.35, 0.05, 0.5]), 0.35)
    monkeypatch.setattr(cli, "teacher_pseudo_label", lambda *a, **k: [label])
    out_csv = tmp_path / "audit.csv"
    assert main(["audit", "--checkpoint", str(trained_dir / "checkpoint_tfmt_seed1.bin"),
                 "--data", str(data), "--eta", "0.3", "--out", str(out_csv)]) == EXIT_OK
    counts = {r[0]: int(r[1]) for r in read_csv(out_csv)[1:]}
    assert counts == {"correct": 1, "sentiment_error": 0, "words_mis_localized": 0, "error": 0}


def test_usage_errors_exit_1(tmp_path, corpus_dir):
    assert main(["train", "--data", "/nonexistent", "--out", "/tmp/x"]) == EXIT_USAGE
    assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "x"),
                 "--seeds", ","] + TINY_TRAIN) == EXIT_USAGE
    for lr in ("0", "-1", "nan"):
        assert main(["train", "--data", str(corpus_dir), "--out", str(tmp_path / "lr"),
                     "--lr", lr] + TINY_TRAIN) == EXIT_USAGE
    assert not (tmp_path / "lr").exists()
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main(["train"]) == EXIT_USAGE  # missing required flags


@pytest.mark.parametrize("flag", ["--lr", "--beta"])
def test_a_diverging_train_exits_2_and_writes_no_seed_files(tmp_path, corpus_dir, capsys, flag):
    out = tmp_path / "out"
    assert main(["train", "--data", str(corpus_dir), "--out", str(out), "--seed", "1",
                 flag, "1e300"] + TINY_TRAIN) == EXIT_RUNTIME == 2
    assert capsys.readouterr().err.startswith("error: TrainingDivergence:")
    for path in cli._seed_files(out, "tfmt", 1):
        assert not path.exists()


@pytest.mark.parametrize("flag", ["--lr", "--beta"])
def test_a_diverging_train_prints_no_numpy_warning(tmp_path, corpus_dir, flag):
    """The fault is named once, in the error line; numpy's ``RuntimeWarning``
    lines, with their source paths, do not reach stderr.  A child process,
    since pytest captures warnings that a plain run prints."""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "tablemt.cli", "train", "--data", str(corpus_dir),
         "--out", str(tmp_path / "out"), "--seed", "1", flag, "1e300"] + TINY_TRAIN,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_RUNTIME
    assert proc.stderr.startswith("error: TrainingDivergence: floating-point fault: overflow")
    assert "RuntimeWarning" not in proc.stderr and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command,flag", [
    ("train", "--config"), ("train", "--data"), ("eval", "--checkpoint"), ("eval", "--data"),
    ("audit", "--checkpoint"), ("audit", "--data"),
])
def test_missing_input_is_a_usage_error_naming_it(tmp_path, corpus_dir, trained_dir, capsys,
                                                  command, flag):
    out = tmp_path / "out"
    flags = {"--data": str(corpus_dir), "--out": str(out)} if command == "train" else {
        "--checkpoint": str(trained_dir / "checkpoint_tfmt_seed1.bin"),
        "--data": str(corpus_dir / "target_test.txt"), "--out": str(out / "report.csv")}
    missing = tmp_path / "nope"
    flags[flag] = str(missing)
    extra = TINY_TRAIN if command == "train" else []
    assert main([command, *(x for kv in flags.items() for x in kv), *extra]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(missing) in err
    assert not out.exists()


def test_overfit_then_eval_f1_high(tmp_path, corpus_dir):
    """Overfit a model on a 12-sentence corpus (dev = train so selection
    keeps the overfit weights), then score it on its own training file."""
    data = tmp_path / "overfit_corpus"
    data.mkdir()
    for name in ("source_train", "source_dev", "target_unlabeled", "target_test"):
        src_name = "source_train" if name == "source_dev" else name
        (data / f"{name}.txt").write_bytes((corpus_dir / f"{src_name}.txt").read_bytes())
    out = tmp_path / "overfit"
    assert main(["train", "--data", str(data), "--out", str(out), "--seed", "2",
                 "--variant", "source_only", "--epochs", "40"]) == EXIT_OK
    report = tmp_path / "overfit_report.csv"
    assert main(["eval", "--checkpoint", str(out / "checkpoint_source_only_seed2.bin"),
                 "--data", str(data / "source_train.txt"), "--out", str(report)]) == EXIT_OK
    rows = {r[0]: float(r[1]) for r in read_csv(report)[1:]}
    assert rows["sentence_f1"] >= 0.95
