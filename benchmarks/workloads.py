"""The benchmark's three workloads.

Each workload is a closed loop with one caller in one process.  ``setup``
builds the inputs from the workload seed (the program sees only those
inputs), ``task`` is the timed unit of work, and ``check`` verifies one
task's outputs and returns (operations attempted, operations failed).
``reference`` names the host-speed reference work (``hostref.py``) that
matches the task.
Why each workload exists is written down in ``benchmarks/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tablemt import cli
from tablemt.checkpoint import load_checkpoint, save_checkpoint
from tablemt.corpus import (
    Polarity,
    Sentence,
    SynthConfig,
    SynthCorpus,
    serialize_aste_line,
    synth_corpus,
    vocabulary,
)
from tablemt.evaluate import gold_items, sentence_prf
from tablemt.model import predict
from tablemt.trainer import TrainConfig, Variant, fit

# train_tfmt: tfmt fits at the bench config's corpus sizes, but of 5
# epochs, not 30, so that a run holds several fits and reports their
# median.  Fit i of a run trains on the corpus synthesised at
# `seed * TRAIN_SEED_STRIDE + i`, with that model seed too, so the median
# averages over corpora as well: the work of one fit varies by 14% (IQR
# over median of tape elements, 12 corpora) with its corpus.
TRAIN_EPOCHS = 5
TRAIN_CORPORA = 24
TRAIN_SEED_STRIDE = 1000

# ablate_sweep: `tablemt ablate` over its five rows on two seeds, one epoch
# each, so that one run holds several sweeps.
SWEEP_EPOCHS = 1
SWEEP_ROWS = 5

# predict_dense: kappa 1.0 on long sentences from the target vocabulary.
# The model is fit on the bench corpus (seed 7) whatever the workload seed:
# the proposals a model yields per sentence vary by 16% (IQR over median)
# across training corpora, against 2% across sentence sets for one model.
DENSE_MODEL_SEED = 7
DENSE_FIT_EPOCHS = 2
DENSE_SENTENCES = 400
DENSE_LENGTHS = (16, 24)
DENSE_KAPPA = 1.0


SPLITS = ("source_train", "source_dev", "target_unlabeled", "target_test")


def corpus_digest(corpus: SynthCorpus) -> str:
    h = hashlib.sha256()
    for split in SPLITS:
        for ls in getattr(corpus, split):
            h.update(serialize_aste_line(ls).encode("utf-8") + b"\n")
    return h.hexdigest()[:16]


def corpus_shape(corpus: SynthCorpus) -> dict:
    lengths = [ls.sentence.n for split in SPLITS for ls in getattr(corpus, split)]
    return {
        "sizes": [len(getattr(corpus, split)) for split in SPLITS],
        "n_min": min(lengths), "n_max": max(lengths),
        "n_mean": round(sum(lengths) / len(lengths), 3),
    }


def warm_up(corpus: SynthCorpus, seed: int) -> None:
    """One source-only epoch on the corpus, so that the first timed task
    does not pay first-call costs.  Without a teacher it adds no pretrain
    call to the traced counts."""
    fit(corpus, TrainConfig(variant=Variant.SOURCE_ONLY, epochs=1, seed=seed))


def triplets_valid(sentence: Sentence, triplets) -> bool:
    n = sentence.n
    return all(
        0 <= t.aspect.start <= t.aspect.end < n
        and 0 <= t.opinion.start <= t.opinion.end < n
        and isinstance(t.polarity, Polarity)
        for t in triplets
    )


def history_valid(rows: list[dict], epochs: int) -> bool:
    return (
        [r["epoch"] for r in rows] == list(range(1, epochs + 1))
        and all(math.isfinite(v) for r in rows for v in r.values())
    )


@dataclass
class TaskResult:
    output: object
    latencies: list  # seconds per item inside the task, when it has items
    target_f1: float | None = None


class TrainTfmt:
    """`trainer.fit` of variant tfmt, one corpus per fit."""

    name = "train_tfmt"
    reference = "fit"
    min_tasks = 5

    def setup(self, seed: int, scratch: Path) -> dict:
        seeds = [seed * TRAIN_SEED_STRIDE + i for i in range(TRAIN_CORPORA)]
        corpora = [synth_corpus(SynthConfig(seed=s)) for s in seeds]
        warm_up(corpora[0], seeds[0])
        h = hashlib.sha256("".join(corpus_digest(c) for c in corpora).encode("ascii"))
        shapes = [corpus_shape(c) for c in corpora]
        return {"corpora": corpora, "seeds": seeds, "done": 0,
                "inputs": {"corpora": h.hexdigest()[:16], "n_corpora": len(corpora),
                           "first_corpus": corpus_digest(corpora[0]),
                           "sizes": shapes[0]["sizes"],
                           "n_min": min(c["n_min"] for c in shapes),
                           "n_max": max(c["n_max"] for c in shapes),
                           "n_mean": round(statistics.mean(c["n_mean"] for c in shapes), 3)}}

    def task(self, state: dict, scratch: Path) -> TaskResult:
        i = state["done"] % TRAIN_CORPORA
        state["done"] += 1
        cfg = TrainConfig(epochs=TRAIN_EPOCHS, seed=state["seeds"][i])
        return TaskResult((i, cfg, fit(state["corpora"][i], cfg)), [])

    def check(self, state: dict, result: TaskResult) -> tuple[int, int]:
        i, cfg, (ckpt, rows) = result.output
        corpus = state["corpora"][i]
        ok = history_valid(rows, cfg.epochs) and 1 <= ckpt.epoch <= cfg.epochs
        if ok:
            preds = [predict(ls.sentence, ckpt.student, cfg.encoder, cfg.mode, cfg.kappa)
                     for ls in corpus.target_test]
            golds = [gold_items(ls, cfg.mode) for ls in corpus.target_test]
            f1 = sentence_prf(preds, golds)[2]
            # The dev-selected checkpoint must score what its history row says.
            ok = (all(triplets_valid(ls.sentence, p) for ls, p in zip(corpus.target_test, preds))
                  and f1 == rows[ckpt.epoch - 1]["test_f1"])
            result.target_f1 = f1
        return 1, 0 if ok else 1


class AblateSweep:
    """`tablemt ablate` through `cli.main`: five rows on two seeds."""

    name = "ablate_sweep"
    reference = "fit"
    min_tasks = 2  # CSVs are compared byte for byte across the sweeps of a run

    def __init__(self):
        self.first_csvs = None

    def setup(self, seed: int, scratch: Path) -> dict:
        data = scratch / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["synth", "--out", str(data), "--seed", str(seed)]) != cli.EXIT_OK:
                raise RuntimeError("tablemt synth failed")
        corpus = cli._load_bundle(str(data))
        warm_up(corpus, seed)
        return {"data": data, "seeds": f"{seed},{seed + 1}",
                "inputs": {"corpus": corpus_digest(corpus), **corpus_shape(corpus)}}

    def task(self, state: dict, scratch: Path) -> TaskResult:
        out = scratch / "out"
        argv = ["ablate", "--data", str(state["data"]), "--out", str(out),
                "--seeds", state["seeds"], "--epochs", str(SWEEP_EPOCHS)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return TaskResult((code, out), [])

    def check(self, state: dict, result: TaskResult) -> tuple[int, int]:
        code, out = result.output
        if code != cli.EXIT_OK:
            return 1, 1
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        table = list(csv.reader(io.StringIO(files.get("ablation.csv", b"").decode())))
        metric_files = [name for name in files if name.startswith("metrics_")]
        ok = (
            len(table) == SWEEP_ROWS + 1
            and all(math.isfinite(float(v)) for row in table[1:] for v in row[5:])
            and len(metric_files) == SWEEP_ROWS * 2
            and all(files[m].count(b"\n") == SWEEP_EPOCHS + 1 for m in metric_files)
        )
        if ok:
            result.target_f1 = float(table[1][7])  # the "full" row's mean test F1
        if self.first_csvs is None:
            self.first_csvs = files
        elif files != self.first_csvs:
            ok = False
        return 1, 0 if ok else 1


class PredictDense:
    """`model.predict` at kappa 1.0 on long sentences, from a reloaded
    checkpoint of a short source-only fit."""

    name = "predict_dense"
    reference = "predict"
    min_tasks = 1

    def setup(self, seed: int, scratch: Path) -> dict:
        corpus = synth_corpus(SynthConfig(seed=DENSE_MODEL_SEED))
        ckpt, rows = fit(corpus, TrainConfig(variant=Variant.SOURCE_ONLY,
                                             epochs=DENSE_FIT_EPOCHS, seed=DENSE_MODEL_SEED))
        path = scratch / "predict.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        vocab = vocabulary(corpus.target_unlabeled)
        lo, hi = DENSE_LENGTHS
        sentences = [
            Sentence(tuple(vocab[i] for i in rng.integers(len(vocab), size=int(n))))
            for n in rng.integers(lo, hi + 1, size=DENSE_SENTENCES)
        ]
        cfg = loaded.config
        for s in sentences[:3]:
            predict(s, loaded.student, cfg.encoder, cfg.mode, DENSE_KAPPA)
        h = hashlib.sha256(" ".join(" ".join(s.tokens) for s in sentences).encode("utf-8"))
        return {
            "sentences": sentences, "params": loaded.student, "cfg": cfg,
            "in_memory": ckpt.student, "checked_reload": False,
            "target_f1": rows[ckpt.epoch - 1]["test_f1"],
            "inputs": {"model_corpus": corpus_digest(corpus), "sentences": h.hexdigest()[:16],
                       "n_sentences": len(sentences),
                       "n_min": min(s.n for s in sentences),
                       "n_max": max(s.n for s in sentences),
                       "n_mean": sum(s.n for s in sentences) / len(sentences)},
        }

    def task(self, state: dict, scratch: Path) -> TaskResult:
        cfg, params = state["cfg"], state["params"]
        outputs, latencies = [], []
        clock = time.perf_counter
        for s in state["sentences"]:
            t0 = clock()
            outputs.append(predict(s, params, cfg.encoder, cfg.mode, DENSE_KAPPA))
            latencies.append(clock() - t0)
        return TaskResult(outputs, latencies, state["target_f1"])

    def check(self, state: dict, result: TaskResult) -> tuple[int, int]:
        sentences = state["sentences"]
        bad = [not triplets_valid(s, p) for s, p in zip(sentences, result.output)]
        if not state["checked_reload"]:
            # Predictions from the reloaded checkpoint must equal those of
            # the parameters it was saved from.
            state["checked_reload"] = True
            cfg, params = state["cfg"], state["in_memory"]
            for i, s in enumerate(sentences):
                if predict(s, params, cfg.encoder, cfg.mode, DENSE_KAPPA) != result.output[i]:
                    bad[i] = True
        return len(sentences), sum(bad)


WORKLOADS = {w.name: w for w in (TrainTfmt, AblateSweep, PredictDense)}
