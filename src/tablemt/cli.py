"""Command-line entry point for batch experiments: corpus synthesis,
training, evaluation, pseudo-label audits, gradient checks, and ablation
sweeps.  Every subcommand is deterministic given its flags and seed."""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import trainer
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import SynthConfig, SynthCorpus, load_dataset, synth_corpus, write_corpus
from .detector import Mode
from .encoder import EncoderConfig, check_lengths
from .evaluate import ErrorCategory, audit_pseudo_labels, build_report, gold_items
from .gradcheck import run_gradcheck
from .trainer import (
    HISTORY_COLUMNS,
    TrainConfig,
    Variant,
    _predict_items,
    fit,
    pseudo_labels,
    pseudo_triplet,
    teacher_pseudo_label,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's default exit(2) to exit 1
        raise UsageError(message)


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """A ``ValueError`` raised inside, turning user input into a value, as a
    ``UsageError`` whose message is ``prefix`` and its own."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key = value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise UsageError(f"config key {key!r} is repeated")
        values[key] = val
    return values


def _ablations(text: str) -> frozenset:  # comma- or plus-separated names
    return frozenset(a for a in text.replace("+", ",").split(",") if a)


# Config-file key -> (TrainConfig field, parser); "encoder." fields belong to
# EncoderConfig.  Each key outside FILE_ONLY_KEYS also gets a flag (--aug-rate
# for aug_rate) that overrides the file.  Defaults are the dataclasses' own.
TRAIN_KEYS = {
    "alpha": ("alpha", float), "beta": ("beta", float), "lambda": ("ema_lambda", float),
    "eta": ("eta", float), "kappa": ("kappa", float), "aug_rate": ("aug_rate", float),
    "epochs": ("epochs", int), "batch": ("batch", int), "lr": ("lr", float),
    "mode": ("mode", Mode), "variant": ("variant", Variant), "ablate": ("ablations", _ablations),
    "d": ("encoder.d", int), "layers": ("encoder.layers", int),
    "vocab_buckets": ("encoder.vocab_buckets", int), "window": ("encoder.window", int),
    "max_n": ("encoder.max_n", int),
}
FILE_ONLY_KEYS = ("vocab_buckets", "window", "max_n")


def _train_config(args, seed: int) -> TrainConfig:
    given = _read_config_file(args.config) if args.config else {}
    for key in given:
        if key not in TRAIN_KEYS:
            raise UsageError(f"unknown config key {key!r}; valid keys: {', '.join(TRAIN_KEYS)}")
    given.update({k: getattr(args, k) for k in TRAIN_KEYS if getattr(args, k, None) is not None})
    top, enc = {}, {}
    for key, raw in given.items():
        name, parse = TRAIN_KEYS[key]
        with _usage(f"bad value for {key}: "):
            value = parse(raw)
        if name.startswith("encoder."):
            enc[name.removeprefix("encoder.")] = value
        else:
            top[name] = value
    with _usage():
        return TrainConfig(seed=seed, encoder=EncoderConfig(**enc), **top)


def _load_bundle(data_dir: str) -> SynthCorpus:
    """The four ``<split>.txt`` files that ``synth`` writes, one per
    ``SynthCorpus`` field."""
    return SynthCorpus(**{f.name: load_dataset(Path(data_dir) / f"{f.name}.txt")
                          for f in fields(SynthCorpus)})


def _write_csv(path: Path, header: tuple | list, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _guard_overwrite(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise UsageError(f"refusing to overwrite {path}; pass --force")


def _values(text: str | None, parse, flag: str) -> list:
    """The comma-separated values of ``flag``, none of them repeated."""
    with _usage(f"bad {flag}: "):
        values = [parse(x) for x in (text or "").split(",") if x]
    if len(set(values)) < len(values):
        raise UsageError(f"{flag} repeats a value: {text}")
    return values


def _parse_seeds(args) -> list[int]:
    if args.seeds is None:
        return [args.seed if args.seed is not None else 0]
    if args.seed is not None:
        raise UsageError("give --seed or --seeds, not both")
    seeds = _values(args.seeds, int, "--seeds")
    if not seeds:
        raise UsageError("--seeds lists no seed")
    return seeds


SUMMARY_STATS = ("mean_dev_f1", "std_dev_f1", "mean_test_f1", "std_test_f1")


def _seed_files(out: Path, tag: str, seed: int) -> tuple[Path, Path]:
    """The metrics CSV and the checkpoint of one seed's fit."""
    return out / f"metrics_{tag}_seed{seed}.csv", out / f"checkpoint_{tag}_seed{seed}.bin"


def _prepare_runs(data: SynthCorpus, out: Path, table: str, runs: list[tuple[TrainConfig, str]],
                  seeds: list[int], force: bool, write_ckpt: bool) -> None:
    """Build every seed's config of every ``(cfg, tag)`` run, refuse every
    overwrite and check ``data`` for every run, then create ``out``."""
    for cfg, tag in runs:
        for seed in seeds:
            with _usage():
                replace(cfg, seed=seed)
            for path in _seed_files(out, tag, seed)[: 1 + write_ckpt]:
                _guard_overwrite(path, force)
    _guard_overwrite(out / table, force)
    for cfg, _ in runs:
        trainer.check_corpus(data, cfg)
    out.mkdir(parents=True, exist_ok=True)


def _run_seeds(data: SynthCorpus, cfg: TrainConfig, seeds: list[int], out: Path, tag: str,
               write_ckpt: bool = True, teachers: dict | None = None
               ) -> tuple[list[dict], list[float]]:
    """Train ``cfg`` once per seed, starting from ``teachers[seed]`` if
    given, and write per-seed metric CSVs; returns the per-seed finals and
    the ``SUMMARY_STATS`` values, in that order."""
    finals = []
    for seed in seeds:
        mpath, cpath = _seed_files(out, tag, seed)
        ckpt, rows = fit(data, replace(cfg, seed=seed),
                         teacher=teachers[seed] if teachers else None)
        _write_csv(mpath, HISTORY_COLUMNS, [[_fmt(r[k]) for k in HISTORY_COLUMNS] for r in rows])
        if write_ckpt:
            save_checkpoint(cpath, ckpt)
        best = rows[ckpt.epoch - 1] if ckpt.epoch else {"dev_f1": 0.0, "test_f1": 0.0}
        finals.append({"seed": seed, "best_epoch": ckpt.epoch,
                       "best_dev_f1": best["dev_f1"], "test_f1": best["test_f1"]})
    dev = np.array([f["best_dev_f1"] for f in finals])
    test = np.array([f["test_f1"] for f in finals])
    return finals, [float(dev.mean()), float(dev.std()), float(test.mean()), float(test.std())]


def _mean_test_f1(stats: list[float]) -> str:
    return f"mean test F1 {stats[2]:.4f} +- {stats[3]:.4f}"


def _write_out(out: str | None, header: list, rows: list[list]) -> None:
    """Write the ``--out`` CSV of ``eval`` and ``audit``, if one was asked for."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(path, header, rows)
        print(f"wrote {path}")


# -- subcommands -------------------------------------------------------------


# The CLI corpus draws from larger lexicons than SynthConfig(), so
# `tablemt synth --seed 7` and SynthConfig(seed=7) are different corpora.
SYNTH_LEXICON_DEFAULTS = {"num_aspects": 10, "num_opinions": 8}


def cmd_synth(args) -> int:
    with _usage():
        cfg = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    for f in fields(SynthCorpus):
        _guard_overwrite(Path(args.out) / f"{f.name}.txt", args.force)
    corpus = synth_corpus(cfg)
    paths = write_corpus(corpus, args.out)
    for name, p in paths.items():
        print(f"wrote {p} ({len(getattr(corpus, name))} sentences)")
    return EXIT_OK


def cmd_train(args) -> int:
    data = _load_bundle(args.data)
    seeds = _parse_seeds(args)
    cfg = _train_config(args, seeds[0])
    variant = cfg.variant.value
    out = Path(args.out)
    _prepare_runs(data, out, "summary.csv", [(cfg, variant)], seeds, args.force, write_ckpt=True)
    finals, stats = _run_seeds(data, cfg, seeds, out, variant)
    _write_csv(out / "summary.csv", ["variant", "seeds", *SUMMARY_STATS],
               [[variant, ";".join(str(s) for s in seeds), *map(_fmt, stats)]])
    for f in finals:
        print(f"seed {f['seed']}: best epoch {f['best_epoch']}, "
              f"dev F1 {f['best_dev_f1']:.4f}, test F1 {f['test_f1']:.4f}")
    print(_mean_test_f1(stats))
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if args.mode is not None and Mode(args.mode) != ckpt.config.mode:
        raise UsageError(
            f"mode mismatch: checkpoint is {ckpt.config.mode.value}, flag says {args.mode}"
        )
    records = load_dataset(args.data)
    if not records:
        raise UsageError(f"empty test file: {args.data}")
    check_lengths([ls.sentence for ls in records], ckpt.config.encoder.max_n, args.data)
    preds = _predict_items(records, ckpt.student, ckpt.config)
    golds = [gold_items(ls, ckpt.config.mode) for ls in records]
    report = build_report(preds, golds)
    print(f"evaluated {report.n_sentences} sentences ({ckpt.config.mode.value})")
    for name, value in report.rows():
        print(f"  {name:20s} {value:.6f}")
    _write_out(args.out, ["metric", "value"], [[n, _fmt(v)] for n, v in report.rows()])
    return EXIT_OK


def cmd_audit(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    with _usage("bad --eta: "):
        cfg = ckpt.config if args.eta is None else replace(ckpt.config, eta=args.eta)
    if cfg.mode != Mode.ASTE:
        raise UsageError("audit requires an ASTE checkpoint (taxonomy includes polarity)")
    records = load_dataset(args.data)
    if not any(ls.triplets for ls in records):
        raise UsageError(f"audit needs labeled target data: {args.data}")
    sentences = [ls.sentence for ls in records]
    check_lengths(sentences, cfg.encoder.max_n, args.data)
    counts = {cat: 0 for cat in ErrorCategory}
    total_retained = 0
    for ls, pls in zip(records, pseudo_labels(ckpt.teacher, sentences, cfg, teacher_pseudo_label)):
        # every retained label counts, under its most confident foreground
        # polarity, even where the overall argmax says INVALID
        pseudo = [pseudo_triplet(pl, cfg.mode) for pl in pls]
        total_retained += len(pseudo)
        for cat, k in audit_pseudo_labels(pseudo, list(ls.triplets)).items():
            counts[cat] += k
    print(f"retained {total_retained} pseudo labels at eta={cfg.eta}")
    rows = []
    for cat in ErrorCategory:
        frac = counts[cat] / total_retained if total_retained else 0.0
        print(f"  {cat.value:20s} {counts[cat]:6d}  ({frac:.3f})")
        rows.append([cat.value, str(counts[cat]), _fmt(frac)])
    _write_out(args.out, ["category", "count", "fraction"], rows)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    given = {k: getattr(args, k) for k in ("d", "seed", "eps", "tol")}
    with _usage():  # a vacuous point, or eps or tol not finite and > 0
        result = run_gradcheck(**{k: v for k, v in given.items() if v is not None})
    for name in sorted(result.per_group):
        print(f"  {name:12s} rel err {result.per_group[name]:.3e}")
    print(f"max relative error: {result.max_rel_err:.3e} (tolerance {result.tol:.0e})")
    if not result.passed:
        print("GRADCHECK FAILED")
        return EXIT_RUNTIME
    print("gradcheck passed")
    return EXIT_OK


ABLATION_ROWS = [("full", frozenset()), *((a, frozenset({a})) for a in trainer.ABLATIONS),
                 ("no_uns+no_mmd", frozenset({"no_uns", "no_mmd"}))]


def cmd_ablate(args) -> int:
    data = _load_bundle(args.data)
    seeds = _parse_seeds(args)
    rows = [(label, {"ablations": abl}, f"ablate_{label.replace('+', '_')}")
            for label, abl in ABLATION_ROWS]
    rows += [(f"alpha={a}", {"alpha": a}, f"alpha{a}")
             for a in _values(args.alpha_grid, float, "--alpha-grid")]
    rows += [(f"beta={b}", {"beta": b}, f"beta{b}")
             for b in _values(args.beta_grid, float, "--beta-grid")]
    base = _train_config(args, seeds[0])
    with _usage():
        configs = [replace(base, **overrides) for _, overrides, _ in rows]
    out = Path(args.out)
    runs = [(cfg, tag) for (_, _, tag), cfg in zip(rows, configs)]
    _prepare_runs(data, out, "ablation.csv", runs, seeds, args.force, write_ckpt=False)
    # The rows override only alpha, beta and ablations, which the source-only
    # teacher pretraining never reads, so each seed's rows share one teacher.
    # trainer.pretrain_teacher is looked up at call time, where tracing and
    # test patches of the trainer module see it.
    teachers = {}
    if base.variant.teaches:
        teachers = {s: trainer.pretrain_teacher(data.source_train, replace(base, seed=s))
                    for s in seeds}
    rows_out = []
    for (label, _, tag), cfg in zip(rows, configs):
        _, stats = _run_seeds(data, cfg, seeds, out, tag, write_ckpt=False, teachers=teachers)
        rows_out.append([
            label, _fmt(cfg.alpha), _fmt(cfg.beta),
            "+".join(sorted(cfg.ablations)) or "none", str(len(seeds)), *map(_fmt, stats),
        ])
        print(f"{label:16s} {_mean_test_f1(stats)}")
    path = out / "ablation.csv"
    _write_csv(path, ["row", "alpha", "beta", "ablations", "n_seeds", *SUMMARY_STATS], rows_out)
    print(f"wrote {path}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override")
    for key, (_, parse) in TRAIN_KEYS.items():  # values are parsed by _train_config
        if key not in FILE_ONLY_KEYS:
            values = "|".join(m.value for m in parse) if isinstance(parse, enum.EnumMeta) else None
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=values)
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--force", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="tablemt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic two-domain corpus")
    p.add_argument("--out", required=True)
    for f in fields(SynthConfig):  # one flag per field, with the field's default
        p.add_argument("--" + f.name.replace("_", "-"), type=int,
                       default=SYNTH_LEXICON_DEFAULTS.get(f.name, f.default))
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train per seed and summarize")
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="categorize teacher pseudo-label errors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="labeled target-domain file")
    p.add_argument("--eta", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="ablation table and coefficient sweeps")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-grid", help="comma-separated alpha values")
    p.add_argument("--beta-grid", help="comma-separated beta values")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:  # a missing input names its path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
