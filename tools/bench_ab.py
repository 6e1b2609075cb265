"""Alternating parent/change benchmark pairs, and how far apart they are.

    python3 tools/bench_ab.py --parent ../parent --label gram_mmd
    python3 tools/bench_ab.py --parent ../parent --label x --workloads train_tfmt --pairs 3

``--parent`` is the root of another checkout (say a ``git clone`` of the
parent commit).  For each workload, pair i runs ``benchmarks/run.py
--workload W --seed S --seconds T --trace 0`` once in each tree, from that
tree's root and with that tree's own runner; the parent runs first in odd
pairs and the change first in even ones, so a drift in host speed falls on
both sides.  Every record is kept under its own name in
``bench_results/ab_<label>/{parent,change}/`` of this checkout, and
``tools/bench_summary.py`` summarises each side into
``BENCH_<label>_parent.json`` and ``BENCH_<label>.json``.

Per workload and end-to-end metric it prints each pair as parent/change,
the median of the change/parent ratios, the number of pairs in which the
change was lower, and a paired bootstrap 90% interval of that median
ratio (pairs resampled with replacement, ``RESAMPLES`` times, from a fixed
seed, so a rerun on the same numbers prints the same interval).  It exits
1 if a run fails or a record reports a failed operation, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESAMPLES = 10_000
RESAMPLE_SEED = 0


def paired_stats(parent: list[float], change: list[float]) -> dict:
    """The median change/parent ratio of paired runs, the count of pairs in
    which the change was lower, and a paired bootstrap 90% interval of the
    median ratio."""
    ratios = np.asarray(change, dtype=float) / np.asarray(parent, dtype=float)
    rng = np.random.default_rng(RESAMPLE_SEED)
    picks = rng.integers(len(ratios), size=(RESAMPLES, len(ratios)))
    lo, hi = np.quantile(np.median(ratios[picks], axis=1), [0.05, 0.95])
    return {"median_ratio": float(np.median(ratios)),
            "faster": int((ratios < 1.0).sum()), "pairs": len(ratios),
            "interval": (float(lo), float(hi))}


def commit_of(tree: Path) -> str:
    """``git rev-parse HEAD`` of ``tree``, marked ``+changes`` when tracked
    files differ from it; ``unknown`` outside a git checkout."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                "--untracked-files=no"], check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+changes" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float, keep: Path) -> dict | None:
    """One untraced run in ``tree``; its record is moved to ``keep``.  None
    when the run fails."""
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    record = tree / "bench_results" / f"{workload}_seed{seed}_trace0.json"
    if proc.returncode != 0 or not record.is_file():
        print(f"run failed in {tree} (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(record, keep)
    return json.loads(keep.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the other checkout")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>[_parent].json")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "benchmarks" / "run.py").is_file() or args.pairs < 1:
        parser.error(f"--parent {parent} holds no benchmarks/run.py, or --pairs is below 1")

    out = ROOT / "bench_results" / f"ab_{args.label}"
    shutil.rmtree(out, ignore_errors=True)
    sides = {"parent": parent, "change": ROOT}
    metrics = [m["name"] for m in spec["end_to_end"]]
    ok = True
    for workload in args.workloads:
        values: dict = {side: {m: [] for m in metrics} for side in sides}
        for i in range(1, args.pairs + 1):
            for side in (("parent", "change") if i % 2 else ("change", "parent")):
                keep = out / side / f"{workload}_seed{args.seed}_trace0_pair{i}.json"
                record = run_once(sides[side], workload, args.seed, args.seconds, keep)
                if record is None:
                    return 1
                if record["result"]["failed"]:
                    print(f"{workload} pair {i} {side}: {record['result']['failed']} of "
                          f"{record['result']['attempted']} operations failed", file=sys.stderr)
                    ok = False
                for m in metrics:
                    values[side][m].append(record["result"]["metrics"][m]["value"])
        for m in metrics:
            par, chg = values["parent"][m], values["change"][m]
            st = paired_stats(par, chg)
            print(f"{workload} {m} parent/change: "
                  + " ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(par, chg)))
            print(f"  median ratio {st['median_ratio']:.3f}, lower in {st['faster']} of "
                  f"{st['pairs']} pairs, 90% interval {st['interval'][0]:.3f}-"
                  f"{st['interval'][1]:.3f}", flush=True)

    for side, label in (("parent", f"{args.label}_parent"), ("change", args.label)):
        subprocess.run([sys.executable, str(ROOT / "tools" / "bench_summary.py"), "--label", label,
                        "--results", str(out / side), "--commit", commit_of(sides[side])],
                       check=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
