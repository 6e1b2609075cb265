"""Summarise benchmark run records into one ``BENCH_<label>.json`` at the repo root.

    python3 tools/bench_summary.py --label pr20
    python3 tools/bench_summary.py --label pr19 --results ../parent/bench_results --commit af0b781

Reads every ``*.json`` record that ``benchmarks/run.py`` wrote to
``--results`` (default ``bench_results/``).  Untraced records (``--trace 0``)
give, per workload, the median, interquartile range and count of their
end-to-end ``setup_s`` and ``task_s`` values, one value per run; traced
records (``--trace 1``) give the median of each per-layer metric over the
runs, in the units ``BENCHMARK.json`` declares.  The summary also holds the
commit measured (``--commit``, by default ``git rev-parse HEAD`` of this
checkout), the environment the records share, each workload's seeds and the
share of operations that failed.  ``run.py`` names a record by workload, seed
and trace flag, so keep repeated runs of one seed under other names (say
``predict_dense_seed7_trace0_run3.json``) to count each of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "task_s")


def spread(values: list[float]) -> dict:
    """Median, interquartile range (inclusive quartiles) and count."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def head_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def shared_environment(records: list[dict]) -> dict:
    """The environment fields every record agrees on; the workload seed,
    which differs by run, is reported per workload instead."""
    envs = [{k: v for k, v in r["environment"].items() if k != "workload_seed"}
            for r in records]
    return {k: v for k, v in envs[0].items() if all(e.get(k) == v for e in envs)}


def summarise(records: list[dict]) -> dict:
    workloads: dict[str, dict] = {}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        untraced = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry: dict = {"seeds": sorted({r["seed"] for r in runs})}
        if untraced:
            for metric in END_TO_END:
                entry[metric] = spread([r["result"]["metrics"][metric]["value"]
                                        for r in untraced])
            entry["unit"] = untraced[0]["result"]["metrics"]["task_s"]["unit"]
        attempted = sum(r["result"]["attempted"] for r in runs)
        entry["failed_share"] = sum(r["result"]["failed"] for r in runs) / max(attempted, 1)
        if traced:
            names = set.intersection(*(set(r["result"]["metrics"]) for r in traced))
            entry["traced_runs"] = len(traced)
            entry["per_layer"] = {m: statistics.median(r["result"]["metrics"][m]["value"]
                                                       for r in traced) for m in sorted(names)}
        workloads[name] = entry
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    parser.add_argument("--results", type=Path, default=ROOT / "bench_results")
    parser.add_argument("--commit", default=None, help="the commit the records measure")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    paths = sorted(args.results.glob("*.json"))
    if not paths:
        print(f"bench_summary: no run records in {args.results}", file=sys.stderr)
        return 2
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    summary = {
        "label": args.label,
        "commit": args.commit or head_commit(),
        "environment": shared_environment(records),
        "records": len(records),
        "workloads": summarise(records),
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in summary["workloads"].items():
        for metric in END_TO_END:
            if metric in entry:
                s = entry[metric]
                print(f"{name:14s} {metric:8s} median {s['median']:.4f}  "
                      f"IQR {s['iqr']:.4f}  n {s['n']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
