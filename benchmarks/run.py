"""Benchmark runner for tablemt.

    python3 benchmarks/run.py --workload train_tfmt --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it imports tablemt from ``src/`` there.
With ``--trace 0`` it sets up the workload several times (``setup_s`` is
the median), then repeats the workload's task until ``--seconds`` have
passed (at least the workload's minimum number of tasks) and prints the
end-to-end metrics.  Every set-up and task is followed by a run of the
host-speed reference (``hostref.py``), and the end-to-end times are wall
times rescaled by it; the raw wall times go to the record.  With
``--trace 1`` it runs one untraced set-up and task, then one traced set-up
and task, and prints the per-layer metrics and the tracing overhead.
Every task's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the run environment, goes to ``bench_results/``.
Metric names, units and the workload list come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Capped before numpy loads, and inherited by any child process.  The
# operands here are small, so extra BLAS threads only add contention.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

ROOT = Path.cwd()
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def import_program():
    src = ROOT / "src"
    if not (src / "tablemt" / "__init__.py").is_file():
        fail(f"no tablemt sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tablemt

    if Path(tablemt.__file__).resolve().parent != (src / "tablemt").resolve():
        fail(f"imported tablemt from {tablemt.__file__}, not from {src}")
    import hostref
    import tracer
    import workloads

    return workloads, tracer, hostref


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    lib = next(libs.glob("libscipy_openblas*.so*"), None)
    try:
        return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()) if lib else None
    except (OSError, AttributeError):
        return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_capped_by_benchmark": BLAS_THREADS,
        "workload_seed": seed,
        "platform": platform.platform(),
        "limits": "shared host; no CPU pinning; no page-cache dropping; "
                  "no control over other tenants' load",
    }


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, kids


class Run:
    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.target_f1 = []
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.scratch / f"d{self._dirs}"
        path.mkdir()
        return path

    def setup(self) -> tuple[dict, float]:
        t0 = time.perf_counter()
        state = self.workload.setup(self.seed, self.fresh_dir())
        return state, time.perf_counter() - t0

    def task(self, state: dict):
        """Time one task; returns (result or None if it raised, seconds)."""
        t0 = time.perf_counter()
        try:
            result = self.workload.task(state, self.fresh_dir())
        except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
            print(f"task failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        return result, time.perf_counter() - t0

    def check(self, state: dict, result) -> None:
        if result is None:
            self.attempted += 1
            self.failed += 1
            return
        attempted, failed = self.workload.check(state, result)
        self.attempted += attempted
        self.failed += failed
        if result.target_f1 is not None:
            self.target_f1.append(result.target_f1)


def measure(run: Run, seconds: float, hostref) -> tuple[dict, dict]:
    clock = hostref.HostClock(run.workload.reference)
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        state, wall = run.setup()
        setup_walls.append(wall)
        setups.append(clock.rescale(wall))
    tasks, task_walls, latencies = [], [], []
    start = time.perf_counter()
    while len(tasks) < run.workload.min_tasks or time.perf_counter() - start < seconds:
        result, wall = run.task(state)
        task_walls.append(wall)
        tasks.append(clock.rescale(wall))
        run.check(state, result)
        if result is not None:
            latencies += result.latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "task_s": (statistics.median(tasks), "s"),
    }
    extra = {"inputs": state["inputs"], "setup_s_all": setups, "task_s_all": tasks,
             "setup_wall_s_all": setup_walls, "task_wall_s_all": task_walls,
             "setup_wall_s": statistics.median(setup_walls),
             "task_wall_s": statistics.median(task_walls),
             "reference": {"kind": clock.reference.kind, "nominal_s": clock.nominal,
                           "runs_s": clock.samples}}
    if latencies:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        extra.update(predict_sent_per_s=len(latencies) / sum(latencies),
                     predict_ms_p50=cuts[49] * 1e3, predict_ms_p99=cuts[98] * 1e3,
                     predictions=len(latencies))
    return metrics, extra


def trace(run: Run, tracer_mod, workloads_mod) -> tuple[dict, dict]:
    state, setup_wall = run.setup()
    result, task_wall = run.task(state)
    run.check(state, result)
    untraced = setup_wall + task_wall
    tracer = tracer_mod.Tracer()
    tracer.install(workloads_mod)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        state, _ = run.setup()
        result, _ = run.task(state)
    finally:
        traced = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        tracer.uninstall()
    run.check(state, result)
    metrics = tracer.metrics()
    metrics["process.cpu_util"] = (cpu / traced, "ratio")
    own, kids = peak_rss_mb()
    metrics["process.peak_rss_mb"] = (own, "MB")
    metrics["process.children_peak_rss_mb"] = (kids, "MB")
    metrics["quality.target_f1"] = (run.target_f1[-1] if run.target_f1 else 0.0, "F1")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics, {"inputs": state["inputs"]}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracer_mod, hostref = import_program()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        run = Run(workloads.WORKLOADS[args.workload](), args.seed, scratch)
        if args.trace:
            measured, extra = trace(run, tracer_mod, workloads)
        else:
            measured, extra = measure(run, args.seconds, hostref)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": float(measured[m["name"]][0]), "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed),
              "error_rate": run.failed / max(run.attempted, 1),
              "target_f1": run.target_f1, **extra, "result": result}
    out_dir = ROOT / "bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for key in ("setup_wall_s", "task_wall_s", "predict_sent_per_s", "predict_ms_p50",
                "predict_ms_p99", "predictions"):
        if key in extra:
            print(f"{key:36s} {extra[key]:.6g}")
    print(f"{'error_rate':36s} {record['error_rate']:.6g} failed/attempted")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
