"""gmdiff benchmark: one workload per process, one Python thread.

    python3 perfbench/run.py --workload sample_ei_1d --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository; gmdiff is imported
from the checkout's src/. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics from traced ops with --trace 1. The lines
before it give the provenance of the run and its metrics by name and unit.
See README.md for the workloads and what each metric measures.
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
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import ROOT_SPAN, TARGETS, Tracer, install, span_name, uninstall

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MODULES = ("cli", "fileio", "samples", "mixture", "forward", "schedules",
           "solvers", "bounds", "metrics", "suite")
SETUP_REPEATS = 9
MIN_OPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_gmdiff(fresh: bool) -> SimpleNamespace:
    """Import the checkout's gmdiff modules; fresh=True drops any already
    imported gmdiff modules first, so the import itself is repeated."""
    import importlib

    if fresh:
        for key in [k for k in sys.modules if k == "gmdiff" or k.startswith("gmdiff.")]:
            del sys.modules[key]
    gm = SimpleNamespace(**{name: importlib.import_module(f"gmdiff.{name}")
                            for name in MODULES})
    origin = Path(gm.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        fail(f"imported gmdiff from {origin}, not from this checkout")
    return gm


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def timed_setup(workload) -> tuple[list[float], SimpleNamespace]:
    """Import, spec load, model build and warm-up pass, SETUP_REPEATS times."""
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        gm = load_gmdiff(fresh=rep > 0)
        workload.setup(gm)
        times.append(time.perf_counter() - start)
    return times, gm


def run_ops(workload, gm, seconds: float, trace: bool):
    """Alternate untraced and (with trace) traced ops until the time is used.

    Untraced ops wrap only the sampler entry point, to time the sampler call
    inside the op. Returns the untraced and traced (index, seconds, OpResult)
    records, the full tracer and the sampler-only tracer.
    """
    from workloads import OpResult

    tracer = Tracer()
    light = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        rec = tracer if is_traced else light
        undo = install(rec, gm, TARGETS if is_traced else
                       [workload.sampler] if workload.sampler else [])
        t0 = time.perf_counter()
        try:
            result = rec.run_op(index, workload.op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = OpResult(1, 1, 0.0, "", f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            uninstall(undo)
        (traced if is_traced else untraced).append((index, elapsed, result))
        index += 1
        used = time.perf_counter() - start
        typical = statistics.median(r[1] for r in untraced + traced)
        if index >= MIN_OPS * (2 if trace else 1) and used + typical > seconds:
            break
    return untraced, traced, tracer, light


def sampler_seconds(light, workload, index: int) -> float:
    name = ".".join(workload.sampler)
    return sum(s[2] - s[1] for s in light.spans if s[0] == name and s[4] == index)


def end_to_end(workload, setup_times, untraced, light) -> dict:
    solve = [elapsed for _, elapsed, _ in untraced]
    rates = []
    for index, elapsed, result in untraced:
        busy = sampler_seconds(light, workload, index) if workload.sampler else elapsed
        if result.work > 0 and busy > 0:
            rates.append(result.work / busy)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, untraced, traced, tracer) -> dict:
    by_total = sorted(traced, key=lambda rec: rec[1])
    index = by_total[len(by_total) // 2][0]        # the median traced op
    rows = tracer.breakdown(index)
    out = {}
    for module, qualname in TARGETS:
        name = span_name(module, qualname)
        row = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    root = rows[ROOT_SPAN]
    out["op.self_s"] = (root["self_s"], "s")
    out["op.total_s"] = (root["total_s"], "s")
    self_sum = sum(row["self_s"] for row in rows.values())
    out["trace.self_sum_rel_err"] = (abs(self_sum - root["total_s"]) / root["total_s"], "ratio")
    out["trace.spans_per_op"] = (sum(row["calls"] for row in rows.values()), "count")
    for name in ("solvers.make_score_model", "fileio.load_spec"):
        out[f"{name}.total_s"] = (rows.get(name, {"total_s": 0.0})["total_s"], "s")

    steps = workload.chain_steps if workload.sampler else 0
    evals = rows.get("solvers.ScoreModel.__call__", {"calls": 0})["calls"]
    out["solvers.score_evals_per_chain_step"] = (evals / steps if steps else 0.0, "count")
    calls_ms = sorted(1e3 * d for d in tracer.durations("solvers.ScoreModel.__call__"))
    for q, label in ((0.5, "p50_ms"), (0.99, "p99_ms")):
        value = calls_ms[min(len(calls_ms) - 1, int(q * len(calls_ms)))] if calls_ms else 0.0
        out[f"solvers.ScoreModel.__call__.{label}"] = (value, "ms")
    counts = tracer.counters[index]
    points = counts.get("bounds.region_mask.points", 0)
    out["bounds.region_mask.pass_frac"] = (
        counts.get("bounds.region_mask.passed", 0) / points if points else 0.0, "ratio")
    out["metrics.kl_histogram.clamped_cells"] = (
        counts.get("metrics.kl_histogram.clamped_cells", 0), "count")

    plain = statistics.median(e for _, e, _ in untraced)
    with_trace = statistics.median(e for _, e, _ in traced)
    out["trace.overhead_s"] = (with_trace - plain, "s")
    out["trace.overhead_frac"] = ((with_trace - plain) / plain, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one Python thread and single-threaded BLAS: the kernels are small and
    # the benchmark must not oversubscribe a shared machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "gmdiff" / "__init__.py").is_file():
        fail(f"no gmdiff sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup_times, gm = timed_setup(workload)
        untraced, traced, tracer, light = run_ops(workload, gm, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = untraced + traced
    attempted = sum(r.attempted for _, _, r in records)
    failed = sum(r.failed for _, _, r in records)
    problems = [r.detail for _, _, r in records if r.detail]
    if len({r.fingerprint for _, _, r in records}) != 1:
        problems.append("ops on identical inputs gave different outputs")
        failed += 1
    if args.trace:
        metrics = per_layer(workload, untraced, traced, tracer)
        trace_file = BENCH_DIR / "_work" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
    else:
        metrics = end_to_end(workload, setup_times, untraced, light)

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(f"setup runs (s): {', '.join(f'{t:.4f}' for t in setup_times)}; "
          f"ops: {len(untraced)} untraced, {len(traced)} traced")
    if args.trace:
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        print(f"work_per_s is {workload.work_unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
