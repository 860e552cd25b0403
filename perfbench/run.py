"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last line of standard
output holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics of a traced pass, which follows an untraced pass
of the same length so that the tracing overhead can be stated. Progress and
a readable table go to standard error.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# At these sizes a second BLAS thread gains nothing measurable, and on a shared
# machine it waits whenever another process holds the other core: with one core
# busy, evaluate took three times as long at two threads and no longer at one.
BLAS_THREADS = 1


def set_blas_threads() -> None:
    """Set every BLAS thread pool to BLAS_THREADS. Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def end_to_end(w, p) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_seconds),
        "train_samples_per_s": p.train_rate(w),
        "eval_samples_per_s": p.eval_rate(w),
        "infer_ms.p50": statistics.median(p.infer_ms()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "podfcr" / "__init__.py").is_file():
        fail(f"no podfcr sources under {ROOT / 'src'}; run from a repository checkout")
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    set_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    env = (f"nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
           f"numpy={np.__version__} python={platform.python_version()}")
    print(f"perfbench: workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {env}", file=sys.stderr)

    np.seterr(all="ignore")
    t_run = time.perf_counter()
    try:
        if args.trace:
            base = workloads.run_pass(w, args.seed, args.seconds / 2, work / "untraced", 0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                p = workloads.run_pass(w, args.seed, args.seconds / 2, work / "traced", 0, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            untraced, traced = base.train_rate(w), p.train_rate(w)
            metrics["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
            passes = [base, p]
        else:
            p = workloads.run_pass(w, args.seed, args.seconds, work,
                                   workloads.SETUPS_PER_ROUND)
            metrics = end_to_end(w, p)
            passes = [p]
        failures = [f for q in passes for f in workloads.check_pass(w, args.seed, q)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(w.round_ops for q in passes for _ in q.rounds)
    failed = sum(r.failed for q in passes for r in q.rounds)
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not measured: {missing}")
    errors = [e for q in passes for r in q.rounds for e in r.errors]
    for line in errors + failures:
        print(f"perfbench: FAIL {line}", file=sys.stderr)

    rounds = sum(len(q.rounds) for q in passes)
    print(f"perfbench: {rounds} rounds, {attempted} operations, {failed} failed, "
          f"{time.perf_counter() - t_run:.1f} s", file=sys.stderr)
    for name in units:
        print(f"  {name:<44} {metrics[name]:>14.4f} {units[name]}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
