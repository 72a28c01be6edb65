"""steinbreak benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 steinbench/run.py --workload mc-study --seed 1 --seconds 20 --trace 0

The workload makes its inputs from ``--seed`` and runs whole rounds until
``--seconds`` have passed, then checks every output.  With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` rounds run in
pairs, untraced then traced on the same inputs, and the result holds the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; the exit code is 1 when a check fails.
Run records and span dumps go to ``steinbench/out/<workload>/``.
"""

import time

_T0 = time.perf_counter()

import os

# Single-threaded BLAS: the process runs one thread, below any nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5

# What each generic end-to-end metric measures on each workload.
METRIC_MEANING = {
    "mc-study": {"ops_per_s": "mc_reps_per_s", "op_ms": "case2_rep_ms", "batch_s": "case1_study_s"},
    "bootstrap-fit": {"ops_per_s": "boot_reps_per_s", "op_ms": "fit_ms", "batch_s": "round_s"},
    "risk-verify": {"ops_per_s": "risk_points_per_s", "op_ms": "quad_point_ms", "batch_s": "verify_s"},
}
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms": "ms", "batch_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(METRIC_MEANING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "steinbreak" / "__init__.py").is_file():
        print(f"steinbreak sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import numpy
    import scipy

    import tracing
    import workloads

    import_s = time.perf_counter() - _T0
    out_dir = BENCH_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        gen_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_s)

    tracer = tracing.Tracer() if args.trace else None
    patches = tracing.Patches(tracer) if tracer else None
    attempted = failed = 0
    plain_s, traced_s = [], []
    start = time.perf_counter()
    r = 0
    while True:
        # In a traced run every round runs twice on the same inputs, once
        # traced, in alternating order; only the untraced copy's outputs
        # are kept, since the traced copy duplicates them.
        if patches is None:
            order = (False,)
        else:
            order = (False, True) if r % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                patches.install()
            t0 = time.perf_counter()
            try:
                a, f = workload.run_round(r, keep=not traced)
            finally:
                if traced:
                    patches.remove()
            (traced_s if traced else plain_s).append(time.perf_counter() - t0)
            attempted, failed = attempted + a, failed + f
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break

    fails = workload.check()
    threads = _threads()
    if threads > (os.cpu_count() or 1):
        fails.append(f"{threads} threads exceed the {os.cpu_count()} CPUs")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        metrics = tracer.layer_metrics(len(traced_s))
        metrics["trace.overhead_pct"] = 100.0 * statistics.median(
            t / p - 1.0 for t, p in zip(traced_s, plain_s)
        )
        units = {name: "ms" for name in tracing.TIME_METRICS}
        units.update({name: "count" for name in tracing.COUNT_METRICS})
        units["trace.overhead_pct"] = "%"
        (out_dir / "trace.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        metrics = dict(workload.metrics(), setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        units = UNITS
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "args": vars(args),
        "rounds": r,
        "round_s": plain_s,
        "traced_round_s": traced_s,
        "setup": {"import_s": import_s, "generate_s": gen_s},
        "meaning": METRIC_MEANING[args.workload],
        "check_failures": fails,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "threads": threads,
        },
        "result": result,
    }
    (out_dir / f"report_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    for msg in fails:
        print(f"CHECK FAILED: {msg}")
    for name, value in metrics.items():
        alias = METRIC_MEANING[args.workload].get(name)
        label = f"{name} ({alias})" if alias and not tracer else name
        print(f"{args.workload}: {label} = {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
