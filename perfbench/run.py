#!/usr/bin/env python3
"""gradtopo benchmark: one run of one workload.

    python3 perfbench/run.py --workload cantilever-100x50 --seed 1 --seconds 58 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
run alternates rounds of set-up repetitions, on export-stl blocks of a
reference computation, and jobs until --seconds is used (at least one
job), checking every job's outputs.  With --trace 0 nothing is traced and the end-to-end
metrics are reported.  With --trace 1 a child process first measures
peak_rss_mb (see PROBE_ENV), its time counting in --seconds; then
untraced and traced jobs alternate and the per-layer metrics are reported,
the spans being written to .perfbench/traces/.  The second-to-last line of
standard output is a detail report (environment, sample counts, results,
checks); the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exit codes: 0 with a result, 2 when the checkout has no program to run.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client, one BLAS thread (<= nproc), set before numpy is loaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

# peak_rss_mb comes from a child process that sets up and runs one job with
# glibc's mmap threshold fixed at its default (128 KiB).  With the threshold
# left dynamic, as in the timed process, freed arrays raise it, later arrays
# come from the heap, and the peak depends on the heap's layout: one 100x50
# seed read 215, 233 and 264 MB from three checkouts differing by path or a
# comment.  With it fixed, every large array is mapped and unmapped whole
# and the peak is the live memory (121 MB, to 0.5 %).
PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
PROBE_TIMEOUT_S = 120

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def environment() -> dict:
    import numpy
    import scipy
    import scipy.__config__

    def blas(config):
        return config.CONFIG["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.__config__),
        "scipy_openblas": blas(scipy.__config__),
        "run_env": {var: os.environ.get(var) for var in (*THREAD_VARS, *PROBE_ENV)},
        "probe_env": PROBE_ENV,
        "machine": platform.machine(),
    }


def peak_rss_probe(workload: str, seed: int) -> dict | None:
    """Run the peak-RSS probe; its result, or None if it did not finish."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--peak-rss-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PROBE_ENV},
                              capture_output=True, text=True, check=False,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    report = json.loads(lines[-2].removeprefix("perfbench-report "))
    return {"correct": json.loads(lines[-1])["correct"], "failures": report["failures"],
            "peak_rss_mb": report["metrics"]["peak_rss_mb"]["value"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_rss_probe:
        args.seconds, args.trace = 0, 0

    src = ROOT / "src"
    if not (src / "gradtopo" / "__init__.py").is_file():
        print(f"perfbench: no gradtopo package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import RESULT_METRICS, WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    probe = None
    seconds = args.seconds
    if args.trace:
        t0 = time.perf_counter()
        probe = peak_rss_probe(args.workload, args.seed)
        seconds = max(0.0, seconds - (time.perf_counter() - t0))

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    try:
        run = Run(args.workload, args.seed, seconds, bool(args.trace), workdir)
        run.measure()
        if args.peak_rss_probe:
            metrics = {"peak_rss_mb": (run.peak_rss_mb, "MB", 1)}
            result_names = list(metrics)
            trace_file = None
        elif args.trace:
            ok = probe is not None and probe["correct"]
            run.checks.record(ok, f"peak-RSS probe: {probe and probe['failures']}")
            metrics = run.per_layer()
            # a failed probe fails the run; the value then is this process's
            rss = probe["peak_rss_mb"] if ok else run.peak_rss_mb
            metrics["peak_rss_mb"] = (rss, "MB", 1)
            result_names = list(metrics)
            traces = OUT / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
            run.tracer.write(str(trace_file))
        else:
            metrics = run.end_to_end()
            # this process's peak after set-up and one job: the heap's layout
            # moves it by up to a quarter, so it is reported here, not bounded
            metrics["process_peak_rss_mb"] = (run.peak_rss_mb, "MB", 1)
            result_names = RESULT_METRICS
            trace_file = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run.checks
    failed = len(checks.failures)
    fields = ("iterations", "converged", "compliance", "m_chi", "objective",
              "history_sha256")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "metrics": {name: {"value": value, "unit": unit, "n": n}
                    for name, (value, unit, n) in metrics.items()},
        "checks": {"attempted": checks.attempted, "failed": failed,
                   "base": "one per iteration, per job's outputs and exit code, per STL, "
                           "per traced job, the peak-RSS probe of a traced run"},
        "failures": checks.failures[:10],
        "jobs": [{"traced": j["traced"], "total_s": j["total_s"], "scale": j["scale"],
                  **{k: j[k] for k in fields if k in j}} for j in run.jobs],
        "missing_wrappers": run.missing,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in result_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
