"""cransim sweep benchmark.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; cransim is imported from its src/. Each
workload runs in fresh worker processes (worker.py) with BLAS and OpenMP
threads set to 1 in the child environment only: the single-threaded
baseline, which also keeps 64x64 eigh/cholesky from contending for cores.
The loop is closed, one caller in one process.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a run that traces every other call. Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when an output check fails
(the result is still printed) or when no result could be produced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, LAYERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "cransim-bench"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Printed and recorded, but not in the result line: the per-run median flips
# between the machine's fast and slow phases (IQR/median over 10 seeds up to
# 0.22 on a 2-core VM), and fail_frac is normally 0, which is the line's
# failed/attempted anyway.
INFO_ONLY = ("sweep_ms_p50", "fail_frac")
SETUP_RUNS = 3          # set-up-only processes before and again after the measured one
TIME_LIMIT_S = 170.0    # per workload: every worker must have ended by then


class BenchError(Exception):
    """No result can be produced (worker crashed or timed out)."""


def run_worker(workload, seed, seconds, trace, deadline, setup_only=False):
    """Start one worker process, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload}: worker did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(durations):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(durations)
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def end_to_end(main, setups):
    durations = main["durations"]
    failed = main["failed"]
    tail_s, tail_pct = tail(durations)
    n = len(durations)
    return {
        "trials_per_s": (main["trials_per_sweep"] * n / sum(durations), "1/s",
                         f"{n} sweeps x {main['trials_per_sweep']} trials"),
        "sweep_ms_p50": (1e3 * statistics.median(durations), "ms", f"median of {n}"),
        "sweep_ms_tail": (1e3 * tail_s, "ms", f"p{tail_pct:.1f} of {n}"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
        "peak_rss_mb": (main["peak_rss_mib"], "MiB", "ru_maxrss of the worker"),
        "fail_frac": (failed / n, "1", f"{failed} of {n} sweeps failed or failed the check"),
    }


def per_layer(main):
    return {name: (value, unit, LAYERS.get(name.rsplit(".", 1)[0], ""))
            for name, (value, unit) in main["layers"].items()}


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics, attempted, failed, correct, record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    # set-up time drifts with the machine's load like everything else, so its
    # samples are spread over the run: the median of 2*SETUP_RUNS+1 processes
    extra = 0 if trace else SETUP_RUNS
    setups = [run_worker(name, seed, seconds, trace, deadline, setup_only=True)
              for _ in range(extra)]
    main = run_worker(name, seed, seconds, trace, deadline)
    setups += [main] + [run_worker(name, seed, seconds, trace, deadline, setup_only=True)
                        for _ in range(extra)]
    metrics = per_layer(main) if trace else end_to_end(main, [s["setup_s"] for s in setups])
    problems = list(dict.fromkeys(
        [p for s in setups for p in s["warmup_problems"]] + main["problems"]))
    attempted, failed = len(main["durations"]), main["failed"]
    correct = failed == 0 and not problems
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "default_seed": DEFAULT_SEED, "thread_env": THREAD_ENV,
              "env": main["env"], "attempted": attempted, "failed": failed,
              "problems": problems, "durations_s": main["durations"],
              "setup_s": [s["setup_s"] for s in setups],
              "metrics": {k: {"value": v, "unit": u, "note": note}
                          for k, (v, u, note) in metrics.items()}}
    if "trace_file" in main:
        record["trace_file"] = main["trace_file"]
    return metrics, attempted, failed, correct, record


def main(argv=None):
    p = argparse.ArgumentParser(description="cransim sweep benchmark")
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            metrics, n, nf, ok, record = run_workload(name, args.seed, args.seconds,
                                                      args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted, failed, correct = attempted + n, failed + nf, correct and ok
        result_path = WORK_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1))
        print(f"== {name} (seed {args.seed}, {n} timed sweeps, {nf} failed; "
              f"record in {result_path.relative_to(ROOT)})")
        print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
        for problem in record["problems"]:
            print(f"   output check failed: {problem}")
        for key, (value, unit, note) in metrics.items():
            print(f"   {key:56s} {value:14.6g} {unit:9s} {note}")
            if key in INFO_ONLY:
                continue
            all_metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                "value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
