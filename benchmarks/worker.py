"""One benchmark process: set up, run timed `cransim sweep` calls, check every CSV.

run.py starts it in a fresh process per measurement, with BLAS and OpenMP
threads set to 1 in its environment. Set-up (import, config, one untimed
1-trial warm-up sweep at the default seed, checked against its reference) is
timed from `--t0`, the parent's CLOCK_MONOTONIC reading just before it
started this process. The last line on stdout is one JSON object with the
raw measurements.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from check import check_ordering, check_shape, compare_reference, read_rows
from tracer import Tracer
from workloads import DEFAULT_SEED, LAYERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
MIN_SWEEPS = 11       # the tail percentile needs ten samples beyond it
MAX_PROBLEMS = 5      # problems kept per run for the report


def import_cransim():
    """Import cransim from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cransim
        import cransim.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import cransim from {src}: {exc}") from exc
    if Path(cransim.__file__).resolve().parent != (src / "cransim").resolve():
        raise SystemExit(f"imported cransim from {cransim.__file__}, not from {src}")
    return cransim


def git_commit():
    """Commit of the checkout from .git, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over src/cransim/*.py, identifying the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cransim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(cransim):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "cransim": cransim.__version__,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def check_output(path, workload, seed, trials, ref_name=None):
    """All output-check problems of one sweep's CSV (empty when it passes)."""
    rows = read_rows(path)
    ref_name = ref_name or workload.name
    ref = read_rows(REFERENCE_DIR / f"{ref_name}.csv")
    problems = check_shape(rows, ref, trials, seed) + check_ordering(rows)
    if seed == DEFAULT_SEED:
        problems += compare_reference(rows, ref)
    return problems


def write_config(workload, seed, trials, path):
    with open(path, "w") as f:
        json.dump(workload.config(seed, trials), f, indent=1)


def timed_sweeps(cli, workload, argv, out_path, seed, seconds, tracer=None):
    """Call cli.main(argv) until `seconds` have passed; check every CSV.

    With a tracer every other call is traced, so traced and untraced calls
    interleave under the same machine conditions.
    """
    durations, traced, problems = [], [], []
    failed = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(durations) < MIN_SWEEPS:
        trace_this = tracer is not None and len(durations) % 2 == 1
        if trace_this:
            tracer.install()
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        dt = time.perf_counter() - t
        if trace_this:
            tracer.restore()
        found = [f"cli.main returned {rc}"] if rc != 0 else check_output(
            out_path, workload, seed, workload.trials)
        problems.extend(found[:MAX_PROBLEMS - len(problems)])
        failed += bool(found)
        durations.append(dt)
        traced.append(trace_this)
    return durations, traced, failed, problems


def layer_metrics(tracer, durations, traced, trials):
    """Per-layer metrics of the traced calls, plus tracing overhead and coverage."""
    t_traced = sum(d for d, tr in zip(durations, traced) if tr)
    t_plain = sum(d for d, tr in zip(durations, traced) if not tr)
    n_traced = trials * sum(traced)
    n_plain = trials * (len(durations) - sum(traced))
    metrics = {}
    total_self = 0.0
    for label, (calls, busy) in tracer.summary().items():
        metrics[f"{label}.calls_per_trial"] = (calls / n_traced, "1/trial")
        metrics[f"{label}.self_us_per_trial"] = (busy * 1e6 / n_traced, "us/trial")
        total_self += busy
    plain_tps, traced_tps = n_plain / t_plain, n_traced / t_traced
    metrics["trace.overhead_pct"] = (100.0 * (plain_tps - traced_tps) / plain_tps, "%")
    metrics["trace.accounted_pct"] = (100.0 * total_self / t_traced, "%")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cransim = import_cransim()
    cli = sys.modules["cransim.cli"]
    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    tag = f"{workload.name}-{os.getpid()}"
    cfg_path, out_path = work / f"{tag}.json", work / f"{tag}.csv"
    warm_cfg, warm_out = work / f"{tag}-warmup.json", work / f"{tag}-warmup.csv"
    write_config(workload, args.seed, workload.trials, cfg_path)
    write_config(workload, DEFAULT_SEED, 1, warm_cfg)
    if cli.main(workload.argv(warm_cfg, warm_out, DEFAULT_SEED)) != 0:
        raise SystemExit("warm-up sweep failed")
    setup_s = time.monotonic() - args.t0
    warmup_problems = check_output(warm_out, workload, DEFAULT_SEED, 1,
                                   ref_name=f"{workload.name}-warmup")

    result = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s,
              "warmup_problems": warmup_problems[:MAX_PROBLEMS]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer("cransim", LAYERS, workload=workload.name)
            for label in tracer.missing:
                print(f"warning: cransim.{label} not found; reported as 0 calls",
                      file=sys.stderr)
        durations, traced, failed, problems = timed_sweeps(
            cli, workload, workload.argv(cfg_path, out_path, args.seed), out_path,
            args.seed, args.seconds, tracer)
        result.update(
            trials_per_sweep=workload.trials, durations=durations, failed=failed,
            problems=problems, env=environment(cransim),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, durations, traced, workload.trials)
            trace_path = work / f"trace-{workload.name}-seed{args.seed}.npz"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    for path in (cfg_path, out_path, warm_cfg, warm_out):
        path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
