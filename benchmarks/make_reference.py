"""Regenerate the reference CSVs the output check compares against.

    python3 benchmarks/make_reference.py

Writes reference/<workload>.csv (a timed sweep at the default seed) and
reference/<workload>-warmup.csv (the 1-trial warm-up sweep) with the cransim
in this checkout's src/. Only for a change that is meant to alter results.
"""

import tempfile
from pathlib import Path

from worker import REFERENCE_DIR, import_cransim, write_config
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    import_cransim()
    from cransim import cli
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as tmp:
        cfg = Path(tmp) / "config.json"
        for w in WORKLOADS.values():
            for suffix, trials in (("", w.trials), ("-warmup", 1)):
                write_config(w, DEFAULT_SEED, trials, cfg)
                out = REFERENCE_DIR / f"{w.name}{suffix}.csv"
                if cli.main(w.argv(cfg, out, DEFAULT_SEED)) != 0:
                    raise SystemExit(f"{w.name}: sweep failed")


if __name__ == "__main__":
    main()
