"""Regenerate the golden results that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/data/make_golden.py

Writes one CSV per sweep case and views.json (best_dimension,
mi_proportion_sweep and run_trial results) into tests/data/golden/. The
files pin the numbers of the commit that wrote them, so run this only at a
commit whose numbers are trusted, and commit the outputs together.
"""

import json
from dataclasses import replace
from pathlib import Path

from cransim.compression import LLOYD_MAX_RATE_PENALTY
from cransim.harness import (MODES, SweepSpec, best_dimension, emit_csv,
                             mi_proportion_sweep, run_sweep, run_trial)
from cransim.scenario import SystemConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

BASE = SystemConfig(K=8, L=4, M=8, N=2, rho=10.0 ** 1.5, fronthaul_rate=8.0, rng_seed=11)
PILOT = replace(BASE, pilot_snr=10.0, rng_seed=23)
CANDIDATES = (1, 2, 3, 4, 6, 8)

# name -> (spec, csi, surcharge)
SWEEPS = {
    "rate_sweep": (SweepSpec(BASE, "fronthaul_rate", [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
                             trials=3, n_candidates=CANDIDATES), "perfect", 0.0),
    "rate_sweep_lloyd_max": (SweepSpec(BASE, "fronthaul_rate", [1.0, 4.0, 8.0, 16.0, 32.0],
                                       trials=3, n_candidates=CANDIDATES),
                             "perfect", LLOYD_MAX_RATE_PENALTY),
    "n_sweep_pilot": (SweepSpec(PILOT, "N", [1, 2, 4, 8], trials=3,
                                n_candidates=(2, 3)), "pilot", 0.0),
    "rho_sweep_pilot": (SweepSpec(PILOT, "rho", [1.0, 10.0, 100.0, 1000.0], trials=3,
                                  n_candidates=(1, 2, 4)), "pilot", 0.0),
    "pilot_snr_sweep": (SweepSpec(PILOT, "pilot_snr", [1.0, 10.0, 100.0, 1000.0],
                                  trials=4), "pilot", 0.0),
}


def _plain(x):
    return x.tolist() if hasattr(x, "tolist") else x


def compute_views():
    """best_dimension, mi_proportion_sweep and run_trial results as a JSON-ready dict."""
    best = {
        "perfect": best_dimension(BASE, 4.0, CANDIDATES, trials=4),
        "pilot": best_dimension(PILOT, 4.0, CANDIDATES, trials=4, csi="pilot"),
        "lloyd_max": best_dimension(BASE, 16.0, CANDIDATES, trials=4,
                                    surcharge=LLOYD_MAX_RATE_PENALTY),
    }
    table = mi_proportion_sweep(BASE, rho_values=[1.0, 10.0, 1000.0],
                                n_values=[1, 2, 4, 8], trials=3)
    trials = {}
    for csi, cfg in (("perfect", BASE), ("pilot", PILOT)):
        for mode in MODES:
            metrics = run_trial(cfg, mode=mode, csi=csi, trial=2).metrics
            trials[f"{mode}/{csi}"] = {k: _plain(v) for k, v in sorted(metrics.items())}
    return {
        "best_dimension": {k: [int(n), float(c)] for k, (n, c) in best.items()},
        "mi_proportion_sweep": table.tolist(),
        "run_trial": trials,
    }


def compute_sweep(name):
    spec, csi, surcharge = SWEEPS[name]
    return run_sweep(spec, csi=csi, surcharge=surcharge)


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in SWEEPS:
        emit_csv(compute_sweep(name), GOLDEN_DIR / f"{name}.csv")
    with open(GOLDEN_DIR / "views.json", "w") as f:
        json.dump(compute_views(), f, indent=1)
        f.write("\n")
    print(f"wrote {len(SWEEPS)} sweeps and views.json to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
