"""Command-line entry point: `cransim {sweep,trial,validate}`."""

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .compression import LLOYD_MAX_RATE_PENALTY
from .harness import (CSI_MODES, MODES, PERFECT_CSI, csi_mode, emit_csv, run_sweep,
                      run_trial, sweep_spec_from_dict, system_config_from_dict)
from .validation import run_validation


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override the master RNG seed")
    p.add_argument("--csi", choices=CSI_MODES, default=None,
                   help="CSI mode (default: set by pilot_snr); perfect overrides pilot_snr")
    p.add_argument("--lloyd-max", action="store_true",
                   help=f"charge {LLOYD_MAX_RATE_PENALTY} bits per quantised scalar for "
                        "fixed-rate Lloyd-Max quantisation")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cransim",
        description="Dimension-reduction fronthaul compression experiments for "
                    "distributed MIMO uplink C-RAN")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a JSON config, write CSV")
    p.add_argument("--config", required=True, help="path to a sweep config (JSON)")
    p.add_argument("--output", required=True, help="path of the CSV file to write")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    _add_common(p)

    p = sub.add_parser("trial", help="run one realization and print verbose diagnostics")
    p.add_argument("--config", required=True, help="path to a sweep config (JSON); "
                                                   "only its system section is used")
    p.add_argument("--mode", choices=MODES, default="proposed")
    p.add_argument("--trial", type=int, default=0, help="trial index within the seed's streams")
    _add_common(p)

    p = sub.add_parser("validate", help="run the oracle/invariant suite and report pass/fail")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _resolved(args):
    sweep = args.command == "sweep"
    with open(args.config) as f:
        spec = (sweep_spec_from_dict if sweep else system_config_from_dict)(json.load(f))
    base = spec.base if sweep else spec
    base = replace(base, rng_seed=base.rng_seed if args.seed is None else args.seed,
                   pilot_snr=PERFECT_CSI if args.csi == "perfect" else base.pilot_snr)
    if sweep:   # one replace per level: each builds and validates the configs under it once
        spec = replace(spec, base=base, trials=spec.trials if args.trials is None else args.trials)
    runs = spec.configs if sweep else [base]
    if args.csi is not None and any(csi_mode(cfg.pilot_snr) != args.csi for cfg in runs):
        raise ValueError(f"csi mode '{args.csi}' requires "
                         + ("a numeric pilot_snr in the config" if args.csi == "pilot"
                            else "pilot_snr 'perfect', which a pilot_snr sweep replaces"))
    if sweep:
        out = Path(args.output)
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError(f"--output must be a file in an existing directory, got {str(out)!r}")
    return spec if sweep else base, LLOYD_MAX_RATE_PENALTY if args.lloyd_max else 0.0


def _cmd_sweep(args, spec, surcharge):
    rows = run_sweep(spec, surcharge=surcharge)
    emit_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_trial(args, cfg, surcharge):
    record = run_trial(cfg, mode=args.mode, trial=args.trial, surcharge=surcharge)

    print(f"mode={args.mode} csi={record.csi_mode} trial={args.trial} seed={cfg.rng_seed}")
    print(f"K={cfg.K} L={cfg.L} M={cfg.M} N={cfg.N} rho={cfg.rho:.6g} "
          f"R={cfg.fronthaul_rate:.6g} pilot_snr={cfg.pilot_snr}")
    diag = record.diagnostics
    if "users" in diag:
        for l, picks in enumerate(diag["users"].tolist()):
            print(f"receiver {l}: selected users {[k for k in picks if k >= 0]}")
        traj = np.array2string(diag["mi_trajectory"], precision=4, separator=", ")
        print(f"mutual-information trajectory (bits): {traj}")
    if "lam" in diag:
        for l, active in enumerate(diag["active"]):
            lam, rates, phi = (np.array2string(diag[name][l], precision=4, separator=", ")
                               for name in ("lam", "rates", "Phi"))
            print(f"receiver {l}: eigenvalues {lam}")
            print(f"receiver {l}: rates {rates} (active {active})")
            print(f"receiver {l}: quantisation noise {phi}")
    for name in ("sum_capacity", "lmmse_sum_capacity", "reduced_mi", "full_mi", "cutset"):
        if name in record.metrics:
            print(f"{name}: {record.metrics[name]:.6f}")
    if "user_capacity" in record.metrics:
        user = np.array2string(record.metrics["user_capacity"], precision=4, separator=", ")
        print(f"per-user LMMSE capacity: {user}")
    return 0


def _cmd_validate(args):
    results = run_validation(seed=args.seed)
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f" ({detail})" if detail else ""))
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate":
        if args.seed < 0:   # as a config's rng_seed: numpy's seeding would raise mid-run
            parser.exit(2, f"{parser.prog}: error: rng_seed must be a non-negative integer\n")
        return _cmd_validate(args)
    command = _cmd_sweep if args.command == "sweep" else _cmd_trial
    try:
        return command(args, *_resolved(args))
    except (OSError, ValueError) as exc:    # json.JSONDecodeError is a ValueError
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
