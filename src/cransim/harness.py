"""Batch experiment driver: seeded Monte-Carlo trials, sweeps, aggregation, CSV.

A master seed plus a trial index deterministically derive independent generator
sub-streams (one for channel generation, one for pilot noise), so trials are
reproducible regardless of execution order and channel draws stay paired
across modes, sweep values and CSI settings.
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import capacity as cap
from .compression import build_plan
from .csi import CsiModel, estimate_channels, whiten
from .dimred import (DimensionReductionResult, full_joint_mi, mfgs_select,
                     signal_space_basis)
from .scenario import SystemConfig, generate_realization

CONFIG_SCHEMA = "cransim-sweep-v1"

MODES = ("proposed", "local_baseline", "unquantized", "cutset")
CSI_MODES = ("perfect", "pilot")
_CSI_LABELS = {"perfect": "perfect", "pilot": "lower-bound"}
SWEEP_VARIABLES = ("fronthaul_rate", "rho", "N", "pilot_snr")

OUTPUTS = ("sum_capacity", "user_capacity", "baseline", "mi_proportion", "cutset", "best_n")

# (mode, metric) rows switched on by each requested output, in emission order
_OUTPUT_ROWS = {
    "sum_capacity": (("proposed", "sum_capacity"), ("proposed", "lmmse_sum_capacity")),
    "user_capacity": (("proposed", "user_capacity"),),
    "best_n": (("best_n", "sum_capacity"),),
    "baseline": (("local_baseline", "sum_capacity"),
                 ("local_baseline", "lmmse_sum_capacity"),
                 ("local_baseline", "user_capacity")),
    "mi_proportion": (("unquantized", "reduced_mi"), ("unquantized", "full_mi"),
                      ("unquantized", "mi_proportion")),
    "cutset": (("cutset", "cutset"),),
}

CSV_COLUMNS = ("sweep_var", "value", "mode", "csi_mode", "N", "metric",
               "mean", "p05", "trials", "seed")


@dataclass
class SweepSpec:
    """One batch experiment: a base configuration plus the variable swept over it.

    outputs defaults to everything applicable (best-N selection only when
    n_candidates is given).
    """

    base: SystemConfig
    sweep_variable: str
    values: list
    trials: int = 500
    outputs: tuple | None = None
    n_candidates: tuple = ()

    def __post_init__(self):
        if self.outputs is None:
            self.outputs = OUTPUTS if self.n_candidates else tuple(
                o for o in OUTPUTS if o != "best_n")
        self.outputs = tuple(self.outputs)
        self.validate()

    def validate(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep_variable must be one of {SWEEP_VARIABLES}")
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = set(self.outputs) - set(OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}; valid: {OUTPUTS}")
        if "best_n" in self.outputs and not self.n_candidates:
            raise ValueError("output 'best_n' requires a non-empty n_candidates list")
        maxc = self.base.max_components
        if any(not 1 <= int(n) <= maxc for n in self.n_candidates):
            raise ValueError(f"n_candidates must lie in [1, {maxc}]")
        for v in self.values:
            # constructing the per-value config runs the full field validation
            replace(self.base, **{self.sweep_variable: v})


@dataclass
class TrialRecord:
    """Metrics of one (realization, mode) evaluation, reproducible from (config, seed, trial)."""

    trial: int
    seed: int
    config: SystemConfig
    mode: str
    csi_mode: str
    metrics: dict
    details: dict | None = None


@dataclass
class SweepRow:
    """One aggregated CSV row."""

    sweep_var: str
    value: float
    mode: str
    csi_mode: str
    N: int
    metric: str
    mean: float
    p05: float
    trials: int
    seed: int


def trial_stream(master_seed, trial, lane=0):
    """Independent generator sub-stream for (trial, lane), derived from the master seed.

    Lane 0 carries channel generation, lane 1 pilot noise; re-creating a lane
    replays it, which keeps draws paired across modes and sweep values.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial, lane)))


def _check_dimension_advice(config):
    if config.N < math.ceil(config.K / config.L):
        warnings.warn(
            f"N = {config.N} is below ceil(K/L) = {math.ceil(config.K / config.L)}; "
            "the reduced signals cannot span all users and performance will suffer",
            stacklevel=3)


def _check_csi(csi, configs):
    """CSI configuration errors, raised as ValueError before any trial runs."""
    if csi not in CSI_MODES:
        raise ValueError(f"csi must be one of {CSI_MODES}")
    if csi == "pilot" and any(isinstance(cfg.pilot_snr, str) for cfg in configs):
        raise ValueError("csi mode 'pilot' requires a numeric pilot_snr in the config")


@dataclass
class _Design:
    """Rate-independent state of one (trial, rho, CSI state), shared by every mode, rate and N.

    H holds the design channels: the truth under perfect CSI, the whitened
    estimates under pilot CSI, where H_true, omega_inv_sqrt and csi_model
    carry the rest of the CSI state (None under perfect CSI). selection is one
    greedy run at the largest dimension any caller reads: by the prefix
    property its first n rounds are the run at n. cutset_mi is the
    full-dimension MI of the true channels, which the cut-set bound uses.
    """

    rho: float
    H: list
    H_true: list | None
    omega_inv_sqrt: list | None
    csi_model: CsiModel | None
    full_mi: float
    cutset_mi: float
    selection: DimensionReductionResult | None
    baseline_Q: list | None


def _design(channels, config, csi, pilot_rng_factory, nmax, baseline):
    """Build the _Design of one realization; nmax = 0 skips selection."""
    rho, H, H_true, omega_inv_sqrt, model = config.rho, channels.H, None, None, None
    if csi == "pilot":
        model = estimate_channels(channels, config.pilot_snr, pilot_rng_factory())
        H, omega_inv_sqrt = whiten(model, rho)
        H_true = channels.H
    full_mi = full_joint_mi(H, rho)
    return _Design(rho=rho, H=H, H_true=H_true, omega_inv_sqrt=omega_inv_sqrt,
                   csi_model=model, full_mi=full_mi,
                   cutset_mi=full_mi if H_true is None else full_joint_mi(H_true, rho),
                   selection=mfgs_select(H, rho, nmax) if nmax else None,
                   baseline_Q=signal_space_basis(H) if baseline else None)


_CAPACITY_METRICS = {"sum_capacity", "lmmse_sum_capacity", "user_capacity", "sqinr"}
_LMMSE_METRICS = {"lmmse_sum_capacity", "user_capacity", "sqinr"}
_TRIAL_METRICS = _CAPACITY_METRICS | {"reduced_mi", "full_mi", "mi_proportion", "cutset"}


def _n_column(mode, config):
    """Dimension a mode's rows use (and report in the CSV N column)."""
    return {"proposed": config.N, "unquantized": config.N,
            "local_baseline": config.max_components, "cutset": 0}[mode]


def _evaluate(design, mode, n, R, wanted, surcharge):
    """The metrics in `wanted` for one (mode, n, R) on a design. Returns (metrics, plan).

    The only place the harness builds a compression plan and computes
    capacities; both happen only when a capacity metric is wanted.
    """
    rho, H, sel = design.rho, design.H, design.selection
    out = {"full_mi": design.full_mi, "cutset": min(R * len(H), design.cutset_mi)}
    if mode != "cutset":
        out["reduced_mi"] = (design.full_mi if mode == "local_baseline"   # lossless basis
                             else float(sel.mi_trajectory[n * len(H) - 1]))
        out["mi_proportion"] = (out["reduced_mi"] / design.full_mi
                                if design.full_mi > 0 else 0.0)

    plan = None
    if wanted & _CAPACITY_METRICS:
        Q = design.baseline_Q if mode == "local_baseline" else [Ql[:, :n] for Ql in sel.Q]
        if mode == "unquantized":
            G = [Ql.conj().T @ Hl for Ql, Hl in zip(Q, H)]
            phi = [np.zeros(Gl.shape[0]) for Gl in G]
        else:
            plan = build_plan(Q, H, R, rho, H_true_list=design.H_true,
                              omega_inv_sqrt_list=design.omega_inv_sqrt, surcharge=surcharge)
            G, phi = plan.active_channels()
        K = H[0].shape[1]
        if "sum_capacity" in wanted:
            out["sum_capacity"] = cap.sum_capacity(G, phi, rho, K=K)
        if wanted & _LMMSE_METRICS:
            out["sqinr"], out["user_capacity"] = cap.lmmse_sqinr(G, phi, rho, K=K)
            out["lmmse_sum_capacity"] = float(np.sum(out["user_capacity"]))
    return {m: v for m, v in out.items() if m in wanted}, plan


def run_trial(config, mode="proposed", csi="perfect", trial=0, surcharge=0.0,
              details=False):
    """Run the full pipeline for one realization and one mode.

    The realization is reproduced from (config.rng_seed, trial), so calling
    with different modes but the same trial index evaluates the same channels.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_csi(csi, [config])
    selects = mode in ("proposed", "unquantized")
    if selects:
        _check_dimension_advice(config)
    channels = generate_realization(config, trial_stream(config.rng_seed, trial, 0))
    n = _n_column(mode, config)
    wanted = {"cutset", "full_mi"} if mode == "cutset" else _TRIAL_METRICS
    try:
        design = _design(channels, config, csi, lambda: trial_stream(config.rng_seed, trial, 1),
                         n if selects else 0, mode == "local_baseline")
        metrics, plan = _evaluate(design, mode, n, config.fronthaul_rate, wanted, surcharge)
    except Exception as exc:
        raise RuntimeError(f"trial {trial} failed in mode '{mode}' (csi={csi})") from exc
    det = None
    if details and mode != "cutset":
        det = {"selection": design.selection, "plan": plan, "channels": channels,
               "csi": design.csi_model}
    return TrialRecord(trial=trial, seed=config.rng_seed, config=config, mode=mode,
                       csi_mode=_CSI_LABELS[csi], metrics=metrics, details=det)


def best_dimension(config, R, n_candidates, trials, csi="perfect", surcharge=0.0):
    """Pick the reduced dimension maximising mean sum capacity at fronthaul rate R.

    A view of run_sweep's best_n output on the single value R. Returns
    (best_n, best_mean_capacity); ties go to the smaller N.
    """
    spec = SweepSpec(base=config, sweep_variable="fronthaul_rate", values=[R],
                     trials=trials, outputs=("best_n",), n_candidates=tuple(n_candidates))
    (row,) = run_sweep(spec, csi=csi, surcharge=surcharge)
    return row.N, row.mean


def mi_proportion_sweep(config, rho_values, n_values, trials):
    """Mean captured proportion of the full-dimension MI, over an (SNR, N) grid.

    Returns an array of shape (len(rho_values), len(n_values)) with
    E[reduced MI / full MI] under perfect CSI. The grid is one batch of the
    sweep kernel: each trial draws its channels once, and one greedy run per
    (trial, SNR) serves every N.
    """
    n_values = [int(n) for n in n_values]
    grid = [(rho, n) for rho in rho_values for n in n_values]
    configs = [replace(config, rho=rho, N=n) for rho, n in grid]
    samples = _collect(config, configs, [f"rho={rho}, N={n}" for rho, n in grid],
                       trials, "perfect", 0.0, {"unquantized": {"mi_proportion"}}, [])
    means = [np.mean(samples[(i, "unquantized", n, "mi_proportion")])
             for i, (_, n) in enumerate(grid)]
    return np.reshape(means, (len(rho_values), len(n_values)))


def _collect(base, configs, labels, trials, csi, surcharge, read, cands):
    """Per-trial samples of every evaluation the configs need.

    read maps each mode to the metrics its rows read; each best-N candidate
    in cands adds a proposed sum capacity. Returns lists keyed by (config
    index, mode, n, metric). Per trial, one design serves every config with
    the same SNR and CSI state, so results do not depend on which configs
    share a batch. A failure is re-raised as a RuntimeError naming the trial,
    the config's label, the mode and the CSI mode.
    """
    dims = [cfg.N for cfg in configs] if read.keys() & {"proposed", "unquantized"} else []
    nmax = max(dims + cands, default=0)

    # per config: (mode, n) -> metrics; proposed at cfg.N doubles as best-N candidate cfg.N
    evaluations = []
    for cfg in configs:
        ev = {(mode, _n_column(mode, cfg)): set(metrics) for mode, metrics in read.items()}
        for n in cands:
            ev.setdefault(("proposed", n), set()).add("sum_capacity")
        evaluations.append(ev)

    samples = {}
    for trial in range(trials):
        channels = generate_realization(base, trial_stream(base.rng_seed, trial, 0))
        designs = {}
        for ci, cfg in enumerate(configs):
            mode = n = None
            try:
                key = (cfg.pilot_snr if csi == "pilot" else "perfect", cfg.rho)
                if key not in designs:
                    designs[key] = _design(channels, cfg, csi,
                                           lambda: trial_stream(base.rng_seed, trial, 1),
                                           nmax, "local_baseline" in read)
                for (mode, n), wanted in evaluations[ci].items():
                    metrics, _ = _evaluate(designs[key], mode, n, cfg.fronthaul_rate,
                                           wanted, surcharge)
                    for metric, value in metrics.items():
                        samples.setdefault((ci, mode, n, metric), []).append(value)
            except Exception as exc:
                step = "the design step" if mode is None else f"mode '{mode}' at N={n}"
                raise RuntimeError(f"trial {trial} failed at {labels[ci]} in {step} "
                                   f"(csi={csi})") from exc
    return samples


def run_sweep(spec, csi="perfect", surcharge=0.0):
    """Run a full Monte-Carlo sweep and aggregate it into CSV-ready rows.

    Trials are paired: every sweep value and mode sees the same channel draws
    (and the same pilot noise under pilot CSI). One greedy selection per trial
    and SNR/CSI state, at the largest dimension any row needs, serves every
    value, mode and best-N candidate through the prefix property, so results
    do not depend on which values share a sweep. A failure is re-raised as a
    RuntimeError naming the trial, sweep value, mode and CSI mode.
    """
    base = spec.base
    configs = [replace(base, **{spec.sweep_variable: v}) for v in spec.values]
    _check_csi(csi, configs)
    rows_wanted = [row for output in spec.outputs for row in _OUTPUT_ROWS[output]]
    cands = sorted({int(n) for n in spec.n_candidates}) if "best_n" in spec.outputs else []
    read = {}   # mode -> metrics its rows read
    for mode, metric in rows_wanted:
        if mode != "best_n":
            read.setdefault(mode, set()).add(metric)
    if read.keys() & {"proposed", "unquantized"}:
        for cfg in configs:
            _check_dimension_advice(cfg)
    samples = _collect(base, configs, [f"{spec.sweep_variable}={v}" for v in spec.values],
                       spec.trials, csi, surcharge, read, cands)

    rows = []
    for ci, (v, cfg) in enumerate(zip(spec.values, configs)):
        for mode, metric in rows_wanted:
            if mode == "best_n":
                n = max(cands, key=lambda c: np.mean(samples[(ci, "proposed", c, metric)]))
                data = samples[(ci, "proposed", n, metric)]
            else:
                n = _n_column(mode, cfg)
                data = samples[(ci, mode, n, metric)]
            # user capacities pool trials x users into one sample
            data = (np.concatenate(data) if metric == "user_capacity"
                    else np.asarray(data, dtype=float))
            rows.append(SweepRow(sweep_var=spec.sweep_variable, value=float(v), mode=mode,
                                 csi_mode=_CSI_LABELS[csi], N=int(n), metric=metric,
                                 mean=float(np.mean(data)),
                                 p05=float(np.percentile(data, 5.0)),
                                 trials=spec.trials, seed=base.rng_seed))
    return rows


def _fmt(x):
    return format(float(x), ".17g")


def emit_csv(rows, path):
    """Write aggregated rows as CSV with round-trippable 17-significant-digit floats."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.sweep_var, _fmt(r.value), r.mode, r.csi_mode, int(r.N),
                             r.metric, _fmt(r.mean), _fmt(r.p05), int(r.trials),
                             int(r.seed)])


def read_csv(path):
    """Parse a file produced by emit_csv back into SweepRow objects."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {reader.fieldnames}")
        for rec in reader:
            rows.append(SweepRow(
                sweep_var=rec["sweep_var"], value=float(rec["value"]), mode=rec["mode"],
                csi_mode=rec["csi_mode"], N=int(rec["N"]), metric=rec["metric"],
                mean=float(rec["mean"]), p05=float(rec["p05"]),
                trials=int(rec["trials"]), seed=int(rec["seed"])))
    return rows


_SYSTEM_DB_ALTERNATES = {"rho_db": "rho", "pilot_snr_db": "pilot_snr"}


def sweep_spec_from_dict(data):
    """Build a SweepSpec from a parsed config mapping (see CONFIG_SCHEMA).

    The "system" section mirrors SystemConfig fields; `rho_db` / `pilot_snr_db`
    may replace their linear counterparts. The "sweep" section mirrors
    SweepSpec. Unknown keys are rejected.
    """
    if data.get("schema") != CONFIG_SCHEMA:
        raise ValueError(f"config schema must be '{CONFIG_SCHEMA}', got {data.get('schema')!r}")
    unknown = set(data) - {"schema", "system", "sweep"}
    if unknown:
        raise ValueError(f"unknown top-level keys {sorted(unknown)}")

    system = dict(data.get("system", {}))
    for db_key, lin_key in _SYSTEM_DB_ALTERNATES.items():
        if db_key in system:
            if lin_key in system:
                raise ValueError(f"give either {db_key} or {lin_key}, not both")
            system[lin_key] = 10.0 ** (system.pop(db_key) / 10.0)
    valid_fields = set(SystemConfig.__dataclass_fields__)
    unknown = set(system) - valid_fields
    if unknown:
        raise ValueError(f"unknown system keys {sorted(unknown)}")
    base = SystemConfig(**system)

    sweep = dict(data.get("sweep", {}))
    unknown = set(sweep) - {"variable", "values", "trials", "outputs", "n_candidates"}
    if unknown:
        raise ValueError(f"unknown sweep keys {sorted(unknown)}")
    outputs = sweep.get("outputs")
    return SweepSpec(base=base,
                     sweep_variable=sweep.get("variable", "fronthaul_rate"),
                     values=list(sweep.get("values", [])),
                     trials=int(sweep.get("trials", 500)),
                     outputs=tuple(outputs) if outputs is not None else None,
                     n_candidates=tuple(sweep.get("n_candidates", ())))


def load_sweep_spec(path):
    """Load a sweep configuration from a JSON file."""
    with open(path) as f:
        data = json.load(f)
    return sweep_spec_from_dict(data)
