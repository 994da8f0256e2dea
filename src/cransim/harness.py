"""Batch experiment driver: seeded Monte-Carlo trials, sweeps, aggregation, CSV.

A master seed plus a trial index deterministically derive independent generator
sub-streams (one for channel generation, one for pilot noise), so trials are
reproducible regardless of execution order and channel draws stay paired
across modes, sweep values and CSI settings.
"""

import csv
import logging
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import capacity as cap
from .compression import build_plan, check_surcharge
from .csi import estimate_channels, whiten
from .dimred import (DimensionReductionResult, full_joint_mi, mfgs_select,
                     signal_space_basis)
from .linalg import adjoint, gram, logdet2_hpd
from .scenario import PERFECT_CSI, SystemConfig, generate_realization, is_integer, is_real

log = logging.getLogger(__name__)
CONFIG_SCHEMA = "cransim-sweep-v1"

MODES = ("proposed", "local_baseline", "unquantized", "cutset")
CSI_MODES = ("perfect", "pilot")
_CSI_LABELS = {"perfect": "perfect", "pilot": "lower-bound"}
SWEEP_VARIABLES = ("fronthaul_rate", "rho", "N", "pilot_snr")

# (mode, metric) rows switched on by each requested output, in emission order
_OUTPUT_ROWS = {
    "sum_capacity": (("proposed", "sum_capacity"), ("proposed", "lmmse_sum_capacity")),
    "user_capacity": (("proposed", "user_capacity"),),
    "baseline": (("local_baseline", "sum_capacity"),
                 ("local_baseline", "lmmse_sum_capacity"),
                 ("local_baseline", "user_capacity")),
    "mi_proportion": (("unquantized", "reduced_mi"), ("unquantized", "full_mi"),
                      ("unquantized", "mi_proportion")),
    "cutset": (("cutset", "cutset"),),
    "best_n": (("best_n", "sum_capacity"),),
}
OUTPUTS = tuple(_OUTPUT_ROWS)


@dataclass
class SweepSpec:
    """One batch experiment: a base configuration plus the variable swept over it.

    outputs defaults to everything applicable (best-N selection only when
    n_candidates is given). configs holds the validated SystemConfig of every
    sweep value, in order; it is built once, so a spec is fixed after
    construction (dataclasses.replace builds a new one).
    """

    base: SystemConfig
    sweep_variable: str
    values: list
    trials: int = 500
    outputs: tuple | None = None
    n_candidates: tuple = ()
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.outputs is None:
            self.outputs = OUTPUTS if self.n_candidates else tuple(
                o for o in OUTPUTS if o != "best_n")
        self.outputs, self.n_candidates = tuple(self.outputs), tuple(self.n_candidates)
        self.validate()

    def validate(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep_variable must be one of {SWEEP_VARIABLES}")
        if len(self.values) == 0:
            raise ValueError("values must be non-empty")
        if not all(map(is_real, self.values)):
            raise ValueError(f"sweep values must be real numbers, got {self.values!r}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not self.outputs:
            raise ValueError("outputs must be non-empty")
        unknown = [o for o in self.outputs if o not in OUTPUTS]
        if unknown:
            raise ValueError(f"unknown outputs {unknown}; valid: {OUTPUTS}")
        if "best_n" in self.outputs and not self.n_candidates:
            raise ValueError("output 'best_n' requires a non-empty n_candidates list")
        maxc = self.base.max_components
        if any(not is_integer(n) or not 1 <= n <= maxc for n in self.n_candidates):
            raise ValueError(f"n_candidates must be integers in [1, {maxc}], "
                             f"got {self.n_candidates!r}")
        # constructing the per-value configs validates their fields
        self.configs = tuple(replace(self.base, **{self.sweep_variable: v}) for v in self.values)


@dataclass
class TrialRecord:
    """One (realization, mode) evaluation: CSI label, metrics, selection and plan diagnostics."""

    csi_mode: str
    metrics: dict
    diagnostics: dict


@dataclass
class SweepRow:
    """One aggregated CSV row; the fields are the CSV columns, their types the cell formats."""

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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))
_CSV_TYPES = tuple(f.type for f in fields(SweepRow))


def trial_stream(master_seed, trial, lane=0):
    """Independent generator sub-stream for (trial, lane), derived from the master seed.

    Lane 0 carries channel generation, lane 1 pilot noise; re-creating a lane
    replays it, which keeps draws paired across modes and sweep values.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial, lane)))


def csi_mode(pilot_snr):
    """The CSI mode a pilot_snr selects: "perfect" for "perfect", "pilot" for a number."""
    return "perfect" if pilot_snr == PERFECT_CSI else "pilot"


@dataclass
class _Design:
    """Rate-independent state of a trial chunk's (rho, CSI) keys, shared by every mode, rate and N.

    Arrays lead with (trial, key) axes: rho and the MIs are (T, keys), and H
    (T, keys, L, M, K) holds the design channels: the truth under perfect CSI,
    the whitened estimates under pilot CSI, where the true channels H_true
    (T, 1, L, M, K) and the equivalent-noise levels omega (T, keys, L) carry
    the rest of the CSI state (None under perfect CSI). selection is one
    greedy run at the largest dimension any caller reads: by the prefix
    property its first n rounds are the run at n. cutset_mi is the
    full-dimension MI of the true channels.
    """

    rho: np.ndarray
    H: np.ndarray
    full_mi: np.ndarray
    cutset_mi: np.ndarray
    H_true: np.ndarray | None = None
    omega: np.ndarray | None = None
    selection: DimensionReductionResult | None = None
    baseline_Q: np.ndarray | None = None


def _designs(trials, base, keys, nmax, baseline):
    """The _Design of one CSI mode's (pilot_snr, rho) keys on the realizations of `trials`.

    Each trial draws its channels from its own lane-0 stream and its pilot
    noise from lane 1. Every design starts as the perfect-CSI one; pilot CSI
    swaps in the whitened estimates as H and their MI as full_mi. Each step
    runs once over the (trial, key) stack. nmax = 0 skips selection.
    """
    pilot, rho = map(np.array, zip(*keys))
    channels = [generate_realization(base, trial_stream(base.rng_seed, t, 0)) for t in trials]
    H_true = np.stack([c.H for c in channels])[:, None]
    channels = [replace(c, H=h) for c, h in zip(channels, H_true[:, 0])]   # one copy of each H
    rho, extra = np.broadcast_to(rho.astype(float), (len(trials), len(keys))), {}
    H = np.broadcast_to(H_true, rho.shape + H_true.shape[-3:])
    full_mi = cutset_mi = full_joint_mi(H_true, rho)
    if csi_mode(pilot[0]) == "pilot":
        H_hat, err_var = zip(*[estimate_channels(c, pilot, trial_stream(base.rng_seed, t, 1))
                               for c, t in zip(channels, trials)])
        H, omega = whiten(np.stack(H_hat), np.stack(err_var), rho)
        full_mi = full_joint_mi(H, rho)
        extra = {"H_true": H_true, "omega": omega}
    return _Design(rho=rho, H=H, full_mi=full_mi, cutset_mi=cutset_mi,
                   selection=mfgs_select(H, rho, nmax) if nmax else None,
                   baseline_Q=signal_space_basis(H) if baseline else None, **extra)


# Memory budget of a trial chunk, in stacked (trial, key) channel elements: (8,4,8,2)
# sweeps run in one chunk, and two (64,32,16,4) trials share one greedy run's steps.
# The design step peaks at 2.8x the chunk's channel bytes there, 6.2x at (8,4,8,2), N = 8.
_CHUNK_ELEMENTS = 2 ** 16

_CAPACITY_METRICS = {"sum_capacity", "lmmse_sum_capacity", "user_capacity", "sqinr"}
_LMMSE_METRICS = {"lmmse_sum_capacity", "user_capacity", "sqinr"}
_TRIAL_METRICS = _CAPACITY_METRICS | {"reduced_mi", "full_mi", "mi_proportion", "cutset"}
_DIAGNOSTICS = {"users", "mi_trajectory", "lam", "rates", "Phi", "active"}


def _n_column(mode, config):
    """Dimension a mode's rows use (and report in the CSV N column)."""
    return {"proposed": config.N, "unquantized": config.N,
            "local_baseline": config.max_components, "cutset": 0}[mode]


def _evaluate(design, mode, n, R, wanted, surcharge):
    """The metrics in `wanted` for one (mode, n) on every key of a design, at every rate R.

    R is a 1-D array of rates; each metric gets R's axis, then the design's
    (trial, key) axes, in front of its own. The diagnostics are per-receiver
    arrays: a selecting mode's picks "users" (L, n) and "mi_trajectory"
    (n*L,), a quantising mode's plan "lam", "rates", "Phi" (L, n) and
    "active" (L,). The harness builds plans and detection matrices only here:
    one of each for all rates and keys, and only when a capacity metric is wanted.
    """
    rho, H, full, sel = design.rho, design.H, design.full_mi, design.selection
    L, R = H.shape[-3], np.asarray(R, dtype=float)
    out = {"full_mi": full, "cutset": np.minimum.outer(R * L, design.cutset_mi)}
    if mode != "cutset":
        if mode == "local_baseline":
            out["reduced_mi"] = full    # lossless basis
        else:
            out["reduced_mi"] = sel.mi_trajectory[..., n * L - 1]
            out.update(users=sel.users[None, ..., :n],
                       mi_trajectory=sel.mi_trajectory[None, ..., :n * L])
        out["mi_proportion"] = np.divide(out["reduced_mi"], full, out=np.zeros(rho.shape),
                                         where=full > 0)
    if wanted & _CAPACITY_METRICS:
        Q = design.baseline_Q if mode == "local_baseline" else sel.Q[..., :n]
        if mode == "unquantized":
            G = adjoint(Q) @ H
            phi = np.zeros(R.shape + G.shape[:-1])
        else:
            plan = build_plan(Q, H, R, rho, H_true=design.H_true, omega=design.omega,
                              surcharge=surcharge)
            G, phi = plan.G, plan.Phi
            out.update(lam=plan.lam[None], rates=plan.rates, Phi=phi, active=plan.active)
        B = gram(G, rho, phi)
        if "sum_capacity" in wanted:
            out["sum_capacity"] = logdet2_hpd(B)
        if wanted & _LMMSE_METRICS:
            out["sqinr"], out["user_capacity"] = cap.lmmse_sqinr(B)
            out["lmmse_sum_capacity"] = np.sum(out["user_capacity"], axis=-1)
    shape = R.shape + rho.shape
    return {m: np.broadcast_to(v, shape + np.shape(v)[len(shape):])
            for m, v in out.items() if m in wanted}


def run_trial(config, mode="proposed", trial=0, surcharge=0.0):
    """Run the full pipeline for one realization and one mode.

    The realization is reproduced from (config.rng_seed, trial), so calling
    with different modes but the same trial index evaluates the same channels.
    It is a one-trial sweep: the kernel's samples of the config's single cell
    make the record's metrics and diagnostics, and a failure is the kernel's
    RuntimeError naming the trial, the failing step and the CSI mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not is_integer(trial) or trial < 0:
        raise ValueError(f"trial must be a non-negative integer, got {trial!r}")
    wanted = {"cutset", "full_mi"} if mode == "cutset" else _TRIAL_METRICS | _DIAGNOSTICS
    samples, _ = _collect([config], [f"R={config.fronthaul_rate}, rho={config.rho}"],
                          range(trial, trial + 1), surcharge, {mode: wanted}, [])
    metrics = {metric: x[0, 0, 0] for (_, _, metric), x in samples.items()}
    diagnostics = {m: metrics.pop(m) for m in list(metrics) if m in _DIAGNOSTICS}
    return TrialRecord(_CSI_LABELS[csi_mode(config.pilot_snr)], metrics, diagnostics)


def best_dimension(config, R, n_candidates, trials, surcharge=0.0):
    """Pick the reduced dimension maximising mean sum capacity at fronthaul rate R.

    A view of run_sweep's best_n output on the single value R. Returns
    (best_n, best_mean_capacity); ties go to the smaller N.
    """
    spec = SweepSpec(base=config, sweep_variable="fronthaul_rate", values=[R],
                     trials=trials, outputs=("best_n",), n_candidates=tuple(n_candidates))
    (row,) = run_sweep(spec, surcharge=surcharge)
    return row.N, row.mean


def mi_proportion_sweep(config, rho_values, n_values, trials):
    """Mean captured proportion of the full-dimension MI, over an (SNR, N) grid.

    Returns an array of shape (len(rho_values), len(n_values)) with
    E[reduced MI / full MI] under the config's CSI mode. The grid is one batch
    of the sweep kernel: each trial draws its channels once, and one greedy
    run per (trial, SNR) serves every N.
    """
    for name, values in (("rho_values", rho_values), ("n_values", n_values)):
        if len(values) == 0:
            raise ValueError(f"{name} must be non-empty")
    rhos = SweepSpec(config, "rho", rho_values, trials, outputs=("mi_proportion",)).configs
    configs = [replace(cfg, N=n) for cfg in rhos for n in n_values]
    samples, at = _collect(configs, [f"rho={c.rho}, N={c.N}" for c in configs],
                           range(trials), 0.0, {"unquantized": {"mi_proportion"}}, [])
    means = [np.mean(samples[("unquantized", c.N, "mi_proportion")][at[i]])
             for i, c in enumerate(configs)]
    return np.reshape(means, (len(rho_values), len(n_values)))


def _collect(configs, labels, trials, surcharge, read, cands):
    """Paired per-trial samples of every evaluation the configs need, over a range of trials.

    The configs differ only in rate, rho, N and pilot SNR; channels are drawn
    from configs[0]. read maps each mode to the metrics its rows read; each
    best-N candidate in cands adds a proposed sum capacity. Trials run in
    chunks of at most _CHUNK_ELEMENTS stacked (trial, key) channel elements:
    per chunk, one batched design step covers every trial and distinct SNR
    and CSI state, and each (mode, n) group runs one stacked _evaluate over
    the trials and all the configs' fronthaul rates and CSI keys, which wastes
    no cell as every caller's configs form a product grid over (rate, key, N)
    in one CSI mode. Samples do not depend on the chunk size. Returns (samples,
    at): samples maps (mode, n, metric) to a contiguous array of the metric's
    dtype, shaped (rates, keys, trials) followed by the metric's own axes, and
    config i reads cell at[i]. A failing chunk is re-run one trial at a time, and a failing
    trial of several configs on each config alone: the first to fail alone raises its own
    RuntimeError naming the trial, its label, the step and the CSI mode. If none fails
    alone, the error names every label. _run_chunks does all this silently; only this
    wrapper logs a call's rare paths, once: any N below ceil(K/L) before the first chunk,
    and after the last, one warning per (pilot_snr, rho) state whose selection skipped.
    """
    check_surcharge(surcharge)
    dims = [cfg.N for cfg in configs] if read.keys() & {"proposed", "unquantized"} else []
    span = math.ceil(configs[0].K / configs[0].L)
    if low := sorted({n for n in dims if n < span}):
        log.warning("N = %s is below ceil(K/L) = %d; the reduced signals cannot span all "
                    "users and performance will suffer", ", ".join(map(str, low)), span)
    nmax = max(dims + cands, default=0)
    samples, at, skips = _run_chunks(configs, labels, trials, surcharge, read, cands, nmax)
    for (pilot, rho), first in skips.items():
        if hit := np.flatnonzero(first < nmax).tolist():
            log.warning("selection skipped a receiver from round %d in %d of %d trials at "
                        "pilot_snr=%s, rho=%s (first: trial %d)", first.min(), len(hit),
                        len(trials), pilot, rho, trials[hit[0]])
    return samples, at


def _run_chunks(configs, labels, trials, surcharge, read, cands, nmax):
    """_collect's (samples, at) at selection depth nmax, and skips: key -> first skip per trial."""
    base = configs[0]
    keys = list(dict.fromkeys((cfg.pilot_snr, cfg.rho) for cfg in configs))
    rates = list(dict.fromkeys(cfg.fronthaul_rate for cfg in configs))
    at = [(rates.index(cfg.fronthaul_rate), keys.index((cfg.pilot_snr, cfg.rho)))
          for cfg in configs]

    groups = {}     # (mode, n) -> metrics; proposed at N doubles as candidate N
    for cfg in configs:
        needs = [(mode, _n_column(mode, cfg), metrics) for mode, metrics in read.items()]
        for mode, n, metrics in needs + [("proposed", c, {"sum_capacity"}) for c in cands]:
            groups.setdefault((mode, n), set()).update(metrics)

    samples = {}    # (mode, n, metric) -> array of shape (rates, keys, trials, ...)
    skips = np.full((len(trials), len(keys)), nmax)    # first skipped round per (trial, key)
    size = max(1, _CHUNK_ELEMENTS // (len(keys) * base.L * base.M * base.K))
    todo = [trials[i:i + size] for i in reversed(range(0, len(trials), size))]  # a stack
    while todo:
        chunk, step = todo.pop(), "the design step"
        cols = slice(chunk.start - trials.start, chunk.stop - trials.start)
        try:
            design = _designs(chunk, base, keys, nmax, "local_baseline" in read)
            if nmax:    # skips last to the final round: the fewest picks is the first skip
                skips[cols] = (design.selection.users >= 0).sum(axis=-1).min(axis=-1)
            for (mode, n), wanted in groups.items():
                step = f"mode '{mode}' at N={n}"
                metrics = _evaluate(design, mode, n, rates, wanted, surcharge)
                for metric, value in metrics.items():
                    x = samples.setdefault((mode, n, metric), np.empty(
                        (len(rates), len(keys), len(trials)) + value.shape[3:], value.dtype))
                    x[:, :, cols] = value.swapaxes(1, 2)
        except Exception as exc:
            if len(chunk) > 1:      # rare path: re-run the chunk one trial at a time
                todo += [range(t, t + 1) for t in reversed(chunk)]
                continue
            for cfg, label in zip(configs, labels) if len(configs) > 1 else []:
                _run_chunks([cfg], [label], chunk, surcharge, read, cands, nmax)
            raise RuntimeError(f"trial {chunk[0]} failed at {', '.join(labels)} in {step} "
                               f"(csi={csi_mode(base.pilot_snr)})") from exc
    return samples, at, dict(zip(keys, skips.T))


def _mean_p05(samples):
    """Per-cell (mean, p05) of the (rates, keys, trials[, users]) samples, users pooled trial-major.

    One stacked reduction per reduced shape; each cell reduces as a 1-D sample would.
    """
    stacks, stats = {}, {}
    for name, x in samples.items():
        stacks.setdefault(x.shape[:2] + (x[0, 0].size,), {})[name] = x
    for shape, stack in stacks.items():
        x = np.stack([s.reshape(shape) for s in stack.values()])
        stats.update(zip(stack, zip(np.mean(x, axis=-1), np.percentile(x, 5.0, axis=-1))))
    return stats


def run_sweep(spec, surcharge=0.0):
    """Run a full Monte-Carlo sweep and aggregate it into CSV-ready rows.

    Trials are paired: every sweep value and mode sees the same channel draws
    (and the same pilot noise under pilot CSI). One greedy selection per trial
    and SNR/CSI state, at the largest dimension any row needs, serves every
    value, mode and best-N candidate through the prefix property, so results
    do not depend on which values share a sweep; pilot_snr sets the CSI mode. A
    failure is re-raised as a RuntimeError naming the trial, sweep value, mode
    and CSI mode.
    """
    rows_wanted = [row for output in spec.outputs for row in _OUTPUT_ROWS[output]]
    cands = sorted({int(n) for n in spec.n_candidates}) if "best_n" in spec.outputs else []
    read = {}   # mode -> metrics its rows read
    for mode, metric in rows_wanted:
        if mode != "best_n":
            read.setdefault(mode, set()).add(metric)
    samples, at = _collect(spec.configs, [f"{spec.sweep_variable}={v}" for v in spec.values],
                           range(spec.trials), surcharge, read, cands)
    stats = _mean_p05(samples)

    rows = []
    for ci, (v, cfg) in enumerate(zip(spec.values, spec.configs)):
        for mode, metric in rows_wanted:
            source = "proposed" if mode == "best_n" else mode
            n = (max(cands, key=lambda c: stats[(source, c, metric)][0][at[ci]])
                 if mode == "best_n" else _n_column(mode, cfg))
            mean, p05 = stats[(source, n, metric)]
            rows.append(SweepRow(sweep_var=spec.sweep_variable, value=float(v), mode=mode,
                                 csi_mode=_CSI_LABELS[csi_mode(cfg.pilot_snr)], N=int(n),
                                 metric=metric, mean=float(mean[at[ci]]),
                                 p05=float(p05[at[ci]]), trials=spec.trials,
                                 seed=spec.base.rng_seed))
    return rows


def _cell(x, kind):
    return format(float(x), ".17g") if kind is float else kind(x)


def emit_csv(rows, path):
    """Write aggregated rows as CSV with round-trippable 17-significant-digit floats."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_cell(getattr(r, name), kind)
                          for name, kind in zip(CSV_COLUMNS, _CSV_TYPES)] for r in rows)


def read_csv(path):
    """Parse a file produced by emit_csv back into SweepRow objects; blank lines are skipped."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for cells in filter(None, reader):
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"CSV line {reader.line_num} has {len(cells)} cells, "
                                 f"expected {len(CSV_COLUMNS)}")
            values = []
            for name, kind, cell in zip(CSV_COLUMNS, _CSV_TYPES, cells):
                try:
                    values.append(kind(cell))
                except ValueError:
                    raise ValueError(f"CSV line {reader.line_num} column {name!r}: cannot "
                                     f"read {cell!r} as {kind.__name__}") from None
            rows.append(SweepRow(*values))
    return rows


_SYSTEM_DB_ALTERNATES = {"rho_db": "rho", "pilot_snr_db": "pilot_snr"}


def system_config_from_dict(data):
    """Build the SystemConfig of a parsed config mapping (see CONFIG_SCHEMA), reading no sweep.

    The "system" section mirrors SystemConfig fields; `rho_db` / `pilot_snr_db`
    may replace their linear counterparts. Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ValueError(f"config schema must be '{CONFIG_SCHEMA}', got {data.get('schema')!r}")
    unknown = set(data) - {"schema", "system", "sweep"}
    if unknown:
        raise ValueError(f"unknown top-level keys {sorted(unknown)}")
    for name in ("system", "sweep"):
        if not isinstance(data.get(name, {}), dict):
            raise ValueError(f"{name} section must be a JSON object, "
                             f"got {type(data[name]).__name__}")

    system = dict(data.get("system", {}))
    for db_key, lin_key in _SYSTEM_DB_ALTERNATES.items():
        if db_key in system:
            if lin_key in system:
                raise ValueError(f"give either {db_key} or {lin_key}, not both")
            value = system.pop(db_key)
            if not is_real(value):
                raise ValueError(f"{db_key} must be a real number, got {value!r}")
            try:
                system[lin_key] = 10.0 ** (value / 10.0)
            except OverflowError:
                raise ValueError(f"{db_key} is too large for a float, got {value!r}") from None
    valid_fields = set(SystemConfig.__dataclass_fields__)
    unknown = set(system) - valid_fields
    if unknown:
        raise ValueError(f"unknown system keys {sorted(unknown)}")
    return SystemConfig(**system)


def sweep_spec_from_dict(data):
    """Build a SweepSpec from a parsed config mapping (see CONFIG_SCHEMA).

    The "sweep" section mirrors SweepSpec; unknown keys are rejected.
    """
    base = system_config_from_dict(data)
    sweep = dict(data.get("sweep", {}))
    unknown = set(sweep) - {"variable", "values", "trials", "outputs", "n_candidates"}
    if unknown:
        raise ValueError(f"unknown sweep keys {sorted(unknown)}")
    for key in ("values", "outputs", "n_candidates"):
        if not isinstance(sweep.get(key, []), list):
            raise ValueError(f"sweep {key} must be a list, got {sweep[key]!r}")
    return SweepSpec(base=base, sweep_variable=sweep.pop("variable", "fronthaul_rate"),
                     values=sweep.pop("values", []), **sweep)
