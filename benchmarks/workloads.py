"""The benchmark's workloads: sweep configs handed to `cransim sweep`.

Each timed operation is one in-process `cransim.cli.main(["sweep", ...])` call
on a config generated here; the benchmark seed becomes the config's rng_seed
and the `--seed` argument, so cransim sees nothing but the generated inputs.
"""

from dataclasses import dataclass

# Seed of demos/configs/rate_sweep.json. Warm-up sweeps always run at this
# seed, and timed sweeps at this seed are compared with reference/<name>.csv.
DEFAULT_SEED = 2024

ALL_OUTPUTS = ("sum_capacity", "user_capacity", "baseline", "mi_proportion", "cutset",
               "best_n")
CAPACITY_OUTPUTS = ("sum_capacity", "user_capacity", "mi_proportion", "cutset")


@dataclass(frozen=True)
class Workload:
    """One sweep config, the CSI mode it runs under and its trials per timed call."""

    name: str
    csi: str
    trials: int
    system: dict
    variable: str
    values: tuple
    outputs: tuple
    n_candidates: tuple = ()

    def config(self, seed, trials):
        """The cransim-sweep-v1 mapping for this workload at `seed` with `trials` trials."""
        sweep = {"variable": self.variable, "values": list(self.values),
                 "trials": trials, "outputs": list(self.outputs)}
        if self.n_candidates:
            sweep["n_candidates"] = list(self.n_candidates)
        return {"schema": "cransim-sweep-v1", "system": dict(self.system, rng_seed=seed),
                "sweep": sweep}

    def argv(self, config_path, output_path, seed):
        """Arguments of the `cransim` command line that runs this workload."""
        return ["sweep", "--config", str(config_path), "--output", str(output_path),
                "--seed", str(seed), "--csi", self.csi]


WORKLOADS = {w.name: w for w in (
    # The paper's headline rate-capacity experiment, demos/configs/rate_sweep.json
    # with fewer trials per call. One selection per trial serves 64 compression
    # plans (8 rates x (proposed, baseline, 6 best-N candidates)), so the
    # compression layer dominates and per-call Python overhead on 8x8 problems
    # is what an optimisation of it has to cut.
    Workload(
        name="rate_sweep", csi="perfect", trials=3,
        system={"K": 8, "L": 4, "M": 8, "N": 2, "rho_db": 15.0, "pilot_snr": "perfect"},
        variable="fronthaul_rate", values=(1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0),
        outputs=ALL_OUTPUTS, n_candidates=(1, 2, 3, 4, 6, 8)),
    # Same size under pilot CSI, sweeping the pilot SNR: every value changes the
    # CSI state, so estimation and whitening run and greedy selection is
    # recomputed at every value (never reused), and build_plan takes its
    # imperfect-CSI path.
    Workload(
        name="pilot_sweep", csi="pilot", trials=8,
        system={"K": 8, "L": 4, "M": 8, "N": 2, "rho_db": 15.0, "fronthaul_rate": 8.0},
        variable="pilot_snr", values=(1.0, 3.0, 10.0, 30.0, 100.0, 1000.0),
        outputs=CAPACITY_OUTPUTS),
    # The largest stage size in ROADMAP: 64x64 linear algebra instead of Python
    # overhead, so a change that only trims per-call overhead shows on
    # rate_sweep and not here, and a batched kernel that grows memory shows here.
    Workload(
        name="large_array", csi="perfect", trials=2,
        system={"K": 64, "L": 32, "M": 16, "N": 4, "rho_db": 15.0, "pilot_snr": "perfect"},
        variable="fronthaul_rate", values=(4.0, 8.0, 16.0, 32.0),
        outputs=CAPACITY_OUTPUTS),
)}

# Functions traced with --trace 1, as "module.function" in cransim, each with
# the end-to-end metric and workload a change to it should move. The root span
# is cli.main, the front end every workload enters through; harness.run_sweep's
# self time is the trial loop plus aggregation.
LAYERS = {
    "cli.main": "small everywhere (config parse, argument handling)",
    "scenario.generate_realization": "trials_per_s on large_array",
    "scenario.generate_channels": "trials_per_s on large_array",
    "csi.estimate_channels": "trials_per_s on pilot_sweep only; no change elsewhere",
    "csi.whiten": "trials_per_s on pilot_sweep only; no change elsewhere",
    "dimred.mfgs_select": "trials_per_s on pilot_sweep and large_array",
    "dimred.truncate_selection": "trials_per_s on rate_sweep only",
    "dimred.signal_space_basis": "trials_per_s on rate_sweep only",
    "dimred.full_joint_mi": "trials_per_s on large_array",
    "compression.build_plan": "trials_per_s on rate_sweep",
    "compression.decorrelate": "trials_per_s on rate_sweep",
    "compression.waterfill": "trials_per_s on rate_sweep",
    "compression.true_component_variances": "trials_per_s on pilot_sweep only",
    "capacity.capacity_report": "trials_per_s on large_array",
    "capacity.sum_capacity": "trials_per_s on large_array and rate_sweep",
    "capacity.lmmse_sqinr": "trials_per_s on large_array",
    "capacity.cutset_bound": "trials_per_s on large_array",
    "harness.run_sweep": "small everywhere (trial loop and aggregation)",
    "harness.emit_csv": "small everywhere",
}
