"""Property tests of the whole pipeline over small valid configs.

Every valid config must sweep without an exception into finite rows, and
up to 60 dB every trial of it under perfect CSI must keep the ordering chain
LMMSE <= sum <= reduced <= full and sum <= cut-set within criterion 06's
1e-9 slack.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.harness import SweepSpec, run_sweep, run_trial
from cransim.scenario import SystemConfig

RATES = [0.0, 0.5, 4.0, math.inf]
TRIALS = 3
SLACK = 1e-9


@st.composite
def small_configs(draw):
    K, L, M = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return SystemConfig(K=K, L=L, M=M, N=draw(st.integers(1, min(M, K))),
                        rho=10.0 ** (draw(st.floats(-10.0, 120.0)) / 10.0),
                        pilot_snr=draw(st.sampled_from(["perfect", 0.5, 10.0, 1000.0])),
                        rng_seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cfg=small_configs())
def test_sweeps_are_finite_and_perfect_csi_trials_keep_the_ordering_chain(cfg):
    spec = SweepSpec(cfg, "fronthaul_rate", RATES, TRIALS,
                     n_candidates=tuple(range(1, cfg.max_components + 1)))
    for row in run_sweep(spec):
        assert math.isfinite(row.mean) and math.isfinite(row.p05), row
    if cfg.rho > 1e6:
        return
    for R in RATES:
        for trial in range(TRIALS):
            m = run_trial(replace(cfg, fronthaul_rate=R, pilot_snr="perfect"),
                          trial=trial).metrics
            assert m["lmmse_sum_capacity"] <= m["sum_capacity"] + SLACK, (R, trial, m)
            assert m["sum_capacity"] <= m["reduced_mi"] + SLACK, (R, trial, m)
            assert m["reduced_mi"] <= m["full_mi"] + SLACK, (R, trial, m)
            assert m["sum_capacity"] <= m["cutset"] + SLACK, (R, trial, m)
