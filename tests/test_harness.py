import json
from dataclasses import replace

import numpy as np
import pytest

from cransim import harness
from cransim.harness import (CONFIG_SCHEMA, SweepSpec, best_dimension, emit_csv,
                             load_sweep_spec, mi_proportion_sweep, read_csv, run_sweep,
                             run_trial, sweep_spec_from_dict, trial_stream)
from cransim.scenario import SystemConfig


def _cfg(**kw):
    base = dict(K=6, L=3, M=4, N=2, fronthaul_rate=6.0, rng_seed=77)
    base.update(kw)
    return SystemConfig(**base)


def _spec(cfg=None, **kw):
    base = dict(sweep_variable="fronthaul_rate", values=[2.0, 6.0], trials=5,
                outputs=("sum_capacity", "baseline", "cutset"))
    base.update(kw)
    return SweepSpec(base=cfg or _cfg(), **base)


class TestRunTrial:
    def test_unquantized_lossless_dimension_equals_full_mi(self):
        cfg = _cfg(K=4, L=2, M=4, N=4)
        rec = run_trial(cfg, mode="unquantized", trial=0)
        assert rec.metrics["sum_capacity"] == pytest.approx(rec.metrics["full_mi"], abs=1e-8)
        assert rec.metrics["mi_proportion"] == pytest.approx(1.0, abs=1e-10)

    def test_baseline_approaches_full_mi_at_generous_rate(self):
        cfg = _cfg(fronthaul_rate=250.0)
        rec = run_trial(cfg, mode="local_baseline", trial=1)
        assert rec.metrics["sum_capacity"] == pytest.approx(rec.metrics["full_mi"], abs=1e-5)

    def test_modes_share_the_channel_draw(self):
        cfg = _cfg()
        metrics = {m: run_trial(cfg, mode=m, trial=3).metrics for m in
                   ("proposed", "local_baseline", "unquantized", "cutset")}
        full = {m: v["full_mi"] for m, v in metrics.items()}
        assert len(set(full.values())) == 1     # identical realization across modes
        assert metrics["proposed"]["sum_capacity"] <= metrics["proposed"]["cutset"] + 1e-9

    def test_trial_indices_give_independent_draws(self):
        cfg = _cfg()
        a = run_trial(cfg, trial=0).metrics["full_mi"]
        b = run_trial(cfg, trial=1).metrics["full_mi"]
        assert a != b

    def test_reproducible_from_config_and_trial(self):
        cfg = _cfg()
        a = run_trial(cfg, trial=5).metrics
        b = run_trial(cfg, trial=5).metrics
        assert a["sum_capacity"] == b["sum_capacity"]
        assert np.array_equal(a["user_capacity"], b["user_capacity"])

    def test_details_payload(self):
        rec = run_trial(_cfg(), trial=0, details=True)
        assert rec.details is not None
        assert rec.details["selection"].mi_trajectory.shape == (2 * 3,)
        assert len(rec.details["plan"].G) == 3

    def test_low_dimension_warning(self):
        cfg = _cfg(K=6, L=1, M=6, N=2)   # ceil(K/L) = 6 > N
        with pytest.warns(UserWarning, match="below ceil"):
            run_trial(cfg, mode="proposed", trial=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_trial(_cfg(), mode="magic", trial=0)

    def test_pilot_csi_requires_numeric_pilot_snr(self):
        with pytest.raises(ValueError, match="pilot_snr"):
            run_trial(_cfg(), csi="pilot", trial=0)

    def test_error_carries_trial_context(self, monkeypatch):
        def boom(*a, **k):
            raise ArithmeticError("synthetic failure")
        monkeypatch.setattr(harness, "mfgs_select", boom)
        with pytest.raises(RuntimeError, match="trial 4 failed in mode 'proposed'"):
            run_trial(_cfg(), trial=4)

    def test_high_pilot_snr_converges_to_perfect_pipeline(self):
        cfg = _cfg(K=8, L=4, M=8, N=2, pilot_snr=1e6)
        perfect = run_trial(cfg, csi="perfect", trial=2, details=True)
        pilot = run_trial(cfg, csi="pilot", trial=2, details=True)
        assert pilot.csi_mode == "lower-bound"
        assert pilot.details["selection"].S == perfect.details["selection"].S
        assert abs(pilot.metrics["sum_capacity"]
                   - perfect.metrics["sum_capacity"]) < 1e-2

    def test_imperfect_csi_bound_below_perfect_on_average(self):
        cfg = _cfg(K=6, L=3, M=4, N=2, pilot_snr=5.0)
        diffs = []
        for t in range(100):
            perfect = run_trial(cfg, csi="perfect", trial=t).metrics["sum_capacity"]
            bound = run_trial(cfg, csi="pilot", trial=t).metrics["sum_capacity"]
            diffs.append(perfect - bound)
        assert np.mean(diffs) > 0


class TestBestDimension:
    def test_large_rate_prefers_full_dimension(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        n_star, cap = best_dimension(cfg, R=300.0, n_candidates=[1, 2, 3, 4], trials=3)
        assert n_star == 4

    def test_small_rate_prefers_small_dimension(self):
        cfg = _cfg(K=8, L=4, M=8, N=2, rho=10 ** 1.5)
        n_star, _ = best_dimension(cfg, R=1.0, n_candidates=[1, 2, 4, 8], trials=10)
        assert n_star <= 2

    def test_envelope_monotone_in_rate(self):
        cfg = _cfg(K=6, L=3, M=4, N=2)
        caps = [best_dimension(cfg, R=R, n_candidates=[1, 2, 3, 4], trials=5)[1]
                for R in [1.0, 4.0, 10.0, 30.0]]
        assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))

    def test_rejects_bad_candidates(self):
        with pytest.raises(ValueError):
            best_dimension(_cfg(), R=4.0, n_candidates=[0, 2], trials=1)
        with pytest.raises(ValueError):
            best_dimension(_cfg(), R=4.0, n_candidates=[], trials=1)


class TestMiProportion:
    def test_lossless_dimension_ratio_is_one(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        table = mi_proportion_sweep(cfg, rho_values=[1.0, 10.0], n_values=[2, 4], trials=4)
        assert table.shape == (2, 2)
        assert np.allclose(table[:, 1], 1.0, atol=1e-10)

    def test_nested_selection_improves_with_dimension(self):
        cfg = _cfg(K=8, L=4, M=8, N=2)
        table = mi_proportion_sweep(cfg, rho_values=[10 ** 1.5], n_values=[2, 4], trials=20)
        assert table[0, 1] >= table[0, 0]

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            mi_proportion_sweep(_cfg(), [1.0], [0], trials=1)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(sweep_variable="bandwidth")
        with pytest.raises(ValueError):
            _spec(values=[])
        with pytest.raises(ValueError):
            _spec(trials=0)
        with pytest.raises(ValueError):
            _spec(outputs=("sum_capacity", "nonsense"))
        with pytest.raises(ValueError):
            _spec(outputs=("best_n",))          # requires candidates
        with pytest.raises(ValueError):
            _spec(outputs=("best_n",), n_candidates=(0, 2))
        with pytest.raises(ValueError):
            _spec(values=[2.0, -3.0])           # per-value config validation

    def test_from_dict_roundtrip(self):
        data = {
            "schema": CONFIG_SCHEMA,
            "system": {"K": 4, "L": 2, "M": 3, "N": 2, "rho_db": 10.0, "rng_seed": 5},
            "sweep": {"variable": "rho", "values": [1.0, 10.0], "trials": 7},
        }
        spec = sweep_spec_from_dict(data)
        assert spec.base.rho == pytest.approx(10.0)
        assert spec.base.K == 4
        assert spec.sweep_variable == "rho"
        assert spec.trials == 7

    def test_from_dict_rejects_unknowns_and_bad_schema(self):
        good = {"schema": CONFIG_SCHEMA, "system": {}, "sweep": {"values": [1.0]}}
        sweep_spec_from_dict(good)
        with pytest.raises(ValueError, match="schema"):
            sweep_spec_from_dict({**good, "schema": "v999"})
        with pytest.raises(ValueError, match="top-level"):
            sweep_spec_from_dict({**good, "extra": 1})
        with pytest.raises(ValueError, match="system keys"):
            sweep_spec_from_dict({**good, "system": {"S": 3}})
        with pytest.raises(ValueError, match="not both"):
            sweep_spec_from_dict({**good, "system": {"rho": 1.0, "rho_db": 0.0}})
        with pytest.raises(ValueError, match="sweep keys"):
            sweep_spec_from_dict({**good, "sweep": {"values": [1.0], "step": 2}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "schema": CONFIG_SCHEMA,
            "system": {"K": 3, "L": 2, "M": 3, "N": 1, "rng_seed": 2},
            "sweep": {"variable": "fronthaul_rate", "values": [2.0], "trials": 2},
        }))
        spec = load_sweep_spec(path)
        assert spec.base.K == 3


class TestRunSweep:
    def test_rows_shape_and_order(self):
        rows = run_sweep(_spec())
        # per value: proposed sum + lmmse, baseline sum + lmmse + user, cutset
        assert len(rows) == 2 * 6
        assert rows[0].value == 2.0 and rows[6].value == 6.0
        modes = [r.mode for r in rows[:6]]
        assert modes == ["proposed", "proposed", "local_baseline", "local_baseline",
                         "local_baseline", "cutset"]
        cut = [r for r in rows if r.mode == "cutset"]
        assert all(r.N == 0 for r in cut)
        assert cut[0].mean == pytest.approx(2.0 * 3)   # rate-limited regime: R*L

    def test_proposed_beats_baseline_on_average(self):
        cfg = _cfg(K=8, L=4, M=8, N=2, rho=10 ** 1.5, rng_seed=5)
        rows = run_sweep(_spec(cfg, values=[4.0], trials=30))
        get = {(r.mode, r.metric): r.mean for r in rows}
        assert get[("proposed", "sum_capacity")] > get[("local_baseline", "sum_capacity")]

    def test_sweep_matches_individual_trials(self):
        # the batched path must agree with run_trial on the same streams
        cfg = _cfg()
        spec = _spec(cfg, values=[5.0], trials=4, outputs=("sum_capacity",))
        rows = run_sweep(spec)
        singles = [run_trial(replace(cfg, fronthaul_rate=5.0), mode="proposed", trial=t)
                   for t in range(4)]
        expected = np.mean([r.metrics["sum_capacity"] for r in singles])
        got = next(r for r in rows if r.metric == "sum_capacity")
        assert got.mean == pytest.approx(expected, rel=1e-12)

    def test_n_sweep_uses_prefix_truncation(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        spec = _spec(cfg, sweep_variable="N", values=[1, 2, 4],
                     outputs=("mi_proportion",), trials=3)
        rows = run_sweep(spec)
        props = [r.mean for r in rows if r.metric == "mi_proportion"]
        assert props[0] <= props[1] <= props[2]
        assert props[2] == pytest.approx(1.0, abs=1e-10)

    def test_best_n_row_tracks_the_envelope(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        spec = _spec(cfg, values=[1.0, 64.0], trials=4,
                     outputs=("best_n",), n_candidates=(1, 2, 3, 4))
        rows = run_sweep(spec)
        assert rows[0].N <= rows[1].N       # more fronthaul, larger best dimension
        assert rows[1].N == 4

    def test_pilot_sweep_produces_lower_bound_rows(self):
        cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=10.0)
        spec = _spec(cfg, sweep_variable="pilot_snr", values=[1.0, 1000.0],
                     outputs=("sum_capacity",), trials=3)
        rows = run_sweep(spec, csi="pilot")
        assert all(r.csi_mode == "lower-bound" for r in rows)
        by_value = {r.value: r.mean for r in rows if r.metric == "sum_capacity"}
        assert by_value[1000.0] >= by_value[1.0]

    def test_pilot_requires_numeric_pilot_snr(self):
        with pytest.raises(ValueError, match="pilot_snr"):
            run_sweep(_spec(), csi="pilot")

    @pytest.mark.parametrize("variable, values, csi", [
        ("N", [1, 2, 4], "perfect"),               # one selection at max N serves all
        ("rho", [1.0, 10.0, 100.0], "pilot"),      # one design per (rho, pilot state)
    ])
    def test_rows_do_not_depend_on_which_values_share_a_sweep(self, variable, values, csi):
        cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=10.0)

        def sweep(vals):
            return run_sweep(_spec(cfg, sweep_variable=variable, values=vals, trials=3,
                                   outputs=None, n_candidates=(1, 3)), csi=csi)

        singles = {v: sweep([v]) for v in values}
        for order in (values, values[::-1]):
            assert sweep(order) == [row for v in order for row in singles[v]]

    def test_failure_names_trial_value_mode_and_csi(self, monkeypatch):
        def boom(*a, **k):
            raise ArithmeticError("synthetic failure")
        monkeypatch.setattr(harness, "build_plan", boom)
        with pytest.raises(RuntimeError, match=r"trial 0 failed at fronthaul_rate=2.0 "
                                               r"in mode 'proposed' at N=2 \(csi=perfect\)"
                           ) as info:
            run_sweep(_spec())
        assert isinstance(info.value.__cause__, ArithmeticError)


class TestCsv:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "sweep_var,value,mode,csi_mode,N,metric,mean,p05,trials,seed\n"

    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = _spec()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_preserves_floats_exactly(self, tmp_path):
        rows = run_sweep(_spec())
        path = tmp_path / "rt.csv"
        emit_csv(rows, path)
        back = read_csv(path)
        assert len(back) == len(rows)
        for orig, rec in zip(rows, back):
            assert rec.mean == orig.mean       # exact: 17 significant digits round-trip
            assert rec.p05 == orig.p05
            assert rec.value == orig.value
            assert (rec.mode, rec.metric, rec.N) == (orig.mode, orig.metric, orig.N)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], tmp_path / "missing_dir" / "x.csv")


class TestAggregation:
    def test_user_capacity_is_pooled_percentile(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        spec = _spec(cfg, values=[6.0], trials=6, outputs=("user_capacity",))
        rows = run_sweep(spec)
        row = next(r for r in rows if r.metric == "user_capacity")
        pooled = np.concatenate([
            run_trial(replace(cfg, fronthaul_rate=6.0), mode="proposed",
                      trial=t).metrics["user_capacity"]
            for t in range(6)])
        assert row.mean == pytest.approx(pooled.mean(), rel=1e-12)
        assert row.p05 == pytest.approx(np.percentile(pooled, 5.0), rel=1e-12)

    def test_trial_stream_is_order_independent(self):
        a = trial_stream(9, 4).standard_normal(3)
        trial_stream(9, 0).standard_normal(1000)   # unrelated consumption
        b = trial_stream(9, 4).standard_normal(3)
        assert np.array_equal(a, b)
