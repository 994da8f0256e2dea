import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from cransim import cli, harness
from cransim.compression import LLOYD_MAX_RATE_PENALTY, build_plan
from cransim.dimred import mfgs_select
from cransim.harness import (CONFIG_SCHEMA, SweepSpec, best_dimension, emit_csv,
                             mi_proportion_sweep, read_csv, run_sweep, run_trial,
                             sweep_spec_from_dict, trial_stream)
from cransim.scenario import SystemConfig, generate_realization


def _cfg(**kw):
    base = dict(K=6, L=3, M=4, N=2, fronthaul_rate=6.0, rng_seed=77)
    base.update(kw)
    return SystemConfig(**base)


def _spec(cfg=None, **kw):
    base = dict(sweep_variable="fronthaul_rate", values=[2.0, 6.0], trials=5,
                outputs=("sum_capacity", "baseline", "cutset"))
    base.update(kw)
    return SweepSpec(base=cfg or _cfg(), **base)


# pilot_snr of each CSI mode, for tests parametrized by mode
PILOT_SNR = {"perfect": "perfect", "pilot": 10.0}


def _assert_batch_independent(variable, values, csi, surcharge):
    """Rows of a sweep equal, exactly, the rows of its values swept one at a time."""
    cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=PILOT_SNR[csi])

    def sweep(vals):
        return run_sweep(_spec(cfg, sweep_variable=variable, values=vals, trials=3,
                               outputs=None, n_candidates=(1, 3)), surcharge=surcharge)

    singles = {v: sweep([v]) for v in values}
    for order in (values, values[::-1]):
        assert sweep(order) == [row for v in order for row in singles[v]]


def _chunked_run(spec, size=None, surcharge=0.0):
    """run_sweep at `size` trials per chunk: its rows, _collect's samples and the chunk sizes run.

    size None keeps the committed chunk budget.
    """
    cfg, chunks, collected = spec.base, [], []
    keys = len({(c.pilot_snr, c.rho) for c in spec.configs()})
    designs, collect = harness._designs, harness._collect

    def spy_designs(channels, *args):
        chunks.append(len(channels))
        return designs(channels, *args)

    def spy_collect(*args):
        collected.append(collect(*args))
        return collected[-1]

    with pytest.MonkeyPatch.context() as m:
        if size is not None:
            m.setattr(harness, "_CHUNK_ELEMENTS", size * keys * cfg.L * cfg.M * cfg.K)
        m.setattr(harness, "_designs", spy_designs)
        m.setattr(harness, "_collect", spy_collect)
        rows = run_sweep(spec, surcharge=surcharge)
    return rows, collected[0][0], chunks


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

    @pytest.mark.parametrize("mode, has_selection, has_plan", [
        ("proposed", True, True), ("local_baseline", False, True),
        ("unquantized", True, False), ("cutset", False, False)])
    def test_record_keeps_selection_and_plan(self, mode, has_selection, has_plan):
        diag = run_trial(_cfg(), mode=mode, trial=0).diagnostics
        selection, plan = {"users", "mi_trajectory"}, {"lam", "rates", "Phi", "active"}
        assert set(diag) == (selection if has_selection else set()) | (plan if has_plan else set())
        if has_selection:
            assert diag["users"].shape == (3, 2)
            assert diag["mi_trajectory"].shape == (2 * 3,)
        if has_plan:
            n = 2 if mode == "proposed" else 4
            assert all(diag[name].shape == (3, n) for name in ("lam", "rates", "Phi"))
            assert diag["active"].shape == (3,)

    def test_low_dimension_warning(self, caplog):
        cfg = _cfg(K=6, L=1, M=6, N=2)   # ceil(K/L) = 6 > N
        with caplog.at_level(logging.WARNING, logger="cransim.harness"):
            run_trial(cfg, mode="proposed", trial=0)
        assert [r.getMessage() for r in caplog.records] == [
            "N = 2 is below ceil(K/L) = 6; the reduced signals cannot span all users and "
            "performance will suffer"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_trial(_cfg(), mode="magic", trial=0)

    def test_csi_mode_follows_pilot_snr(self):
        assert run_trial(_cfg(), trial=0).csi_mode == "perfect"
        assert run_trial(_cfg(pilot_snr=10.0), trial=0).csi_mode == "lower-bound"
        with pytest.raises(TypeError, match="csi"):
            run_trial(_cfg(pilot_snr=10.0), csi="pilot", trial=0)
        with pytest.raises(TypeError, match="details"):
            run_trial(_cfg(), trial=0, details=True)

    @pytest.mark.parametrize("trial", [-1, 2.5])
    def test_rejects_bad_trial_index(self, trial):
        with pytest.raises(ValueError, match=rf"trial must be a non-negative integer, "
                                             rf"got {trial}"):
            run_trial(_cfg(), trial=trial)

    @pytest.mark.parametrize("surcharge", [-5.0, np.nan, np.inf])
    def test_rejects_bad_surcharge_before_any_trial(self, monkeypatch, surcharge):
        def no_trial(*a, **k):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "generate_realization", no_trial)
        match = "surcharge must be a finite number >= 0"
        with pytest.raises(ValueError, match=match):
            run_trial(_cfg(fronthaul_rate=4.0), surcharge=surcharge)
        with pytest.raises(ValueError, match=match):
            run_sweep(_spec(), surcharge=surcharge)
        with pytest.raises(ValueError, match=match):
            best_dimension(_cfg(), R=4.0, n_candidates=[1, 2], trials=1, surcharge=surcharge)

    def test_error_carries_trial_context(self, monkeypatch):
        def boom(*a, **k):
            raise ArithmeticError("synthetic failure")
        monkeypatch.setattr(harness, "mfgs_select", boom)
        with pytest.raises(RuntimeError, match=r"trial 4 failed at .* in the design step "
                                               r"\(csi=perfect\)"):
            run_trial(_cfg(), trial=4)
        monkeypatch.undo()
        monkeypatch.setattr(harness, "build_plan", boom)
        with pytest.raises(RuntimeError, match=r"trial 4 failed at .* in mode 'proposed' at "
                                               r"N=2 \(csi=perfect\)"):
            run_trial(_cfg(), trial=4)

    def test_high_pilot_snr_converges_to_perfect_pipeline(self):
        cfg = _cfg(K=8, L=4, M=8, N=2, pilot_snr=1e6)
        perfect = run_trial(replace(cfg, pilot_snr="perfect"), trial=2)
        pilot = run_trial(cfg, trial=2)
        assert pilot.csi_mode == "lower-bound"
        assert np.array_equal(pilot.diagnostics["users"], perfect.diagnostics["users"])
        assert abs(pilot.metrics["sum_capacity"]
                   - perfect.metrics["sum_capacity"]) < 1e-2

    @pytest.mark.parametrize("trial", [0, 3])
    def test_diagnostics_equal_the_public_pipeline(self, trial):
        cfg = _cfg()
        diag = run_trial(cfg, mode="proposed", trial=trial).diagnostics
        H = generate_realization(cfg, trial_stream(cfg.rng_seed, trial)).H
        sel = mfgs_select(H, cfg.rho, cfg.N)
        assert [[k for k in row if k >= 0] for row in diag["users"].tolist()] == sel.S
        assert np.array_equal(diag["users"], sel.users)
        np.testing.assert_allclose(diag["mi_trajectory"], sel.mi_trajectory, rtol=1e-12)
        plan = build_plan(sel.Q, H, cfg.fronthaul_rate, cfg.rho)
        for name in ("lam", "rates", "Phi"):
            np.testing.assert_allclose(diag[name], getattr(plan, name), rtol=1e-12, atol=0)
        assert np.array_equal(diag["active"], plan.active)

    def test_skipped_receiver_shows_in_diagnostics_not_in_printed_users(
            self, monkeypatch, tmp_path, capsys):
        def rank_deficient(config, rng):
            # receiver 0 sees every user along one direction: its round 1 is skipped
            channels = generate_realization(config, rng)
            channels.H[0] = np.outer(channels.H[0, :, 0], np.arange(1.0, config.K + 1))
            return channels
        monkeypatch.setattr(harness, "generate_realization", rank_deficient)
        cfg = _cfg()
        diag = run_trial(cfg, mode="proposed", trial=1).diagnostics
        users, traj = diag["users"], diag["mi_trajectory"]
        assert users[0, 1] == -1 and np.all(users[1:] >= 0) and users[0, 0] >= 0
        assert traj[cfg.L] == traj[cfg.L - 1]   # receiver 0's round-1 step adds nothing
        assert diag["active"][0] == 1 and np.isinf(diag["Phi"][0, 1])

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema": CONFIG_SCHEMA, "system": {
            "K": cfg.K, "L": cfg.L, "M": cfg.M, "N": cfg.N, "fronthaul_rate": 6.0,
            "rng_seed": cfg.rng_seed}, "sweep": {"values": [6.0]}}))
        assert cli.main(["trial", "--config", str(path), "--trial", "1"]) == 0
        out = capsys.readouterr().out
        assert f"receiver 0: selected users [{users[0, 0]}]\n" in out
        assert f"receiver 1: selected users [{users[1, 0]}, {users[1, 1]}]\n" in out

    def test_imperfect_csi_bound_below_perfect_on_average(self):
        cfg = _cfg(K=6, L=3, M=4, N=2, pilot_snr=5.0)
        diffs = []
        for t in range(100):
            perfect = run_trial(replace(cfg, pilot_snr="perfect"),
                                trial=t).metrics["sum_capacity"]
            bound = run_trial(cfg, trial=t).metrics["sum_capacity"]
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

    def test_rejects_non_integer_dimensions(self):
        # 2.5 used to be truncated to 2, running N = 2 twice
        with pytest.raises(ValueError, match="N must be an integer, got 2.5"):
            mi_proportion_sweep(_cfg(), [10.0], [2.5, 2.0], 2)

    @pytest.mark.parametrize("trials", [0, 2.5])
    def test_rejects_bad_trial_counts(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            mi_proportion_sweep(_cfg(), [10.0], [2], trials)

    @pytest.mark.parametrize("rho_values, n_values, empty", [
        ([], [2], "rho_values"), ([10.0], [], "n_values")])
    def test_rejects_empty_grid_axis(self, rho_values, n_values, empty):
        with pytest.raises(ValueError, match=f"{empty} must be non-empty"):
            mi_proportion_sweep(_cfg(), rho_values, n_values, 2)

    def test_follows_the_configs_csi_mode(self):
        # each row of the table is the unquantized N sweep of run_sweep at that rho
        cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=10.0)
        rhos, ns = [1.0, 100.0], [2, 3]
        table = mi_proportion_sweep(cfg, rhos, ns, trials=3)
        for i, rho in enumerate(rhos):
            rows = run_sweep(_spec(replace(cfg, rho=rho), sweep_variable="N", values=ns,
                                   trials=3, outputs=("mi_proportion",)))
            assert list(table[i]) == [r.mean for r in rows if r.metric == "mi_proportion"]
            assert all(r.csi_mode == "lower-bound" for r in rows)
        perfect = mi_proportion_sweep(replace(cfg, pilot_snr="perfect"), rhos, ns, trials=3)
        assert not np.any(table == perfect)

    def test_grid_equals_each_cell_alone(self):
        cfg = _cfg(K=4, L=2, M=4, N=2)
        rhos, ns = [1.0, 10.0], [1, 3]
        table = mi_proportion_sweep(cfg, rhos, ns, trials=3)
        for i, rho in enumerate(rhos):
            for j, n in enumerate(ns):
                assert table[i, j] == mi_proportion_sweep(cfg, [rho], [n], trials=3)[0, 0]


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
        with pytest.raises(ValueError, match="outputs must be non-empty"):
            _spec(outputs=())
        with pytest.raises(ValueError):
            _spec(outputs=("best_n",), n_candidates=(0, 2))
        with pytest.raises(ValueError):
            _spec(values=[2.0, -3.0])           # per-value config validation
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="trials"):
                _spec(trials=bad)
        for bad in ((2.7, 1), (True, 2), (2.0,)):
            with pytest.raises(ValueError, match="n_candidates"):
                _spec(outputs=("best_n",), n_candidates=bad)
        assert _spec(trials=np.int64(3), n_candidates=(np.int64(2),)).trials == 3
        for bad in (["perfect"], [10.0, "perfect"], [True], ["a"], [None]):
            with pytest.raises(ValueError, match="sweep values must be real numbers"):
                _spec(sweep_variable="pilot_snr", values=bad)
        assert _spec(sweep_variable="pilot_snr", values=[np.float64(3.0), 10]).values

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
        with pytest.raises(ValueError, match="trials"):
            sweep_spec_from_dict({**good, "sweep": {"values": [1.0], "trials": 2.5}})
        with pytest.raises(ValueError, match="n_candidates"):
            sweep_spec_from_dict({**good, "sweep": {"values": [1.0], "outputs": ["best_n"],
                                                    "n_candidates": [2.7, True]}})
        for key in ("rho_db", "pilot_snr_db"):
            with pytest.raises(ValueError, match=f"{key} must be a real number, got 'abc'"):
                sweep_spec_from_dict({**good, "system": {key: "abc"}})
        with pytest.raises(ValueError, match="sweep values must be real numbers"):
            sweep_spec_from_dict({**good, "sweep": {"values": ["a"]}})
        with pytest.raises(ValueError, match="config must be a JSON object"):
            sweep_spec_from_dict([good])
        for section in ("system", "sweep"):
            with pytest.raises(ValueError, match=f"{section} section must be a JSON object"):
                sweep_spec_from_dict({**good, section: [["K", 4]]})
        for key, bad in (("values", 3), ("values", "1.0"), ("outputs", "cutset"),
                         ("n_candidates", 2)):
            with pytest.raises(ValueError, match=f"sweep {key} must be a list"):
                sweep_spec_from_dict({**good, "sweep": {"values": [1.0], key: bad}})

    def test_from_dict_defaults(self):
        spec = sweep_spec_from_dict({"schema": CONFIG_SCHEMA, "sweep": {"values": [1.0]}})
        assert spec.sweep_variable == "fronthaul_rate"
        assert spec.trials == 500
        assert spec.outputs == ("sum_capacity", "user_capacity", "baseline", "mi_proportion",
                                "cutset")
        assert spec.n_candidates == ()
        with pytest.raises(ValueError, match="values must be non-empty"):
            sweep_spec_from_dict({"schema": CONFIG_SCHEMA, "sweep": {}})


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
        rows = run_sweep(spec)
        assert all(r.csi_mode == "lower-bound" for r in rows)
        by_value = {r.value: r.mean for r in rows if r.metric == "sum_capacity"}
        assert by_value[1000.0] >= by_value[1.0]

    def test_csi_mode_follows_pilot_snr(self):
        assert {r.csi_mode for r in run_sweep(_spec(trials=1))} == {"perfect"}
        assert {r.csi_mode for r in run_sweep(_spec(_cfg(pilot_snr=10.0), trials=1))} == {
            "lower-bound"}
        with pytest.raises(TypeError, match="csi"):
            run_sweep(_spec(_cfg(pilot_snr=10.0)), csi="pilot")
        with pytest.raises(TypeError, match="csi"):
            best_dimension(_cfg(), R=4.0, n_candidates=[1, 2], trials=1, csi="perfect")

    @pytest.mark.parametrize("variable, values, csi", [
        ("N", [1, 2, 4], "perfect"),               # one selection at max N serves all
        ("rho", [1.0, 10.0, 100.0], "pilot"),      # one design per (rho, pilot state)
        ("pilot_snr", [1.0, 10.0, 1000.0], "pilot"),
        ("rho", [1.0, 10.0, 100.0], "perfect"),
        ("fronthaul_rate", [1.0, 4.0, 16.0], "perfect"),   # one plan stacks every rate
        ("fronthaul_rate", [1.0, 4.0, 16.0], "pilot"),
    ])
    def test_rows_do_not_depend_on_which_values_share_a_sweep(self, variable, values, csi):
        _assert_batch_independent(variable, values, csi, 0.0)

    @pytest.mark.parametrize("csi", ["perfect", "pilot"])
    def test_rows_do_not_depend_on_which_rates_share_a_lloyd_max_sweep(self, csi):
        _assert_batch_independent("fronthaul_rate", [1.0, 4.0, 16.0], csi,
                                  LLOYD_MAX_RATE_PENALTY)

    def test_low_dimension_warning_is_one_record_naming_every_low_n(self, caplog):
        spec = _spec(_cfg(K=6, L=2, M=6, N=2), sweep_variable="N", values=[1, 3, 2, 1], trials=1)
        with caplog.at_level(logging.WARNING, logger="cransim.harness"):
            run_sweep(spec)
        assert [r.getMessage().split(";")[0] for r in caplog.records] == [
            "N = 1, 2 is below ceil(K/L) = 3"]

    def test_failure_names_trial_value_mode_and_csi(self, monkeypatch):
        def boom(*a, **k):
            raise ArithmeticError("synthetic failure")
        monkeypatch.setattr(harness, "build_plan", boom)
        with pytest.raises(RuntimeError, match=r"trial 0 failed at fronthaul_rate=2.0 "
                                               r"in mode 'proposed' at N=2 \(csi=perfect\)"
                           ) as info:
            run_sweep(_spec())
        assert isinstance(info.value.__cause__, ArithmeticError)

    @pytest.mark.parametrize("csi", ["perfect", "pilot"])
    def test_failure_inside_a_rate_stack_names_the_failing_rate(self, monkeypatch, csi):
        real = harness.build_plan

        def fails_at_four(Q, H, R, *a, **k):
            if np.any(np.asarray(R) == 4.0):
                raise ArithmeticError("synthetic failure")
            return real(Q, H, R, *a, **k)
        monkeypatch.setattr(harness, "build_plan", fails_at_four)
        spec = _spec(_cfg(pilot_snr=PILOT_SNR[csi]), values=[1.0, 4.0, 16.0],
                     outputs=("sum_capacity",))
        with pytest.raises(RuntimeError, match=rf"trial 0 failed at fronthaul_rate=4.0 in mode "
                                               rf"'proposed' at N=2 \(csi={csi}\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_failure_only_in_a_rate_stack_names_every_rate(self, monkeypatch):
        real = harness.build_plan

        def fails_on_stacked_rates(Q, H, R, *a, **k):
            if np.size(R) > 1:
                raise ArithmeticError("synthetic failure")
            return real(Q, H, R, *a, **k)
        monkeypatch.setattr(harness, "build_plan", fails_on_stacked_rates)
        spec = _spec(values=[1.0, 4.0, 16.0], outputs=("sum_capacity",))
        with pytest.raises(RuntimeError, match=r"^trial 0 failed at fronthaul_rate=1.0, "
                                               r"fronthaul_rate=4.0, fronthaul_rate=16.0 in "
                                               r"mode 'proposed' at N=2 \(csi=perfect\)$"
                           ) as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_failure_inside_a_key_stack_names_the_failing_value(self, monkeypatch):
        real = harness.build_plan

        def fails_at_ten(Q, H, R, rho, *a, **k):
            if np.any(np.asarray(rho) == 10.0):
                raise ArithmeticError("synthetic failure")
            return real(Q, H, R, rho, *a, **k)
        monkeypatch.setattr(harness, "build_plan", fails_at_ten)
        spec = _spec(_cfg(pilot_snr=10.0), sweep_variable="rho", values=[1.0, 10.0, 100.0],
                     outputs=("sum_capacity",))
        with pytest.raises(RuntimeError, match=r"failed at rho=10.0 in mode 'proposed' "
                                               r"at N=2 \(csi=pilot\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    @staticmethod
    def _fail_at_three_columns(monkeypatch):
        real = harness.build_plan

        def fails_at_n3(Q, *a, **k):
            if Q.shape[-1] == 3:
                raise ArithmeticError("synthetic failure")
            return real(Q, *a, **k)
        monkeypatch.setattr(harness, "build_plan", fails_at_n3)

    def test_failure_inside_an_n_sweep_names_the_failing_dimension(self, monkeypatch):
        self._fail_at_three_columns(monkeypatch)
        spec = _spec(_cfg(K=4, L=2, M=4, N=2), sweep_variable="N", values=[1, 2, 3, 4],
                     outputs=("sum_capacity",))
        with pytest.raises(RuntimeError, match=r"trial 0 failed at N=3 in mode 'proposed' "
                                               r"at N=3 \(csi=perfect\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_failure_of_a_best_n_candidate_names_the_first_rate(self, monkeypatch):
        self._fail_at_three_columns(monkeypatch)
        spec = _spec(_cfg(K=4, L=2, M=4, N=2), values=[1.0, 4.0], outputs=("best_n",),
                     n_candidates=(2, 3))
        with pytest.raises(RuntimeError, match=r"^trial 0 failed at fronthaul_rate=1.0 in mode "
                                               r"'proposed' at N=3 \(csi=perfect\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_design_failure_names_trial_batched_values_and_csi(self, monkeypatch):
        def boom(*a, **k):
            raise ArithmeticError("synthetic failure")
        monkeypatch.setattr(harness, "mfgs_select", boom)
        spec = _spec(_cfg(pilot_snr=10.0), sweep_variable="pilot_snr", values=[1.0, 100.0])
        with pytest.raises(RuntimeError, match=r"trial 0 failed at pilot_snr=1.0 in the design "
                                               r"step \(csi=pilot\)") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_design_failure_of_one_value_names_that_value(self, monkeypatch):
        real = harness.estimate_channels

        def fails_at_hundred(channels, pilot_snr, rng):
            if np.any(np.asarray(pilot_snr) == 100.0):
                raise ArithmeticError("synthetic failure")
            return real(channels, pilot_snr, rng)
        monkeypatch.setattr(harness, "estimate_channels", fails_at_hundred)
        spec = _spec(_cfg(pilot_snr=10.0), sweep_variable="pilot_snr", values=[1.0, 100.0])
        with pytest.raises(RuntimeError, match=r"^trial 0 failed at pilot_snr=100.0 in the design "
                                               r"step \(csi=pilot\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)


class TestTrialChunks:
    @pytest.mark.parametrize("variable, values, csi, surcharge", [
        ("fronthaul_rate", [1.0, 4.0, 16.0], "perfect", 0.0),
        ("fronthaul_rate", [1.0, 4.0, 16.0], "pilot", 0.0),
        ("pilot_snr", [1.0, 10.0, 1000.0], "pilot", 0.0),
        ("rho", [1.0, 100.0], "perfect", 0.0),
        ("N", [1, 2, 4], "pilot", 0.0),
        ("fronthaul_rate", [1.0, 4.0, 16.0], "perfect", LLOYD_MAX_RATE_PENALTY),
        ("pilot_snr", [1.0, 10.0, 1000.0], "pilot", LLOYD_MAX_RATE_PENALTY),
    ])
    def test_rows_and_samples_do_not_depend_on_the_chunk_size(self, variable, values, csi,
                                                              surcharge):
        cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=PILOT_SNR[csi])
        spec = _spec(cfg, sweep_variable=variable, values=values, trials=7, outputs=None,
                     n_candidates=(1, 3))
        runs = {size: _chunked_run(spec, size, surcharge) for size in (1, 3, 7)}
        assert [runs[size][2] for size in (1, 3, 7)] == [[1] * 7, [3, 3, 1], [7]]
        rows, samples, _ = runs[7]
        for size in (1, 3):
            assert runs[size][0] == rows
            assert runs[size][1].keys() == samples.keys()
            for name, x in samples.items():
                assert np.array_equal(runs[size][1][name], x), name

    def test_samples_are_c_contiguous(self):
        cfg = _cfg(K=4, L=2, M=4, N=2, pilot_snr=10.0)
        spec = _spec(cfg, sweep_variable="pilot_snr", values=[1.0, 100.0], trials=5,
                     outputs=None, n_candidates=(1, 3))
        for size in (1, 2, 5):
            _, samples, _ = _chunked_run(spec, size)
            assert samples
            for (mode, n, metric), x in samples.items():
                assert x.flags.c_contiguous, (mode, n, metric)
                assert x.shape[:3] == (1, 2, 5)

    def test_fewer_trials_are_a_prefix_across_a_chunk_boundary(self):
        cfg = _cfg(pilot_snr=10.0)
        spec = _spec(cfg, sweep_variable="pilot_snr", values=[1.0, 100.0], outputs=None,
                     trials=4)
        _, short, chunks = _chunked_run(spec, 3)
        assert chunks == [3, 1]
        _, full, chunks = _chunked_run(replace(spec, trials=7), 3)
        assert chunks == [3, 3, 1]     # trial 3 opens the second chunk
        for name, x in short.items():
            assert np.array_equal(full[name][:, :, :4], x), name

    def test_failure_at_one_trial_of_a_chunk_names_that_trial(self, monkeypatch):
        cfg = _cfg()
        bad = generate_realization(cfg, trial_stream(cfg.rng_seed, 4, 0)).H
        real, chunks = harness.build_plan, []

        def fails_at_trial_four(Q, H, R, *a, **k):
            chunks.append(len(H))
            if np.any(np.asarray(R) == 6.0) and any(np.array_equal(h[0], bad) for h in H):
                raise ArithmeticError("synthetic failure")
            return real(Q, H, R, *a, **k)
        monkeypatch.setattr(harness, "build_plan", fails_at_trial_four)
        spec = _spec(cfg, values=[2.0, 6.0], trials=6, outputs=("sum_capacity",))
        with pytest.raises(RuntimeError, match=r"^trial 4 failed at fronthaul_rate=6.0 in mode "
                                               r"'proposed' at N=2 \(csi=perfect\)$") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, ArithmeticError)
        # the 6-trial chunk, trials 0-4 one at a time, then trial 4's two members alone
        assert chunks == [6, 1, 1, 1, 1, 1, 1, 1]


class TestChunkBudget:
    def test_large_array_trials_share_chunks(self):
        # two (64,32,16,4) trials fit the committed budget, and sharing a chunk changes no bit
        spec = _spec(_cfg(K=64, L=32, M=16, N=4), values=[4.0, 32.0], trials=3,
                     outputs=("sum_capacity", "mi_proportion", "cutset"))
        rows, samples, chunks = _chunked_run(spec)
        assert chunks == [2, 1]
        single = _chunked_run(spec, 1)
        assert single[2] == [1, 1, 1] and single[0] == rows
        assert single[1].keys() == samples.keys()
        for name, x in samples.items():
            assert np.array_equal(single[1][name], x), name


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

    @pytest.mark.parametrize("text", ["", "a,b\n1,2\n"])
    def test_empty_file_or_wrong_header_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_csv(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row[:-1], "has 9 cells, expected 10"),
        (lambda row: row + ["7"], "has 11 cells, expected 10"),
        (lambda row: row[:1] + ["abc"] + row[2:], "column 'value': cannot read 'abc' as float"),
    ], ids=["short", "long", "unparsable"])
    def test_malformed_row_rejected_with_its_line(self, tmp_path, edit, message):
        path = tmp_path / "rows.csv"
        emit_csv(run_sweep(_spec(trials=1)), path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"CSV line 3 {message}"):
            read_csv(path)

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
