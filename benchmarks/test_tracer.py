"""Tests of the benchmark's tracer: python3 -m pytest benchmarks/test_tracer.py"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, self_times  # noqa: E402
from worker import import_cransim, layer_metrics, timed_sweeps, write_config  # noqa: E402
from workloads import LAYERS, WORKLOADS  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    #   0: [0, 10]  children 1 and 2, which overlap on [2, 3]
    #   1: [1, 3]   child 3
    #   2: [2, 6]
    #   3: [2, 2.5]
    start = [0.0, 1.0, 2.0, 2.0]
    end = [10.0, 3.0, 6.0, 2.5]
    parent = [-1, 0, 0, 1]
    assert self_times(start, end, parent) == [5.0, 1.5, 4.0, 0.5]


@pytest.fixture
def toy_package():
    """toy (root) -> toy.inner: root calls leaf twice via the package global, mid once."""
    pkg = types.ModuleType("toy")
    inner = types.ModuleType("toy.inner")

    def leaf(n):
        return sum(range(n))

    def mid(n):
        return inner.leaf(n) + 1

    def root(n):
        return inner.leaf(n) + inner.mid(n) + inner.leaf(n)

    inner.leaf, inner.mid, inner.root = leaf, mid, root
    pkg.run = root            # a second binding of the same function
    sys.modules["toy"], sys.modules["toy.inner"] = pkg, inner
    yield pkg, inner, (leaf, mid, root)
    del sys.modules["toy"], sys.modules["toy.inner"]


def test_toy_call_tree(toy_package):
    pkg, inner, originals = toy_package
    tracer = Tracer("toy", ["inner.root", "inner.mid", "inner.leaf", "inner.absent"])
    assert tracer.missing == ["inner.absent"]
    for _ in range(3):
        tracer.install()
        pkg.run(1000)
        tracer.restore()
    assert (inner.leaf, inner.mid, inner.root) == originals and pkg.run is originals[2]

    labels = [tracer.labels[i] for i in tracer.name]
    assert labels.count("inner.root") == 3 and labels.count("inner.leaf") == 9
    own = self_times(tracer.start, tracer.end, tracer.parent)
    for i, p in enumerate(tracer.parent):
        kids = [j for j, q in enumerate(tracer.parent) if q == i]
        covered = sum(tracer.end[j] - tracer.start[j] for j in kids)
        assert own[i] == pytest.approx(tracer.end[i] - tracer.start[i] - covered, abs=1e-12)
        assert own[i] >= 0
        if p >= 0:
            assert tracer.request[i] == tracer.request[p]
    summary = tracer.summary()
    assert summary["inner.mid"][0] == 3 and summary["inner.absent"] == (0, 0.0)
    roots = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert sum(b for _, b in summary.values()) == pytest.approx(
        sum(tracer.end[i] - tracer.start[i] for i in roots))


@pytest.mark.parametrize("name", ["rate_sweep", "pilot_sweep"])
def test_calls_per_trial_repeat_exactly(name, tmp_path):
    import_cransim()
    cli = sys.modules["cransim.cli"]
    originals = {label: getattr(sys.modules["cransim." + label.rpartition(".")[0]],
                                label.rpartition(".")[2]) for label in LAYERS}
    w = WORKLOADS[name]
    cfg, out = tmp_path / "c.json", tmp_path / "o.csv"
    counts = []
    for seed in (3, 4):
        write_config(w, seed, w.trials, cfg)
        tracer = Tracer("cransim", LAYERS, workload=name)
        durations, traced, failed, problems = timed_sweeps(
            cli, w, w.argv(cfg, out, seed), out, seed, 0.0, tracer)
        assert failed == 0 and not problems
        metrics = layer_metrics(tracer, durations, traced, w.trials)
        counts.append({k: v for k, v in metrics.items() if k.endswith("calls_per_trial")})
        assert metrics["trace.accounted_pct"][0] == pytest.approx(100.0, abs=1.0)
    assert counts[0] == counts[1]
    csi_calls = counts[0]["csi.estimate_channels.calls_per_trial"][0]
    assert (csi_calls > 0) == (w.csi == "pilot")
    for label, fn in originals.items():
        module, _, attr = label.rpartition(".")
        assert getattr(sys.modules["cransim." + module], attr) is fn
