"""Smoke test: the demo scripts and the README's library example run to completion.

Demo 04, the headline rate-capacity experiment, writes rate_capacity.csv into
the directory it is run from; it runs in a temporary directory, and its CSV
must match tests/data/golden/rate_capacity.csv within 1e-12 relative.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cransim.harness import read_csv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_scenario_and_channels", "02_greedy_dimension_reduction",
         "03_transform_coding", "05_imperfect_csi")


def _run(script, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    _run(ROOT / "demos" / f"{name}.py", ROOT)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(library\)\s+```python\n(.*?)```", readme, re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(block.group(1))
    _run(script, tmp_path)


def test_rate_capacity_demo_reproduces_committed_csv(tmp_path):
    _run(ROOT / "demos" / "04_rate_capacity_tradeoff.py", tmp_path)
    got = read_csv(tmp_path / "rate_capacity.csv")
    want = read_csv(ROOT / "tests" / "data" / "golden" / "rate_capacity.csv")
    assert [(r.value, r.mode, r.N, r.metric) for r in got] == [
        (r.value, r.mode, r.N, r.metric) for r in want]
    for g, w in zip(got, want):
        assert g.mean == pytest.approx(w.mean, rel=1e-12, abs=0)
        assert g.p05 == pytest.approx(w.p05, rel=1e-12, abs=0)
