"""Smoke test: the demo scripts run to completion against the current API.

Demo 04 is left out: it takes about ten seconds and writes
demos/rate_capacity.csv into the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_scenario_and_channels", "02_greedy_dimension_reduction",
         "03_transform_coding", "05_imperfect_csi")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
