"""Golden gate: sweeps and harness views must reproduce committed results.

The files in tests/data/golden/ were written by tests/data/make_golden.py.
Text columns (including the N chosen by best_n) must match exactly and floats
within 1e-12 relative: exact bytes drift by ~1e-16 across machines and BLAS
builds. Regenerate the files only at a commit whose numbers are trusted,
never to make this test pass after a change.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

from cransim.harness import emit_csv

DATA = Path(__file__).resolve().parent / "data"
REL_TOL = 1e-12
TEXT_COLUMNS = ("sweep_var", "mode", "csi_mode", "N", "metric", "trials", "seed")
FLOAT_COLUMNS = ("value", "mean", "p05")

_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def _read(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, int) and not isinstance(want, bool):
        assert got == want, where
    else:
        assert math.isclose(got, want, rel_tol=REL_TOL), f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(make_golden.SWEEPS))
def test_sweep_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    emit_csv(make_golden.compute_sweep(name), path)
    rows, ref = _read(path), _read(DATA / "golden" / f"{name}.csv")
    assert len(rows) == len(ref)
    for i, (row, want) in enumerate(zip(rows, ref)):
        assert [row[c] for c in TEXT_COLUMNS] == [want[c] for c in TEXT_COLUMNS], f"row {i}"
        for col in FLOAT_COLUMNS:
            assert math.isclose(float(row[col]), float(want[col]), rel_tol=REL_TOL), (
                f"row {i} ({row['mode']} {row['metric']}) {col}: {row[col]} vs {want[col]}")


def test_views_match_golden():
    with open(DATA / "golden" / "views.json") as f:
        want = json.load(f)
    got = json.loads(json.dumps(make_golden.compute_views()))
    _assert_close(got, want, "views")
