"""Output checks on the CSV of every sweep the benchmark runs.

Parsed with the csv module rather than cransim's own reader, so a defect in
the program cannot also hide in the check.
"""

import csv
import math

TEXT_COLUMNS = ("sweep_var", "mode", "csi_mode", "N", "metric", "trials", "seed")
FLOAT_COLUMNS = ("value", "mean", "p05")
REL_TOL = 1e-12      # across machines the CSV drifts by ~1e-16 relative, not bytes
CHAIN_SLACK = 1e-9   # absolute, as in acceptance criterion 06


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def compare_reference(rows, ref):
    """Problems found comparing a CSV with the committed reference for the same inputs.

    Text columns must be identical, floats within REL_TOL relative.
    """
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        for col in TEXT_COLUMNS:
            if row[col] != want[col]:
                problems.append(f"row {i}: {col}={row[col]!r}, reference {want[col]!r}")
        for col in FLOAT_COLUMNS:
            if not math.isclose(float(row[col]), float(want[col]), rel_tol=REL_TOL):
                problems.append(f"row {i} ({row['mode']} {row['metric']}): "
                                f"{col}={row[col]}, reference {want[col]}")
    return problems


def check_shape(rows, ref, trials, seed):
    """Problems with a CSV's rows against the reference's layout, at any seed.

    Every (value, mode, metric) row of the reference must appear in order with
    the same N (except best_n, whose N is chosen by the data), the requested
    trial count and seed, and finite numbers.
    """
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, ref)):
        for col in ("sweep_var", "value", "mode", "csi_mode", "metric"):
            if row[col] != want[col]:
                problems.append(f"row {i}: {col}={row[col]!r}, expected {want[col]!r}")
        if row["mode"] != "best_n" and row["N"] != want["N"]:
            problems.append(f"row {i}: N={row['N']}, expected {want['N']}")
        if int(row["trials"]) != trials or int(row["seed"]) != seed:
            problems.append(f"row {i}: trials/seed {row['trials']}/{row['seed']}, "
                            f"expected {trials}/{seed}")
        if not all(math.isfinite(float(row[c])) for c in ("mean", "p05")):
            problems.append(f"row {i}: non-finite value")
    return problems


def check_ordering(rows):
    """Problems with the criterion-06 capacity ordering chain on the aggregated means.

    Per sweep value: sum(C_k) <= C_sum <= reduced MI <= full MI, C_sum <= cut-set
    bound, the same for the local baseline, and the best-N capacity between
    the proposed one (its candidates include the proposed N) and the cut-set bound.
    """
    means = {}
    for row in rows:
        means.setdefault(row["value"], {})[(row["mode"], row["metric"])] = float(row["mean"])
    chain = (
        (("proposed", "lmmse_sum_capacity"), ("proposed", "sum_capacity")),
        (("proposed", "sum_capacity"), ("unquantized", "reduced_mi")),
        (("unquantized", "reduced_mi"), ("unquantized", "full_mi")),
        (("proposed", "sum_capacity"), ("cutset", "cutset")),
        (("local_baseline", "lmmse_sum_capacity"), ("local_baseline", "sum_capacity")),
        (("local_baseline", "sum_capacity"), ("cutset", "cutset")),
        (("proposed", "sum_capacity"), ("best_n", "sum_capacity")),
        (("best_n", "sum_capacity"), ("cutset", "cutset")),
    )
    problems = []
    for value, m in means.items():
        for low, high in chain:
            if low in m and high in m and m[low] > m[high] + CHAIN_SLACK:
                problems.append(f"value {value}: {low} mean {m[low]!r} > {high} mean {m[high]!r}")
    return problems
