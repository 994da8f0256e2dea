# The headline experiment: rate-capacity curves of the dimension-reduction
# scheme against local compression and the cut-set bound, with the best
# reduced dimension picked per rate point. Writes rate_capacity.csv into the
# directory it is run from.
#
# Run: python demos/04_rate_capacity_tradeoff.py   (under half a second)

from pathlib import Path

from cransim import SweepSpec, SystemConfig, emit_csv, run_sweep

base = SystemConfig(K=8, L=4, M=8, N=2, rho=10.0 ** 1.5, rng_seed=1)
spec = SweepSpec(
    base=base,
    sweep_variable="fronthaul_rate",
    values=[1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0],
    trials=200,
    outputs=("sum_capacity", "baseline", "cutset", "best_n"),
    n_candidates=(1, 2, 3, 4, 6, 8),
)

rows = run_sweep(spec)
out = Path("rate_capacity.csv")
emit_csv(rows, out)
print(f"wrote {len(rows)} rows to {out}\n")

table = {(r.value, r.mode, r.metric): r for r in rows}
print(f"{'R':>5} {'R*L':>6} {'best-N':>7} {'proposed':>9} {'baseline':>9} "
      f"{'cutset':>8} {'of bound':>9}")
for R in spec.values:
    best = table[(R, "best_n", "sum_capacity")]
    base_row = table[(R, "local_baseline", "sum_capacity")]
    cut = table[(R, "cutset", "cutset")]
    print(f"{R:5.0f} {R * base.L:6.0f} {best.N:7d} {best.mean:9.2f} "
          f"{base_row.mean:9.2f} {cut.mean:8.2f} {best.mean / cut.mean:9.1%}")

print("\nsmall N wins while fronthaul is scarce; the needed dimension grows "
      "with the budget, and the scheme hugs the cut-set bound at low rates.")
