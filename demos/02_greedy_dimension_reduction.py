# Greedy matched-filter selection on one realization: who gets picked, how the
# joint mutual information climbs, and what the eigen-diagnostics say about
# each stage.
#
# Run: python demos/02_greedy_dimension_reduction.py

import numpy as np

from cransim import SystemConfig, full_joint_mi, generate_realization, mfgs_select
from cransim.harness import trial_stream
from cransim.linalg import adjoint, gram
from cransim.validation import stage_gain_diagnostics

cfg = SystemConfig(K=8, L=4, M=8, N=8, rho=10.0 ** 1.5, rng_seed=7)
channels = generate_realization(cfg, trial_stream(cfg.rng_seed, 0))

full = full_joint_mi(channels.H, cfg.rho)
print(f"full-dimension joint MI: {full:.2f} bits/use (K={cfg.K}, L={cfg.L}, M={cfg.M})")

sel = mfgs_select(channels.H, cfg.rho, N=8)
print("\nselections per receiver (round-robin order):")
for l, users in enumerate(sel.S):
    print(f"  receiver {l}: users {users}")

print("\ncaptured proportion of the full MI after each round:")
for n in range(1, 9):
    mi_n = sel.mi_trajectory[n * cfg.L - 1]
    bar = "#" * int(50 * mi_n / full)
    print(f"  N={n}: {mi_n:7.2f} bits  {mi_n / full:6.1%}  {bar}")

# the first round covers all 8 users across the 4 receivers; later rounds
# add diversity with diminishing returns
first_round = sorted(u for s in sel.S for u in s[:2])
print(f"\nusers covered after two rounds: {first_round}")

# eigen-diagnostics of a late stage: the equivalent channel is already strong
# in every direction, so the remaining gain is small
before = mfgs_select(channels.H, cfg.rho, 7)
A = np.linalg.inv(gram(adjoint(before.Q) @ channels.H, cfg.rho))
q_last = sel.Q[0][:, 7]
diag, gain = stage_gain_diagnostics(A, channels.H[0], q_last, cfg.rho)
print(f"stage 8 at receiver 0: gain {gain:.4g} bits, candidate power {diag.gamma:.4g}")
print(f"equivalent-channel eigenvalues before the update: {np.round(diag.upsilon, 1)}")
