# Transform coding of the reduced signals: decorrelation, waterfilled rate
# allocation, the resulting quantisation-noise levels, and how tight the
# high-rate approximation is.
#
# Run: python demos/03_transform_coding.py

import numpy as np

from cransim import (SystemConfig, build_plan, generate_realization, mfgs_select,
                     sum_capacity, waterfill)
from cransim.harness import trial_stream

cfg = SystemConfig(K=8, L=4, M=8, N=2, rho=10.0 ** 1.5, rng_seed=3)
channels = generate_realization(cfg, trial_stream(cfg.rng_seed, 0))
sel = mfgs_select(channels.H, cfg.rho, cfg.N)

print("hand-checkable waterfilling cases:")
print(f"  lam=[4,1],    R=4 -> rates {waterfill(np.array([4.0, 1.0]), 4.0)[0]}")
print(f"  lam=[8,1e-3], R=2 -> rates {waterfill(np.array([8.0, 1e-3]), 2.0)[0]}"
      f"  (weak component dropped)")

for R in (2.0, 8.0, 32.0):
    plan = build_plan(sel.T, R, cfg.rho)
    cap = sum_capacity(plan.G, plan.Phi, cfg.rho)
    print(f"\nfronthaul budget R = {R:.0f} bits/use per receiver "
          f"-> sum capacity {cap:.2f} bits/use")
    for l in range(cfg.L):
        lam = np.round(plan.lam[l], 1)
        rates = np.round(plan.rates[l], 2)
        phi = np.round(plan.Phi[l], 3)
        print(f"  rx {l}: eigenvalues {lam}  rates {rates}  noise {phi}")

# the high-rate approximation rho * (prod lam)^(1/N) * 2^(-R/N), which assumes
# all N components active, vs the exact noise at a comfortable rate
plan = build_plan(sel.T, 32.0, cfg.rho)
for l in range(cfg.L):
    approx = cfg.rho * np.exp(np.mean(np.log(plan.lam[l][:cfg.N]))) * 2.0 ** (-32.0 / cfg.N)
    exact = plan.Phi[l].mean()
    print(f"rx {l}: approx noise {approx:.4f} vs exact mean {exact:.4f} "
          f"({abs(approx - exact) / exact:.1%} off)")
