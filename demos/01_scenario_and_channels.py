# Scenario generation walkthrough: geometry, path loss, power control and
# Rayleigh channel draws, with the normalization contract checked empirically.
#
# Run: python demos/01_scenario_and_channels.py

import numpy as np

from cransim import SystemConfig, generate_channels, generate_geometry, power_control
from cransim.harness import trial_stream

cfg = SystemConfig(K=8, L=4, M=8, N=2, rng_seed=42)
rng = trial_stream(cfg.rng_seed, trial=0)

_, beta = generate_geometry(cfg, rng)
print(f"{cfg.K} users and {cfg.L} receivers on a {cfg.area_side_m:.0f} m square")
print(f"large-scale gain spread: {10 * np.log10(beta.max() / beta.min()):.1f} dB "
      f"across the {cfg.L}x{cfg.K} links")

p = power_control(beta)
print(f"power control coefficients p_k (linear): {np.round(p, 3)}")
print(f"normalization p_k * mean_l beta_lk (should be 1): "
      f"{np.round(p * beta.mean(axis=0), 12)}")

channels = generate_channels(cfg, beta, p, rng)
print(f"\nchannel matrices: {len(channels.H)} receivers x {channels.H[0].shape}")

# empirical check of the per-antenna variance contract over fresh draws
n_draws = 2000
acc = np.zeros(cfg.K)
for _ in range(n_draws):
    draw = generate_channels(cfg, beta, p, rng)
    acc += sum(np.sum(np.abs(Hl) ** 2, axis=0) for Hl in draw.H)
mean_power = acc / (n_draws * cfg.M * cfg.L)
print(f"mean received power per user over {n_draws} draws "
      f"(target 1.0): {np.round(mean_power, 3)}")

sv = [np.linalg.svd(Hl, compute_uv=False) for Hl in channels.H]
print(f"condition numbers of the drawn H_l: "
      f"{np.round([s[0] / s[-1] for s in sv], 1)}")
