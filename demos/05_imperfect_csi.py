# Imperfect CSI: pilot-based MMSE estimation, noise whitening, and the
# capacity lower bound as the pilot SNR degrades.
#
# Run: python demos/05_imperfect_csi.py   (under half a second)

import numpy as np

from cransim import SweepSpec, SystemConfig, estimate_channels, generate_realization, run_sweep, whiten
from cransim.harness import trial_stream

base_fields = dict(K=8, L=4, M=8, N=2, rho=10.0 ** 1.5, rng_seed=5)

# one realization, one link: what estimation error does a 10 dB pilot leave?
cfg = SystemConfig(pilot_snr=10.0, **base_fields)
channels = generate_realization(cfg, trial_stream(cfg.rng_seed, 0))
H_hat, err_var = estimate_channels(channels, cfg.pilot_snr, trial_stream(cfg.rng_seed, 0, 1))
_, omega = whiten(H_hat, err_var, cfg.rho)
print(f"per-antenna error variance, receiver 0: {np.round(err_var[0], 4)}")
print(f"equivalent-noise inflation omega_0 (Omega_0 = omega_0 I): {omega[0]:.3f} "
      f"(1.0 would be perfect CSI)\n")

# rate-capacity lower bounds for decreasing pilot quality, paired channel draws
R_values = [2.0, 4.0, 8.0, 16.0, 32.0]
curves = {}
for label, pilot in [("perfect", "perfect"), ("30 dB", 1e3), ("20 dB", 1e2), ("10 dB", 1e1)]:
    cfg = SystemConfig(pilot_snr=pilot, **base_fields)
    spec = SweepSpec(base=cfg, sweep_variable="fronthaul_rate", values=R_values,
                     trials=150, outputs=("sum_capacity",))
    rows = run_sweep(spec)
    curves[label] = [r.mean for r in rows if r.metric == "sum_capacity"]

print(f"{'R':>5} " + " ".join(f"{k:>9}" for k in curves))
for i, R in enumerate(R_values):
    print(f"{R:5.0f} " + " ".join(f"{curves[k][i]:9.2f}" for k in curves))

print("\ngood pilots track the perfect-CSI curve; poor pilots pay a growing "
      "fronthaul-rate penalty because estimation noise rides along in the "
      "quantised signal.")
