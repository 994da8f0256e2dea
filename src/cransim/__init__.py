"""Dimension-reduction fronthaul compression for distributed MIMO uplink C-RAN.

Pipeline: generate a scenario, optionally estimate and whiten channels,
greedily pick matched-filter directions per receiver, transform-code the
reduced signals against the fronthaul budget, and score the result against
capacity references and bounds. The harness batches all of it into seeded,
reproducible Monte-Carlo sweeps. The package namespace holds the README's entry
points; the rest stays in its module, the oracles in `cransim.validation`.
"""

from .capacity import sum_capacity
from .compression import build_plan, waterfill
from .csi import estimate_channels, whiten
from .dimred import full_joint_mi, mfgs_select
from .harness import (SweepSpec, best_dimension, emit_csv, mi_proportion_sweep, read_csv,
                      run_sweep, run_trial)
from .scenario import (SystemConfig, generate_channels, generate_geometry,
                       generate_realization, power_control)

__version__ = "0.1.0"
