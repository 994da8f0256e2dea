"""Dimension-reduction fronthaul compression for distributed MIMO uplink C-RAN.

Pipeline: generate a scenario, optionally estimate and whiten channels,
greedily pick matched-filter directions per receiver, transform-code the
reduced signals against the fronthaul budget, and score the result against
capacity references and bounds. The harness batches all of it into seeded,
reproducible Monte-Carlo sweeps.
"""

from .capacity import CapacityReport, capacity_report, cutset_bound, lmmse_sqinr, sum_capacity
from .compression import (LLOYD_MAX_RATE_PENALTY, CompressionPlan, approx_quant_noise,
                          build_plan, decorrelate, quant_noise, true_component_variances,
                          waterfill)
from .csi import CsiModel, estimate_channels, whiten
from .dimred import (DimensionReductionResult, EquivalentChannelDiagnostics,
                     full_joint_mi, joint_mi, mfgs_select, orthonormalize,
                     rank1_update, selection_metric, signal_space_basis,
                     stage_gain_diagnostics, truncate_selection)
from .harness import (CONFIG_SCHEMA, SweepRow, SweepSpec, TrialRecord, best_dimension,
                      emit_csv, load_sweep_spec, mi_proportion_sweep, read_csv,
                      run_sweep, run_trial, sweep_spec_from_dict, trial_stream)
from .linalg import NumericalError
from .scenario import (PERFECT_CSI, ChannelRealization, Geometry, SystemConfig,
                       generate_channels, generate_geometry, generate_realization,
                       large_scale_fading, power_control)

__version__ = "0.1.0"
