"""Spectral-efficiency evaluation of OFDM adaptive modulation under
per-subcarrier constellation constraints.

The pipeline: draw a Rayleigh-faded resource grid (`channel`), restrict each
position's constellations per transmission system (`systems`), load bits
under an average-BER target (`loading`), and compare systems by throughput
and relative spectral efficiency (`metrics`).  `ber_sim` validates the
closed-form BER models by simulation; `cli` wraps everything in a sweep
runner.
"""

from .ber_sim import SimConfig, simulate_ber
from .channel import (
    ChannelProfile,
    draw_realization,
    load_channel_profile,
    snr_grid,
    tux_profile,
)
from .cli import SweepConfig, run_ber_validation, run_sweep, sweep_points, trial_gammas
from .loading import (
    Allocation,
    block_allocate,
    evaluate_avg_ber,
    exhaustive_allocate,
    greedy_allocate,
    position_ber_table,
    sweep_total_bits,
)
from .metrics import SweepPoint, aggregate, eta_r, spectral_efficiency
from .modulation import (
    CATALOG,
    ModulationFamily,
    ModulationScheme,
    ber,
    min_snr_for,
    scheme_from_name,
)
from .systems import (
    ConstraintGrid,
    Role,
    SystemProfile,
    build_profile,
    load_profile,
    lte_pilot_positions,
)

__all__ = [
    "Allocation",
    "CATALOG",
    "ChannelProfile",
    "ConstraintGrid",
    "ModulationFamily",
    "ModulationScheme",
    "Role",
    "SimConfig",
    "SweepConfig",
    "SweepPoint",
    "SystemProfile",
    "aggregate",
    "ber",
    "block_allocate",
    "build_profile",
    "draw_realization",
    "eta_r",
    "evaluate_avg_ber",
    "exhaustive_allocate",
    "greedy_allocate",
    "load_channel_profile",
    "load_profile",
    "lte_pilot_positions",
    "min_snr_for",
    "position_ber_table",
    "run_ber_validation",
    "run_sweep",
    "scheme_from_name",
    "simulate_ber",
    "snr_grid",
    "spectral_efficiency",
    "sweep_points",
    "sweep_total_bits",
    "trial_gammas",
    "tux_profile",
]

__version__ = "0.1.0"
