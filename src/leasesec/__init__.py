"""Beamforming for primary-link secrecy under spectrum leasing.

A secondary multi-antenna transmitter buys spectrum access by interfering
with an eavesdropper more than with the primary receiver.  This package
computes the optimal secondary beamformer under a secondary-rate QoS
constraint for eavesdroppers that either treat the secondary signal as
noise or jointly decode it, and ships a seeded Monte Carlo harness for
comparing both against the silent-secondary and no-eavesdropper baselines.
The solvers live in leasesec.solver, the boundary machinery in
leasesec.pgr.
"""

from .model import SystemParams, TrialSeed, mrt_beamformer, sample_channels
from .rates import (
    no_leasing_secrecy,
    peaceful_rate,
    r_s_max,
    required_rate,
    secondary_rate,
    secrecy_rate_jd,
    secrecy_rate_sd,
)
from .harness import SweepConfig, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "TrialSeed",
    "mrt_beamformer",
    "sample_channels",
    "no_leasing_secrecy",
    "peaceful_rate",
    "r_s_max",
    "required_rate",
    "secondary_rate",
    "secrecy_rate_jd",
    "secrecy_rate_sd",
    "SweepConfig",
    "run_sweep",
    "summarize",
]
