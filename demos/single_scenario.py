"""Walk through one channel draw end to end.

Draws a two-antenna scenario, prints every rate that matters, solves for
both eavesdropper models, and cross-checks against the dense brute-force
search. Run: python demos/single_scenario.py
"""

import numpy as np

from leasesec import (
    SystemParams,
    TrialSeed,
    mrt_beamformer,
    no_leasing_secrecy,
    peaceful_rate,
    r_s_max,
    required_rate,
    sample_channels,
    secondary_rate,
    secrecy_rate_jd,
    secrecy_rate_sd,
)
from leasesec.solver import brute_force_jd, brute_force_sd, solve_jd, solve_sd, unit_sweeps

p = SystemParams.from_snr_db(10.0, alpha=0.5, n_t=2)
ch = sample_channels(p, TrialSeed(42, 8))
sweeps = unit_sweeps(ch)  # both solvers then read one search

print("Scenario: 10 dB, two secondary antennas, QoS fraction 0.5")
print(f"  peaceful bound (no eavesdropper) : {peaceful_rate(ch, p):.4f} bits")
print(f"  silent secondary                 : {no_leasing_secrecy(ch, p):.4f} bits")
print(f"  max secondary rate               : {r_s_max(ch, p):.4f} bits")
print(f"  required secondary rate          : {required_rate(ch, p):.4f} bits")

mrt = mrt_beamformer(ch, p)
print("\nFull-power beam at the secondary's own channel (MRT):")
print(f"  secondary rate {secondary_rate(mrt, ch, p):.4f} bits, "
      f"secrecy {secrecy_rate_sd(mrt, ch, p):.4f} bits")

for name, res, oracle in (
    ("noise-treating eavesdropper", solve_sd(ch, p, sweeps=sweeps), brute_force_sd(ch, p)),
    ("joint-decoding eavesdropper", solve_jd(ch, p, sweeps=sweeps), brute_force_jd(ch, p)),
):
    print(f"\nOptimal beamformer, {name}:")
    with np.printoptions(precision=4, suppress=True):
        print(f"  w                = {res.w}")
    print(f"  secrecy          = {res.secrecy_bits:.4f} bits")
    print(f"  secondary rate   = {res.secondary_bits:.4f} bits")
    print(f"  regime           = {res.regime.value}")
    print(f"  weights          = {tuple(round(m, 4) for m in res.mu)}")
    print(f"  transmit power   = {res.power:.3f} of {p.p_s_max:.3f}")
    print(f"  brute-force check: {oracle.secrecy_bits:.4f} bits "
          f"(difference {res.secrecy_bits - oracle.secrecy_bits:+.2e})")

val_jd, regime = secrecy_rate_jd(solve_sd(ch, p, sweeps=sweeps).w, ch, p)
print("\nThe single-user-optimal beam, judged against a joint decoder, "
      f"would get {val_jd:.4f} bits ({regime.value}).")
