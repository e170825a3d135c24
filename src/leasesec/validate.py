"""Self-contained invariant and oracle-equivalence checks.

Backs the `validate` CLI subcommand.  Each check is named, runs
independently, and reports pass/fail with a short detail string; the suite
exits nonzero if any check fails.  The oracle checks compare the boundary
solvers against brute-force grid search on two-antenna channels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import ChannelSet, SystemParams, TrialSeed, sample_channels
from .pgr import DIRECTION_SUPPRESS_PRIMARY, boundary_beamformer, boundary_sweep
from .rates import (
    jd_rate_bundle,
    peaceful_rate,
    required_rate,
    sd_secrecy_from_gains,
    secrecy_rate_jd,
    secrecy_rate_sd,
)
from .solver import brute_force_jd, brute_force_sd, solve_jd, solve_sd, unit_sweeps

__all__ = ["run_validation"]


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)  # (name, ok, detail)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def text(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        passed = sum(1 for _, ok, _ in self.checks if ok)
        lines.append(f"{passed}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _random_rank_sum(rng, n: int, k: int = 3):
    """(coefficients, vectors) of a random sum_k c_k h_k h_k^*."""
    vecs = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    coeff = rng.uniform(-1.0, 1.0, size=k)
    return coeff, vecs


def _top_eigpair(coeff: np.ndarray, vecs: np.ndarray):
    """Top eigenpair of sum_k coeff[k] vecs[k] vecs[k]^* by a one-row
    boundary sweep with weights |coeff| and signs sign(coeff)."""
    ch = ChannelSet(0j, 0j, 0j, *vecs)
    sweep = boundary_sweep(np.abs(coeff)[None], np.where(coeff < 0, -1, 1), ch)
    return float(sweep.lam[0]), sweep.beamformer(0, 1.0)


def _dense(coeff: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    n = vecs.shape[1]
    z = np.zeros((n, n), dtype=np.complex128)
    for c, h in zip(coeff, vecs):
        z += c * np.outer(h, np.conj(h))
    return z


def _check_eigpair(report: ValidationReport, rng, count: int = 300) -> None:
    worst_val = worst_res = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        coeff, vecs = _random_rank_sum(rng, n)
        lam, v = _top_eigpair(coeff, vecs)
        dense = _dense(coeff, vecs)
        lam_ref = float(np.linalg.eigvalsh(dense)[-1])
        scale = float(np.sum(np.abs(coeff) * np.sum(np.abs(vecs) ** 2, axis=1)))
        worst_val = max(worst_val, abs(lam - lam_ref))
        worst_res = max(worst_res, float(np.linalg.norm(dense @ v - lam * v)) / scale)
    report.add(
        "top_eigpair_dense_agreement",
        worst_val <= 1e-10,
        f"worst |lambda - dense| = {worst_val:.2e} over {count} instances",
    )
    report.add(
        "top_eigpair_residual",
        worst_res <= 1e-9,
        f"worst scaled residual = {worst_res:.2e}",
    )


def _check_phase_invariance(report: ValidationReport, rng, count: int = 100) -> None:
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 6))
        coeff, vecs = _random_rank_sum(rng, n)
        lam, _ = _top_eigpair(coeff, vecs)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(coeff)))
        lam2, _ = _top_eigpair(coeff, vecs * phases[:, None])
        worst = max(worst, abs(lam - lam2))
    report.add(
        "eigenvalue_phase_invariance",
        worst <= 1e-12,
        f"worst |lambda shift| = {worst:.2e} over {count} instances",
    )


def _check_rate_spots(report: ValidationReport, sd_secrecy=secrecy_rate_sd) -> None:
    p = SystemParams(p_p=1.0, p_s_max=4.0, alpha=0.5, n_t=2)
    ch = sample_channels(p, TrialSeed(7, 0))
    # Hand-set channels reproduce closed-form values.
    ch.h_pp = complex(np.sqrt(3.0))
    ch.h_pe = complex(np.sqrt(3.0))
    ch.h_sp = np.array([0.0 + 0j, 1.0 + 0j])
    ch.h_se = np.array([np.sqrt(2.0) + 0j, 0.3 + 0j])
    w = np.array([1.0 + 0j, 0.0 + 0j])
    got = sd_secrecy(w, ch, p)
    want = 1.0  # log2(4) - log2(2) with the gains above
    ok = abs(got - want) <= 1e-12
    report.add("secrecy_rate_sd", ok, f"spot value {got!r}, expected {want!r}")
    bundle = jd_rate_bundle(w, ch, p)
    chain = abs(bundle.r_pe_sd + bundle.r_se_jd - bundle.r_e_mac) + abs(
        bundle.r_pe_jd + bundle.r_se_sd - bundle.r_e_mac
    )
    report.add("jd_rate_bundle_chain", chain <= 1e-10, f"chain defect {chain:.2e}")


def _check_mac_chain(report: ValidationReport, rng, count: int = 1000) -> None:
    worst = 0.0
    for i in range(count):
        nt = int(rng.integers(2, 5))
        p = SystemParams.from_snr_db(float(rng.uniform(0, 25)), 0.0, nt)
        ch = sample_channels(p, TrialSeed(101, i))
        w = np.sqrt(p.p_s_max) * _random_dir(rng, nt)
        b = jd_rate_bundle(w, ch, p)
        worst = max(
            worst,
            abs(b.r_pe_sd + b.r_se_jd - b.r_e_mac),
            abs(b.r_pe_jd + b.r_se_sd - b.r_e_mac),
        )
    report.add("mac_chain_identity", worst <= 1e-10, f"worst defect {worst:.2e}")


def _random_dir(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _check_jd_le_sd(report: ValidationReport, rng, count: int = 1000) -> None:
    worst = -np.inf
    for i in range(count):
        nt = int(rng.integers(2, 5))
        p = SystemParams.from_snr_db(float(rng.uniform(0, 25)), 0.0, nt)
        ch = sample_channels(p, TrialSeed(202, i))
        w = np.sqrt(p.p_s_max * rng.uniform(0, 1)) * _random_dir(rng, nt)
        jd, _ = secrecy_rate_jd(w, ch, p)
        sd = secrecy_rate_sd(w, ch, p)
        worst = max(worst, jd - sd)
    report.add(
        "jd_below_sd_pointwise", worst <= 1e-10, f"worst jd - sd = {worst:.2e}"
    )


def _check_mrt(report: ValidationReport, rng, count: int = 2000) -> None:
    p = SystemParams.from_snr_db(10.0, 0.0, 3)
    ch = sample_channels(p, TrialSeed(303, 0))
    from .model import mrt_beamformer

    w = mrt_beamformer(ch, p)
    best = max(
        float(np.abs(np.vdot(np.sqrt(p.p_s_max) * _random_dir(rng, 3), ch.h_ss)) ** 2)
        for _ in range(count)
    )
    mrt_gain = float(np.abs(np.vdot(w, ch.h_ss)) ** 2)
    report.add(
        "mrt_maximizes_gain",
        best <= mrt_gain + 1e-12,
        f"best random gain {best:.6f} vs MRT {mrt_gain:.6f}",
    )


def _check_zero_forcing(report: ValidationReport, rng, count: int = 200) -> None:
    worst = 0.0
    for i in range(count):
        nt = int(rng.integers(2, 5))
        p = SystemParams.from_snr_db(10.0, 0.0, nt)
        ch = sample_channels(p, TrialSeed(404, i))
        pt = boundary_beamformer((1.0, 0.0, 0.0), DIRECTION_SUPPRESS_PRIMARY,
                                 ch, p.p_s_max)
        bound = 1e-20 * p.p_s_max * float(np.linalg.norm(ch.h_sp) ** 2)
        worst = max(worst, pt.gains[0] / max(bound, 1e-300))
    report.add(
        "zero_forcing_exactness",
        worst <= 1.0,
        f"worst gain / bound ratio = {worst:.2e} over {count} channels",
    )


def _check_oracles(report: ValidationReport, seed: int, instances: int,
                   quick: bool) -> None:
    # Quick mode trades oracle grid density for runtime, so its agreement
    # bound is looser than the full-grid acceptance bound.
    if quick:
        sd_grid, jd_grid = (601, 1200), (301, 600)
        sd_tol, jd_tol = 2e-3, 4e-3
    else:
        sd_grid, jd_grid = (1601, 3200), (601, 1200)
        sd_tol, jd_tol = 1e-3, 2e-3
    t0 = time.time()
    worst_sd = worst_jd = 0.0
    for t in range(instances):
        for alpha in (0.0, 0.5):
            p = SystemParams.from_snr_db(10.0, alpha, 2)
            ch = sample_channels(p, TrialSeed(seed, t))
            sweeps = unit_sweeps(ch)
            s_sd = solve_sd(ch, p, sweeps=sweeps)
            s_jd = solve_jd(ch, p, sweeps=sweeps)
            b_sd = brute_force_sd(ch, p, n_theta=sd_grid[0], n_phi=sd_grid[1])
            b_jd = brute_force_jd(ch, p, n_theta=jd_grid[0], n_phi=jd_grid[1])
            worst_sd = max(worst_sd, abs(s_sd.secrecy_bits - b_sd.secrecy_bits))
            worst_jd = max(worst_jd, abs(s_jd.secrecy_bits - b_jd.secrecy_bits))
            peaceful = peaceful_rate(ch, p)
            if s_sd.secrecy_bits > peaceful + 1e-9 or s_jd.secrecy_bits > (
                s_sd.secrecy_bits + 1e-9
            ):
                report.add(
                    "solver_dominance_chain",
                    False,
                    f"violated at trial {t} alpha {alpha}",
                )
                return
    elapsed = time.time() - t0
    report.add(
        "oracle_equivalence_sd",
        worst_sd <= sd_tol,
        f"worst |solve - brute| = {worst_sd:.2e} (tol {sd_tol:g}, "
        f"{instances} instances x 2 alphas)",
    )
    report.add(
        "oracle_equivalence_jd",
        worst_jd <= jd_tol,
        f"worst |solve - brute| = {worst_jd:.2e} (tol {jd_tol:g})",
    )
    report.add("solver_dominance_chain", True, "jd <= sd <= peaceful held")
    report.add("oracle_suite_runtime", True, f"{elapsed:.1f}s")


def _check_feasibility(report: ValidationReport, seed: int, count: int = 20) -> None:
    worst = np.inf
    for t in range(count):
        p = SystemParams.from_snr_db(15.0, 0.7, 3)
        ch = sample_channels(p, TrialSeed(seed + 1, t))
        sweeps = unit_sweeps(ch)
        r_min = required_rate(ch, p)
        for res in (solve_jd(ch, p, sweeps=sweeps), solve_sd(ch, p, sweeps=sweeps)):
            worst = min(worst, res.secondary_bits - r_min)
    report.add(
        "qos_feasibility",
        worst >= -1e-9,
        f"worst secondary margin {worst:.2e} over {count} instances",
    )


def _secrecy_sd_flipped_eve_sign(w: np.ndarray, ch, p) -> float:
    """secrecy_rate_sd with the sign of the eavesdropper's interference
    term flipped: the fault that --inject-fault flip-eve-sign plants."""
    gain_sp = float(np.abs(np.vdot(w, ch.h_sp)) ** 2)
    gain_se = float(np.abs(np.vdot(w, ch.h_se)) ** 2)
    return float(sd_secrecy_from_gains(gain_sp, -gain_se, ch, p))


def run_validation(
    quick: bool = False,
    seed: int = 20260810,
    instances: int | None = None,
    inject: str | None = None,
) -> ValidationReport:
    """Run every check; inject="flip-eve-sign" proves the suite would notice
    a sign error in the eavesdropper noise term of the secrecy rate."""
    report = ValidationReport()
    rng = np.random.Generator(np.random.PCG64(seed))
    if instances is None:
        instances = 20 if quick else 50
    if inject == "flip-eve-sign":
        # Fault injection only needs to show the spot checks notice.
        with np.errstate(invalid="ignore", divide="ignore"):
            _check_rate_spots(report, _secrecy_sd_flipped_eve_sign)
        return report
    _check_rate_spots(report)
    _check_eigpair(report, rng)
    _check_phase_invariance(report, rng)
    _check_mac_chain(report, rng)
    _check_jd_le_sd(report, rng)
    _check_mrt(report, rng)
    _check_zero_forcing(report, rng)
    _check_feasibility(report, seed)
    _check_oracles(report, seed, instances, quick)
    return report

