"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy Monte Carlo fixtures are shared between criteria and parallelized
over two worker processes; every random quantity is seeded, so reruns are
reproducible.
"""

import io
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from leasesec.cli import emit_csv
from leasesec.harness import SweepConfig, run_sweep, summarize
from leasesec.model import SystemParams, TrialSeed, sample_channels
from leasesec.pgr import DIRECTION_SUPPRESS_PRIMARY, boundary_beamformer
from leasesec.rates import jd_rate_bundle, no_leasing_secrecy, peaceful_rate
from leasesec.solver import (
    brute_force_jd,
    brute_force_sd,
    solve_cell,
    solve_jd,
    solve_sd,
    unit_sweeps,
)

pytestmark = pytest.mark.acceptance

WORKERS = 2

ORACLE_SEED = 20260810
FULL_POWER_SEED = 424242
CHAIN_SEED = 31415
NT_SWEEP_SEED = 2718
ZF_SEED = 5150
FAILURE_CASE_SEED = 1618

ALPHAS = (0.0, 0.5, 0.8)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _pooled(fn, args):
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(fn, args, chunksize=4))


# ---------------------------------------------------------------- criteria 1+2


def _oracle_instance(trial: int):
    out = []
    for alpha in (0.0, 0.5):
        p = SystemParams.from_snr_db(10.0, alpha, 2)
        ch = sample_channels(p, TrialSeed(ORACLE_SEED, trial))
        sweeps = unit_sweeps(ch)
        t0 = time.time()
        s_sd = solve_sd(ch, p, sweeps=sweeps)
        b_sd = brute_force_sd(ch, p)
        sd_time = time.time() - t0
        s_jd = solve_jd(ch, p, sweeps=sweeps)
        b_jd = brute_force_jd(ch, p)
        out.append(
            (
                s_sd.secrecy_bits - b_sd.secrecy_bits,
                s_jd.secrecy_bits - b_jd.secrecy_bits,
                sd_time,
            )
        )
    return out


@pytest.fixture(scope="module")
def oracle_deltas():
    t0 = time.time()
    results = _pooled(_oracle_instance, range(100))
    elapsed = time.time() - t0
    flat = [row for pair in results for row in pair]
    return np.array(flat), elapsed


def test_criterion_1_sd_oracle_equivalence(oracle_deltas):
    deltas, _ = oracle_deltas
    worst = float(np.max(np.abs(deltas[:, 0])))
    sd_seconds = float(np.sum(deltas[:, 2])) + 0.0
    ok = worst <= 1e-3 and sd_seconds < 300.0
    report(
        "criterion 1 (single-user oracle equivalence)",
        ok,
        f"worst |solve-brute| = {worst:.2e} over 200 runs (tol 1e-3), "
        f"solver+oracle time {sd_seconds:.0f}s (< 300s)",
    )


def test_criterion_2_jd_oracle_equivalence(oracle_deltas):
    deltas, _ = oracle_deltas
    worst = float(np.max(np.abs(deltas[:, 1])))
    report(
        "criterion 2 (joint-decoding oracle equivalence)",
        worst <= 2e-3,
        f"worst |solve-brute| = {worst:.2e} over 200 runs (tol 2e-3)",
    )


# ------------------------------------------------------------------ criterion 3


def _full_power_instance(args):
    nt, trial = args
    alpha = ALPHAS[trial % 3]
    snr = (0.0, 10.0, 20.0)[(trial // 3) % 3]
    p = SystemParams.from_snr_db(snr, alpha, nt)
    ch = sample_channels(p, TrialSeed(FULL_POWER_SEED, 1000 * nt + trial))
    base = solve_sd(ch, p)
    swept = solve_sd(ch, p, power_levels=np.linspace(0.0, p.p_s_max, 64))
    return swept.secrecy_bits - base.secrecy_bits


def test_criterion_3_full_power_property():
    args = [(nt, t) for nt in (2, 3, 4) for t in range(167)]
    improvements = np.array(_pooled(_full_power_instance, args))
    worst = float(np.max(improvements))
    report(
        "criterion 3 (full transmit power is never beaten)",
        worst <= 1e-9,
        f"worst power-sweep improvement = {worst:.2e} over "
        f"{len(args)} instances (tol 1e-9)",
    )


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_chain_identity_and_continuity():
    rng = np.random.default_rng(1001)
    worst_chain = worst_cont = 0.0
    for i in range(10_000):
        nt = int(rng.integers(2, 5))
        p = SystemParams.from_snr_db(float(rng.uniform(0.0, 30.0)), 0.0, nt)
        ch = sample_channels(p, TrialSeed(1001, i))
        w = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        w *= np.sqrt(p.p_s_max * rng.uniform(0.0, 1.0)) / np.linalg.norm(w)
        b = jd_rate_bundle(w, ch, p)
        worst_chain = max(
            worst_chain,
            abs(b.r_pe_sd + b.r_se_jd - b.r_e_mac),
            abs(b.r_pe_jd + b.r_se_sd - b.r_e_mac),
        )
        case1 = b.r_pp_sd - b.r_pe_sd
        case2_hi = b.r_pp_sd - b.r_e_mac + b.r_se_jd
        case2_lo = b.r_pp_sd - b.r_e_mac + b.r_se_sd
        case3 = b.r_pp_sd - b.r_pe_jd
        worst_cont = max(worst_cont, abs(case1 - case2_hi), abs(case2_lo - case3))
    ok = worst_chain <= 1e-10 and worst_cont <= 1e-10
    report(
        "criterion 4 (rate chain identity and branch continuity)",
        ok,
        f"worst chain defect {worst_chain:.2e}, worst boundary mismatch "
        f"{worst_cont:.2e} over 10000 tuples (tol 1e-10)",
    )


# ------------------------------------------------------------- criteria 5 and 6


def _chain_trial(trial: int):
    base = SystemParams.from_snr_db(20.0, 0.0, 3)
    ch = sample_channels(base, TrialSeed(CHAIN_SEED, trial))
    cell = solve_cell(ch, base, ALPHAS)
    secrecy = np.array(
        [[cell[(dec, a)].secrecy_bits for a in ALPHAS] for dec in ("SD", "JD")]
    )
    return secrecy, peaceful_rate(ch, base), no_leasing_secrecy(ch, base)


@pytest.fixture(scope="module")
def chain_trials():
    results = _pooled(_chain_trial, range(2000))
    secrecy = np.stack([r[0] for r in results])  # (T, 2, 3)
    peaceful = np.array([r[1] for r in results])
    no_leasing = np.array([r[2] for r in results])
    return secrecy, peaceful, no_leasing


def test_criterion_5_dominance_chain(chain_trials):
    secrecy, peaceful, _ = chain_trials
    sd, jd = secrecy[:, 0, :], secrecy[:, 1, :]
    v_jd_sd = int(np.sum(jd > sd + 1e-9))
    v_peace = int(np.sum(sd > peaceful[:, None] + 1e-9))
    v_alpha = int(np.sum(secrecy[:, :, :-1] < secrecy[:, :, 1:] - 1e-9))
    ok = v_jd_sd == 0 and v_peace == 0 and v_alpha == 0
    report(
        "criterion 5 (per-trial dominance chain and alpha monotonicity)",
        ok,
        f"violations over 2000 paired trials: jd>sd {v_jd_sd}, "
        f"sd>peaceful {v_peace}, alpha order {v_alpha} (slack 1e-9)",
    )


def test_criterion_6_leasing_beats_silence(chain_trials):
    secrecy, _, no_leasing = chain_trials
    T = secrecy.shape[0]
    lines = []
    ok = True
    for i_d, dec in enumerate(("SD", "JD")):
        alphas = ALPHAS if dec == "SD" else ALPHAS[:2]
        for i_a, alpha in enumerate(alphas):
            vals = secrecy[:, i_d, i_a]
            ci = 1.96 * float(np.std(vals, ddof=1)) / math.sqrt(T)
            gap = float(np.mean(vals) - np.mean(no_leasing))
            lines.append(f"{dec}@{alpha:g}: gap {gap:+.4f} vs 2*ci {2 * ci:.4f}")
            ok = ok and gap > 2.0 * ci
    report(
        "criterion 6 (mean leasing gain over silence at 20 dB, 3 antennas)",
        ok,
        "; ".join(lines),
    )


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_failure_case_is_reported():
    cfg = SweepConfig(
        decoder="JD",
        snr_db_list=(20.0,),
        nt_list=(2,),
        alpha_list=(0.8,),
        trials=2000,
        master_seed=FAILURE_CASE_SEED,
    )
    rows = run_sweep(cfg, workers=WORKERS)
    row = rows[0]
    gap = row.mean_secrecy_bits - row.mean_no_leasing_bits
    text = summarize(rows)
    flagged = "LEASING<NO-LEASING" in text
    ok = flagged == (gap < 0) and f"{gap:+.4f}" in text
    report(
        "criterion 7 (two-antenna, high-QoS joint-decoding shortfall is flagged)",
        ok,
        f"mean gap {gap:+.4f} (may be <= 0); summary "
        f"{'flags it' if flagged else 'shows no flag'}",
    )


# ------------------------------------------------------------------ criterion 8


def _nt_trial(args):
    nt, trial = args
    base = SystemParams.from_snr_db(20.0, 0.0, nt)
    ch = sample_channels(base, TrialSeed(NT_SWEEP_SEED, trial))
    cell = solve_cell(ch, base, (0.5,))
    return (
        cell[("SD", 0.5)].secrecy_bits,
        cell[("JD", 0.5)].secrecy_bits,
        peaceful_rate(ch, base),
    )


@pytest.fixture(scope="module")
def nt_sweep():
    nts = tuple(range(2, 11))
    trials = 300
    args = [(nt, t) for nt in nts for t in range(trials)]
    flat = np.array(_pooled(_nt_trial, args)).reshape(len(nts), trials, 3)
    return nts, flat


def test_criterion_8_more_antennas_never_hurt(nt_sweep):
    nts, data = nt_sweep
    T = data.shape[1]
    ok = True
    worst = np.inf
    for i_d, dec in enumerate(("SD", "JD")):
        means = data[:, :, i_d].mean(axis=1)
        for k in range(len(nts) - 1):
            diff = data[k + 1, :, i_d] - data[k, :, i_d]
            ci = 1.96 * float(np.std(diff, ddof=1)) / math.sqrt(T)
            margin = float(np.mean(diff)) + ci
            worst = min(worst, margin)
            ok = ok and margin >= 0.0
    # the single-user decoder closes in on the peaceful bound
    gap = data[:, :, 2] - data[:, :, 0]  # peaceful - SD, per trial
    d = gap[nts.index(3)] - gap[nts.index(10)]
    signif = float(np.mean(d)) - 1.96 * float(np.std(d, ddof=1)) / math.sqrt(T)
    ok = ok and signif > 0.0
    report(
        "criterion 8 (secrecy nondecreasing in antennas; gap to peaceful shrinks)",
        ok,
        f"worst paired step margin {worst:+.4f} (>= 0), peaceful-gap drop "
        f"3->10 antennas significant by {signif:+.4f}",
    )


# ------------------------------------------------------------------ criterion 9


def test_criterion_9_zero_forcing_exactness():
    rng_counts = {2: 334, 3: 333, 4: 333}
    worst_ratio = 0.0
    trial = 0
    for nt, count in rng_counts.items():
        p = SystemParams.from_snr_db(10.0, 0.0, nt)
        for _ in range(count):
            ch = sample_channels(p, TrialSeed(ZF_SEED, trial))
            trial += 1
            pt = boundary_beamformer(
                (1.0, 0.0, 0.0), DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max
            )
            bound = 1e-20 * p.p_s_max * float(np.linalg.norm(ch.h_sp) ** 2)
            worst_ratio = max(worst_ratio, pt.gains[0] / bound)
    report(
        "criterion 9 (zero-forcing boundary point nulls the primary exactly)",
        worst_ratio <= 1.0,
        f"worst leaked-gain ratio {worst_ratio:.2e} of the 1e-20 bound "
        "over 1000 channels",
    )


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_byte_identical_reruns():
    cfg = SweepConfig(
        decoder="BOTH",
        snr_db_list=(0.0, 20.0),
        nt_list=(2,),
        alpha_list=(0.0, 0.8),
        trials=30,
        master_seed=8080,
        simplex_resolution=40,
    )

    def csv_of(workers):
        buf = io.StringIO()
        emit_csv(run_sweep(cfg, workers=workers), buf)
        return buf.getvalue().encode()

    first = csv_of(1)
    ok = first == csv_of(2) and first == csv_of(1)
    report(
        "criterion 10 (byte-identical CSV for any worker count)",
        ok,
        f"{len(first)} CSV bytes identical across worker counts 1 and 2",
    )
