"""Output checks for the benchmark workloads.

Each check holds the program's outputs against a property the method must
have, or against a closed-form value computed here from the same channel
draws.  The formulas below are written from the system model (unit noise
everywhere, primary and secondary power both 10^(snr_db/10)) and share no
code with the package.  No check reads a stored copy of earlier output, and
none depends on timing, so a traced run is held to exactly the same checks.

Every check function returns, for each operation, the list of reasons it
failed (an empty list for an operation that passed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Slack on orderings that hold exactly in exact arithmetic: JD <= SD <=
# peaceful, secrecy non-increasing in alpha, the QoS bound, the power budget.
ORDER_SLACK = 1e-9
# Benchmark-side recomputation vs the value the program reports.
MATCH_TOL = 1e-9
# |solve - brute force| limits of acceptance criteria 1 (SD) and 2 (JD).
SD_ORACLE_TOL = 1e-3
JD_ORACLE_TOL = 2e-3

CSV_HEADER = (
    "decoder,snr_db,nt,alpha,trials,mean_secrecy_bits,ci95,"
    "mean_secondary_bits,no_leasing_bits,peaceful_bits,degenerate_resamples"
)


# ------------------------------------------------------------ closed forms


def power(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def peaceful_bits(ch, snr_db: float) -> float:
    """Primary rate with neither eavesdropper nor secondary interference."""
    return math.log2(1.0 + abs(ch.h_pp) ** 2 * power(snr_db))


def no_leasing_bits(ch, snr_db: float) -> float:
    """Primary secrecy rate while the secondary stays silent."""
    P = power(snr_db)
    return max(
        0.0,
        math.log2(1.0 + abs(ch.h_pp) ** 2 * P) - math.log2(1.0 + abs(ch.h_pe) ** 2 * P),
    )


def r_s_max_bits(ch, snr_db: float) -> float:
    """Secondary rate of full-power maximum ratio transmission."""
    P = power(snr_db)
    g = P * float(np.sum(np.abs(ch.h_ss) ** 2))
    return math.log2(1.0 + g / (1.0 + abs(ch.h_ps) ** 2 * P))


def gains(w, ch) -> tuple:
    """(|w^H h_sp|^2, |w^H h_se|^2, |w^H h_ss|^2) by explicit sums."""
    w = np.asarray(w, dtype=complex)
    return tuple(
        float(abs(np.sum(np.conj(w) * h)) ** 2) for h in (ch.h_sp, ch.h_se, ch.h_ss)
    )


def secondary_bits(g, ch, snr_db: float) -> float:
    return math.log2(1.0 + g[2] / (1.0 + abs(ch.h_ps) ** 2 * power(snr_db)))


def primary_bits(g, ch, snr_db: float) -> float:
    """Primary rate with the secondary signal as noise at the primary receiver."""
    return math.log2(1.0 + abs(ch.h_pp) ** 2 * power(snr_db) / (1.0 + g[0]))


def sd_secrecy_bits(g, ch, snr_db: float) -> float:
    """Secrecy against an eavesdropper that treats the secondary as noise."""
    a_pe = abs(ch.h_pe) ** 2 * power(snr_db)
    leak = math.log2(1.0 + a_pe / (1.0 + g[1]))
    return max(0.0, primary_bits(g, ch, snr_db) - leak)


def jd_secrecy_bits(g, ch, snr_db: float) -> float:
    """Secrecy against an eavesdropper that may decode the secondary jointly.

    The eavesdropper's rate on the primary is its multiple-access sum rate
    minus the secondary rate, clipped between what it gets with the
    secondary as noise and what it gets with the secondary removed.
    """
    a_pe = abs(ch.h_pe) ** 2 * power(snr_db)
    sum_rate = math.log2(1.0 + a_pe + g[1])
    as_noise = math.log2(1.0 + a_pe / (1.0 + g[1]))
    removed = math.log2(1.0 + a_pe)
    leak = min(removed, max(as_noise, sum_rate - secondary_bits(g, ch, snr_db)))
    return max(0.0, primary_bits(g, ch, snr_db) - leak)


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True)
class SweepSpec:
    """The cells one sweep round must answer."""

    decoders: tuple
    nts: tuple
    snrs: tuple
    alphas: tuple
    trials: int

    def keys(self) -> list:
        """(decoder, nt, alpha, snr) in the documented CSV row order."""
        return [
            (d, nt, a, s)
            for d in sorted(self.decoders)
            for nt in sorted(self.nts)
            for a in sorted(self.alphas)
            for s in sorted(self.snrs)
        ]


@dataclass(frozen=True)
class Row:
    decoder: str
    snr_db: float
    nt: int
    alpha: float
    trials: int
    secrecy: float
    ci95: float
    secondary: float
    no_leasing: float
    peaceful: float
    resamples: int

    @property
    def key(self) -> tuple:
        return (self.decoder, self.nt, self.alpha, self.snr_db)


def parse_csv(text: str) -> list[Row]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        c = line.split(",")
        if len(c) != 11:
            raise ValueError(f"expected 11 fields, got {len(c)}: {line!r}")
        rows.append(
            Row(c[0], float(c[1]), int(c[2]), float(c[3]), int(c[4]), float(c[5]),
                float(c[6]), float(c[7]), float(c[8]), float(c[9]), int(c[10]))
        )
    return rows


def check_sweep(text: str, spec: SweepSpec, draws: dict) -> list[list[str]]:
    """Check one sweep CSV; one operation per expected row.

    draws maps each antenna count to the round's channel draws, in trial
    order, exactly as the sweep draws them.
    """
    keys = spec.keys()
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [[f"unparseable CSV: {exc}"] for _ in keys]
    if [r.key for r in rows] != keys:
        return [["rows do not match the configured cells and order"] for _ in keys]
    by_key = {r.key: r for r in rows}
    alphas = sorted(spec.alphas)
    reasons = []
    for r in rows:
        bad = []
        chans = draws[r.nt]
        T = len(chans)
        peaceful = math.fsum(peaceful_bits(ch, r.snr_db) for ch in chans) / T
        no_leasing = math.fsum(no_leasing_bits(ch, r.snr_db) for ch in chans) / T
        rs_max = math.fsum(r_s_max_bits(ch, r.snr_db) for ch in chans) / T
        values = (r.secrecy, r.ci95, r.secondary, r.no_leasing, r.peaceful)
        if not all(math.isfinite(v) for v in values):
            bad.append("non-finite value")
        if r.trials != spec.trials:
            bad.append(f"trials {r.trials} != {spec.trials}")
        if r.resamples != sum(ch.resamples for ch in chans):
            bad.append("degenerate_resamples does not match the draws")
        if abs(r.peaceful - peaceful) > MATCH_TOL:
            bad.append(f"peaceful_bits {r.peaceful!r} != closed form {peaceful!r}")
        if abs(r.no_leasing - no_leasing) > MATCH_TOL:
            bad.append(f"no_leasing_bits {r.no_leasing!r} != closed form {no_leasing!r}")
        if r.secrecy < 0.0:
            bad.append("negative secrecy")
        if r.secrecy > r.peaceful + ORDER_SLACK:
            bad.append("secrecy above the peaceful rate")
        if r.decoder == "JD" and "SD" in spec.decoders:
            sd = by_key[("SD", r.nt, r.alpha, r.snr_db)]
            if r.secrecy > sd.secrecy + ORDER_SLACK:
                bad.append(f"JD secrecy {r.secrecy!r} above SD {sd.secrecy!r}")
        i_a = alphas.index(r.alpha)
        if i_a > 0:
            lower = by_key[(r.decoder, r.nt, alphas[i_a - 1], r.snr_db)]
            if r.secrecy > lower.secrecy + ORDER_SLACK:
                bad.append(f"secrecy rises from alpha {lower.alpha} to {r.alpha}")
        if r.secondary < r.alpha * rs_max - ORDER_SLACK:
            bad.append(f"mean secondary {r.secondary!r} below alpha * r_s_max")
        if r.secondary > rs_max + ORDER_SLACK:
            bad.append("mean secondary above the full-power MRT rate")
        reasons.append(bad)
    return reasons


# ------------------------------------------------------------ oracle check


def check_instance(ch, snr_db: float, alpha: float, sd, jd, bsd, bjd) -> list[str]:
    """Check one (channel, alpha) instance: both solver results and oracles.

    sd, jd, bsd and bjd need the attributes w, secrecy_bits, secondary_bits
    and feasible, as the package's OptResult has; bsd and bjd are None for
    an instance that was only solved.  The distance between each answer and
    its oracle is check_oracle's.
    """
    bad = []
    P = power(snr_db)
    rs_max = r_s_max_bits(ch, snr_db)
    for name, res, secrecy in (("SD", sd, sd_secrecy_bits), ("JD", jd, jd_secrecy_bits)):
        g = gains(res.w, ch)
        own = secrecy(g, ch, snr_db)
        own_rs = secondary_bits(g, ch, snr_db)
        if not res.feasible:
            bad.append(f"{name} result marked infeasible")
        if abs(own - res.secrecy_bits) > MATCH_TOL:
            bad.append(f"{name} secrecy {res.secrecy_bits!r} != recomputed {own!r}")
        if abs(own_rs - res.secondary_bits) > MATCH_TOL:
            bad.append(f"{name} secondary {res.secondary_bits!r} != recomputed {own_rs!r}")
        norm2 = float(np.sum(np.abs(np.asarray(res.w)) ** 2))
        if norm2 > P * (1.0 + ORDER_SLACK):
            bad.append(f"{name} ||w||^2 = {norm2!r} over the budget {P!r}")
        if own_rs < alpha * rs_max - ORDER_SLACK:
            bad.append(f"{name} secondary {own_rs!r} misses QoS {alpha * rs_max!r}")
    # The SD optimum is at least the better of the two SD answers, so a
    # solve_sd that falls short of its oracle does not fail this ordering.
    sd_best = sd.secrecy_bits if bsd is None else max(sd.secrecy_bits, bsd.secrecy_bits)
    if jd.secrecy_bits > sd_best + ORDER_SLACK:
        bad.append(f"JD {jd.secrecy_bits!r} above SD {sd_best!r}")
    if sd_best > peaceful_bits(ch, snr_db) + ORDER_SLACK:
        bad.append("SD secrecy above the peaceful rate")
    if bsd is not None and not (bsd.feasible and bjd.feasible):
        bad.append("an oracle found no QoS-feasible point")
    return bad


def check_oracle(solved, brute, tol: float, name: str, known_short: float = 0.0) -> tuple:
    """(reasons, notes) for a solver answer held to its oracle within tol.

    The answer fails if it beats the oracle by more than tol, or if it falls
    short by more than tol and by more than known_short, the recorded size
    of a known fault.  A shortfall within known_short is a note instead.
    """
    gap = brute.secrecy_bits - solved.secrecy_bits
    if -gap > tol:
        return [f"solve_{name} beats brute_force_{name} by {-gap:.3e} > {tol}"], []
    if gap <= tol:
        return [], []
    short = f"solve_{name} short of brute_force_{name} by {gap:.3e}"
    if gap > known_short:
        return [f"{short} > {max(tol, known_short)}"], []
    return [], [f"{short} > {tol}"]


def check_identical(reference: str, traced: str, ops: int) -> list[list[str]]:
    """Traced and untraced passes over the same inputs must print the same rows."""
    if reference == traced:
        return [[] for _ in range(ops)]
    return [["traced rows differ from the untraced rows"] for _ in range(ops)]
