"""Optimal beamformer search for both eavesdropper models, plus oracles.

The single-user-decoding optimum lives on the power-gain-region boundary
that suppresses the primary receiver and boosts the other two, at full
power.  The joint-decoding optimum is searched in three candidate pools,
one per branch of the piecewise secrecy rate and one boundary family each.
Against a joint decoder partial power can beat full power, but along a
fixed direction the best power has a closed form (_jd_powers), so power is
computed, never searched: the free-power pools score each direction at the
budget and at its exact best power under each QoS bound of the call.

One search engine, _search, serves solve_sd, solve_jd and solve_cell: each
pool runs a coarse simplex lattice first, then walks a shrinking local
lattice around its best rows a few times, and every batch the walks
evaluate is scored once and folded into the running winner of every
requested (decoder, alpha) cell.  The refinement is what pushes the
worst-case gap to the continuous optimum below the millibit level, since
constrained optima sit on QoS or branch boundaries that a fixed lattice
straddles.  Brute-force oracles maximize the same objectives over dense
angular grids (random directions for n_t >= 3) and exist purely to validate
the boundary parameterization; they share nothing with it but the rate
formulas and, for the joint decoder, the exact power of each direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ChannelSet, DegenerateChannelError, SystemParams
from .pgr import (
    DIRECTION_SUPPRESS_PRIMARY,
    DIRECTION_SUPPRESS_PRIMARY_AND_EVE,
    DIRECTION_TWO_TERM,
    SweepResult,
    boundary_sweep,
    sample_simplex,
)
from .rates import (
    RegimeLabel,
    jd_secrecy_from_gains,
    required_rate,
    sd_secrecy_from_gains,
    secondary_noise,
    secondary_rate,
    secondary_rate_from_gain,
    secrecy_rate_jd,
    secrecy_rate_sd,
)

__all__ = [
    "unit_sweeps",
    "solve_sd",
    "solve_jd",
    "solve_cell",
    "brute_force_sd",
    "brute_force_jd",
]

# Absolute slack on every rate constraint; grids land near boundaries.
RATE_SLACK = 1e-9

DEFAULT_RESOLUTION = 100
# The two-weight family S3 is swept on a lattice this many times finer.
TWO_TERM_FACTOR = 4

# The JD oracle scores its directions in blocks of this many, so that its
# temporaries stay well below those of brute_force_sd's default grid.
SCAN_BLOCK = 1 << 15

# Local refinement: each round walks a +/- REFINE_SPAN-step box around the
# incumbent (recentering while the winner keeps improving, so a ridge along
# a constraint boundary can be followed arbitrarily far), then shrinks the
# lattice spacing by REFINE_FACTOR.  Three rounds take a 1/100 lattice down
# to ~2e-6.
REFINE_ROUNDS = 3
REFINE_FACTOR = 8
REFINE_SPAN = 2
MAX_WALK_MOVES = 40
# Extra walk starts from well-separated high-value feasible rows: the value
# along an active QoS boundary is nearly flat with several local bumps, so
# a single start can stall one bump short of the best.
NUM_SEEDS = 4
SEED_SEPARATION = 3.0  # in units of the coarse lattice spacing
# solve_cell, the sweep path, walks from one seed for two rounds per pool
# and relies on folding every visited lattice into all of its cells.
CELL_WALK_SEEDS = 1
CELL_WALK_ROUNDS = 2

_POOLS = ("S1", "S2", "S3")
# A joint-decoding candidate is labelled by its boundary family.
_FAMILIES = {
    DIRECTION_SUPPRESS_PRIMARY: "S1",
    DIRECTION_SUPPRESS_PRIMARY_AND_EVE: "S2",
    DIRECTION_TWO_TERM: "S3",
}


class InfeasibleSolveError(RuntimeError):
    """No candidate met the QoS constraint.

    Full-power MRT always meets it, so this points at a broken rate formula
    or candidate set, not at a hard channel.
    """


@dataclass(frozen=True)
class OptResult:
    """A solver (or oracle) outcome with everything needed to audit it."""

    w: np.ndarray
    secrecy_bits: float
    secondary_bits: float
    regime: RegimeLabel
    mu: tuple | None
    power: float
    candidate: str  # S1 | S2 | S3 | SINGLE_USER | BRUTE_FORCE
    feasible: bool


@dataclass(frozen=True)
class UnitSweeps:
    """Per-channel boundary sweeps at unit power, reusable across powers.

    Eigenvectors depend only on the channels and weights, never on the
    transmit powers, so one UnitSweeps serves every (SNR, alpha, decoder)
    cell that shares the channel realization.  s2 and s3 are None when only
    the single-user family was swept (solve_sd without sweeps).  The
    two-weight family s3 has the finer lattice, resolution TWO_TERM_FACTOR * m.
    """

    s1: SweepResult
    s2: SweepResult | None
    s3: SweepResult | None
    m: int

    def sweep(self, pool: str) -> SweepResult:
        return {"S1": self.s1, "S2": self.s2, "S3": self.s3}[pool]


def _require_general_position(ch: ChannelSet) -> None:
    if not ch.general_position():
        raise DegenerateChannelError("channel vectors are not in general position")


def unit_sweeps(ch: ChannelSet, m: int = DEFAULT_RESOLUTION) -> UnitSweeps:
    """All three candidate-family sweeps for one channel realization."""
    _require_general_position(ch)
    return UnitSweeps(
        s1=boundary_sweep(sample_simplex(3, m), DIRECTION_SUPPRESS_PRIMARY, ch),
        s2=boundary_sweep(sample_simplex(3, m), DIRECTION_SUPPRESS_PRIMARY_AND_EVE, ch),
        s3=boundary_sweep(sample_simplex(2, TWO_TERM_FACTOR * m), DIRECTION_TWO_TERM, ch),
        m=m,
    )


def _local_simplex(center: np.ndarray, spacing: float) -> np.ndarray:
    """Weight rows on a finer lattice around center, clipped to the simplex.

    The returned rows use spacing/REFINE_FACTOR steps and cover a box of
    +/- REFINE_SPAN * spacing per coordinate (moves sum to zero, so every
    row still sums to one).
    """
    k = len(center)
    h = spacing / REFINE_FACTOR
    d = REFINE_SPAN * REFINE_FACTOR
    steps = np.arange(-d, d + 1)
    if k == 3:
        i, j = np.meshgrid(steps, steps, indexing="ij")
        l = -(i + j)
        ok = np.abs(l) <= d
        moves = np.column_stack([i[ok], j[ok], l[ok]])
    else:
        moves = np.column_stack([steps, -steps])
    rows = center[None, :] + h * moves
    rows = rows[np.all(rows >= -1e-12, axis=1)]
    rows = np.clip(rows, 0.0, None)
    return rows / rows.sum(axis=1, keepdims=True)


def _top(value: np.ndarray, rss: np.ndarray, idx: np.ndarray) -> int:
    """The index in (ascending) idx with the highest value, then the highest
    rss among rows tied on value, then the first position; O(len(idx))."""
    v = value[idx]
    tied = idx[v == v.max()]
    return int(tied[np.argmax(rss[tied])])


@dataclass
class _Best:
    """Running winner of a candidate enumeration (deterministic order)."""

    value: float = -np.inf
    rss: float = -np.inf
    sweep: SweepResult | None = None
    row: int = -1
    power: float = 0.0

    def consider(self, value, rss, powers, rows, keep, sweep) -> bool:
        """Fold in the batch's _top pick under keep; True if it took over.

        Only a strictly better (value, rss) replaces the incumbent, so ties
        keep it."""
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return False
        i = _top(value, rss, idx)
        if not (value[i], rss[i]) > (self.value, self.rss):
            return False
        self.value = float(value[i])
        self.rss = float(rss[i])
        self.sweep = sweep
        self.row = int(rows[i])
        self.power = float(powers[i])
        return True

    @property
    def found(self) -> bool:
        return self.sweep is not None


def _in_branch(pool: str, g_se, rss, ch: ChannelSet, p: SystemParams):
    """The pool's branch condition of the piecewise joint-decoding rate,
    closed at both ends so boundary points stay in both adjacent pools.

    The single-user pool SD has no branch."""
    if pool == "SD":
        return np.ones(rss.shape, dtype=bool)
    s2e = p.sigma2_e
    ape = float(np.abs(ch.h_pe) ** 2 * p.p_p)
    r_se_jd = np.log2(1.0 + g_se / s2e)
    r_se_sd = np.log2(1.0 + g_se / (s2e + ape))
    if pool == "S1":
        return r_se_jd <= rss + RATE_SLACK
    if pool == "S2":
        return (r_se_sd <= rss + RATE_SLACK) & (rss <= r_se_jd + RATE_SLACK)
    return rss <= r_se_sd + RATE_SLACK


def _jd_powers(unit: np.ndarray, r_mins, ch: ChannelSet, p: SystemParams) -> np.ndarray:
    """Best joint-decoding transmit power of each direction under each QoS bound.

    unit holds the (n, 3) unit-power gains (g_sp, g_se, g_ss) of n
    directions.  Returns (n, len(r_mins)) powers in [P_qos, p_s_max], where
    P_qos = (2^r_min - 1) N_s / g_ss puts the secondary rate at r_min; the
    budget where it meets the bound only through RATE_SLACK; nan where it
    misses it (g_ss = 0 under a positive bound, or alpha 1 away from MRT).

    Along a direction every gain is P times its unit gain, and each side of
    both branch tests of the piecewise rate is log2(1 + P x), so the branch
    is the same at every P > 0: 0 iff g_se/sigma_e^2 <= g_ss/N_s, 2 iff
    g_ss/N_s < g_se/(sigma_e^2 + a_pe).  In branches 0 and 1 the derivative
    in P is a sum of four terms k_i/(c_i + d_i P) with sum k_i/d_i = 0, so
    its sign is that of a quadratic q(P); in branch 2 the rate falls and
    q < 0 everywhere.  So the rate has at most two local maxima on
    [P_qos, p_s_max]: the root where q falls through zero, and an end where
    q points outward.  The better of the two is kept, the higher power on
    a tie.
    """
    a, b, c = unit[:, 0], unit[:, 1], unit[:, 2]
    app = float(np.abs(ch.h_pp) ** 2 * p.p_p)
    ape = float(np.abs(ch.h_pe) ** 2 * p.p_p)
    s_p, s_e, n_s = p.sigma2_p, p.sigma2_e, float(secondary_noise(ch, p))
    # sign(d rate/dP) = sign(u (s_p + aP)(s_p + app + aP)
    #                        - a app (s_e + ape + bP)(y0 + y1 P))
    bn = b * n_s
    case0 = bn <= c * s_e
    u = np.where(case0, b * ape, c * (s_e + ape) - bn)
    y0 = np.where(case0, s_e, n_s)
    y1 = np.where(case0, b, c)
    ua, v = u * a, a * app
    q2 = (ua - app * b * y1) * a
    q1 = ua * (2.0 * s_p + app) - v * ((s_e + ape) * y1 + b * y0)
    q0 = u * (s_p * (s_p + app)) - v * (s_e + ape) * y0
    disc = q1 * q1 - 4.0 * q2 * q0
    sq = np.sqrt(np.maximum(disc, 0.0))
    # The root where q falls through zero, in the form free of cancellation.
    q1_neg = q1 <= 0.0
    num = np.where(q1_neg, 2.0 * q0, -q1 - sq)
    den = np.where(q1_neg, sq - q1, 2.0 * q2)
    root = np.divide(num, den, out=np.full(len(a), np.nan),
                     where=(disc >= 0.0) & (den != 0.0))
    hi = p.p_s_max
    r_mins = np.asarray(r_mins, dtype=float)[:, None]
    # One row per bound from here on.
    ok = c * hi >= (np.exp2(r_mins - RATE_SLACK) - 1.0) * n_s
    need = np.exp2(r_mins) - 1.0
    lo = np.broadcast_to(np.where(need > 0.0, hi, 0.0), ok.shape).copy()
    np.divide(need * n_s, c, out=lo, where=c > 0.0)
    lo = np.minimum(lo, hi)
    inside = (lo <= root) & (root <= hi)
    small = np.where((q2 * lo + q1) * lo + q0 < 0.0, lo, np.where(inside, root, hi))
    large = np.where((q2 * hi + q1) * hi + q0 > 0.0, hi, np.where(inside, root, lo))
    small, large = np.minimum(small, large), np.maximum(small, large)
    j, i = np.nonzero(ok & (small < large))
    if i.size:
        g = unit[np.concatenate([i, i])] * np.concatenate([small[j, i], large[j, i]])[:, None]
        value, _ = jd_secrecy_from_gains(g[:, 0], g[:, 1], g[:, 2], ch, p)
        large[j, i] = np.where(value[i.size:] >= value[:i.size], large[j, i], small[j, i])
    return np.where(ok, large, np.nan).T


def _pool_powers(sweep: SweepResult, pool: str, ch, p, r_mins, levels=None):
    """(powers, rows) candidate expansion of one batch.

    S1 uses the power levels, the budget alone by default.  S2 and S3 give
    every row the budget, then, row by row, each distinct exact best power
    (_jd_powers) under the call's QoS bounds that differs from the budget.
    """
    L = len(sweep.lam)
    if pool == "S1":
        levels = np.array([p.p_s_max] if levels is None else levels, dtype=float)
        return np.tile(levels, L), np.repeat(np.arange(L), levels.size)
    best = _jd_powers(sweep.unit_gains, r_mins, ch, p)
    new = ~np.isnan(best) & (best != p.p_s_max)
    for j in range(1, best.shape[1]):
        new[:, j] &= np.all(best[:, j:j + 1] != best[:, :j], axis=1)
    rows, cols = np.nonzero(new)
    return (np.concatenate([np.full(L, p.p_s_max), best[rows, cols]]),
            np.concatenate([np.arange(L), rows]))


def _search(ch, base, alphas, decoders, sweeps, seeds, rounds, levels=None) -> dict:
    """Walk-and-fold search for the (decoder, alpha) cells of one channel draw.

    For each alpha, each pool of the decoders (SD: the single-user rate on
    the S1 family; S1, S2 and S3: the joint-decoding rate on their own
    families, under their branch conditions) walks for `rounds` rounds
    from up to `seeds` well-separated feasible coarse rows.  When the QoS
    bound cuts the pool, one more walk starts from the QoS-relaxed winner:
    a constrained optimum often hugs the QoS boundary near the
    unconstrained maximum rather than near the best feasible lattice row.

    Each batch (a sweep under _pool_powers, which gives the free-power
    families every alpha's exact power) is scored the first time it is
    seen and folded, in first-seen order, into every cell's running winner
    under that cell's QoS mask alone; secrecy and the secondary rate do not
    depend on alpha.  The walks share one memo of refined lattices and
    their scored batches; a walk batch seen again steers the walk but is
    not folded again.  Returns {(decoder, alpha): OptResult}.
    """
    alphas = tuple(alphas)
    r_mins = {a: required_rate(ch, replace(base, alpha=a)) for a in alphas}
    bests = {(dec, a): _Best() for a in alphas for dec in decoders}
    pools = (("SD",) if "SD" in decoders else ()) + (_POOLS if "JD" in decoders else ())
    memo: dict = {}  # (lattice bytes, direction) -> (walk sweep, its batch)
    coarse: dict = {}  # family -> its scored coarse batch

    def score(sweep):
        """(powers, rows, g_se, rss, {decoder: value}) of one batch."""
        powers, rows = _pool_powers(sweep, _FAMILIES[sweep.e], ch, base,
                                    tuple(r_mins.values()), levels)
        gains = sweep.unit_gains[rows] * powers[:, None]
        values = {}
        if "SD" in decoders:
            values["SD"] = sd_secrecy_from_gains(gains[:, 0], gains[:, 1], ch, base)
        if "JD" in decoders:
            values["JD"], _ = jd_secrecy_from_gains(
                gains[:, 0], gains[:, 1], gains[:, 2], ch, base
            )
        rss = secondary_rate_from_gain(gains[:, 2], ch, base)
        return powers, rows, gains[:, 1], rss, values

    def fold(sweep, batch):
        powers, rows, _, rss, values = batch
        keeps = {a: rss >= r_min - RATE_SLACK for a, r_min in r_mins.items()}
        for (dec, a), best in bests.items():
            best.consider(values[dec], rss, powers, rows, keeps[a], sweep)

    def steer(pool, batch, r_min):
        """(value, keep, keep_relaxed) that a pool's walk follows."""
        _, _, g_se, rss, values = batch
        relaxed = _in_branch(pool, g_se, rss, ch, base)
        value = values["SD" if pool == "SD" else "JD"]
        return value, relaxed & (rss >= r_min - RATE_SLACK), relaxed

    def walk(pool, e, mu, spacing, r_min, use_relaxed):
        """Refine around one seed, recentring on the walk's own winner."""
        center = _Best()
        for _ in range(rounds):
            fine = spacing / REFINE_FACTOR
            for _ in range(MAX_WALK_MOVES):
                lattice = _local_simplex(mu, spacing)
                key = (lattice.tobytes(), e)
                if key not in memo:
                    sweep = boundary_sweep(lattice, e, ch)
                    memo[key] = sweep, score(sweep)
                    fold(*memo[key])
                sweep, batch = memo[key]
                value, keep, relaxed = steer(pool, batch, r_min)
                powers, rows, _, rss, _ = batch
                if not center.consider(value, rss, powers, rows,
                                       relaxed if use_relaxed else keep, sweep):
                    break
                mu = np.asarray(center.sweep.mu[center.row])
            spacing = fine

    for alpha in alphas:
        r_min = r_mins[alpha]
        for pool in pools:
            family = "S1" if pool == "SD" else pool
            top = sweeps.sweep(family)
            spacing = 1.0 / (TWO_TERM_FACTOR * sweeps.m if family == "S3" else sweeps.m)
            if family not in coarse:
                coarse[family] = score(top)
                fold(top, coarse[family])
            _, rows, _, rss, _ = batch = coarse[family]
            value, keep, relaxed = steer(pool, batch, r_min)
            for mu in _seed_rows(top.mu, rows, value, rss, keep, spacing, seeds):
                walk(pool, top.e, mu, spacing, r_min, False)
            if np.any(relaxed & ~keep):
                for mu in _seed_rows(top.mu, rows, value, rss, relaxed, spacing, 1):
                    walk(pool, top.e, mu, spacing, r_min, True)
    return {
        (dec, a): _result(best, ch, replace(base, alpha=a), dec)
        for (dec, a), best in bests.items()
    }


def _seed_rows(mu, rows, value, rss, keep, spacing, count: int):
    """Up to count high-value weight rows under keep, pairwise well separated.

    Greedy in the _top order: each seed is the best row that lies at least
    SEED_SEPARATION coarse spacings (max-norm) from every earlier seed.
    """
    allowed = np.array(keep, dtype=bool)
    seeds: list[np.ndarray] = []
    while allowed.any():
        seeds.append(np.asarray(mu[rows[_top(value, rss, np.flatnonzero(allowed))]]))
        if len(seeds) >= count:
            break
        allowed &= np.max(np.abs(mu[rows] - seeds[-1]), axis=1) >= SEED_SEPARATION * spacing
    return seeds


def _result(best: _Best, ch: ChannelSet, p: SystemParams, decoder: str) -> OptResult:
    """The OptResult of a search winner.  The single-user decoder is scored
    with the single-user rate; the joint decoder with the joint-decoding
    rate, labelled by the winner's boundary family."""
    if not best.found:
        raise InfeasibleSolveError(
            "no candidate meets the QoS constraint, which full-power MRT always meets"
        )
    w = best.sweep.beamformer(best.row, best.power)
    if decoder == "SD":
        secrecy, regime = secrecy_rate_sd(w, ch, p), RegimeLabel.SINGLE_USER
        candidate = "SINGLE_USER"
    else:
        secrecy, regime = secrecy_rate_jd(w, ch, p)
        candidate = _FAMILIES[best.sweep.e]
    return OptResult(
        w=w,
        secrecy_bits=secrecy,
        secondary_bits=secondary_rate(w, ch, p),
        regime=regime,
        mu=tuple(float(x) for x in best.sweep.mu[best.row]),
        power=best.power,
        candidate=candidate,
        feasible=True,
    )


def solve_sd(
    ch: ChannelSet,
    p: SystemParams,
    power_levels=None,
    sweeps: UnitSweeps | None = None,
) -> OptResult:
    """Best beamformer against a single-user-decoding eavesdropper.

    Enumerates the three-weight boundary family at full power (then refines
    locally) and keeps the feasible point with the largest secrecy rate.
    power_levels exists only to let callers verify that transmit powers
    below the budget never help; the default searches the budget alone.
    """
    if sweeps is None:
        _require_general_position(ch)
        coarse = boundary_sweep(
            sample_simplex(3, DEFAULT_RESOLUTION), DIRECTION_SUPPRESS_PRIMARY, ch
        )
        sweeps = UnitSweeps(coarse, None, None, DEFAULT_RESOLUTION)
    cells = _search(ch, p, (p.alpha,), ("SD",), sweeps, NUM_SEEDS, REFINE_ROUNDS,
                    power_levels)
    return cells[("SD", p.alpha)]


def solve_jd(
    ch: ChannelSet,
    p: SystemParams,
    sweeps: UnitSweeps | None = None,
) -> OptResult:
    """Best beamformer against a joint-decoding eavesdropper.

    Three pools are searched: the three-weight family suppressing the
    primary, at full power; the same with the eavesdropper suppressed too,
    and the two-weight family over the primary and secondary channels,
    both at full power and at each direction's exact best power under the
    QoS bound.  Each pool's walks steer on the piecewise secrecy rate
    under its branch condition and the QoS constraint.  The
    answer is the best feasible candidate across all pools (ties go to the
    first one evaluated), and its label is the boundary family it came
    from: S1, S2 or S3.
    """
    if sweeps is None:
        sweeps = unit_sweeps(ch)
    cells = _search(ch, p, (p.alpha,), ("JD",), sweeps, NUM_SEEDS, REFINE_ROUNDS)
    return cells[("JD", p.alpha)]


def solve_cell(
    ch: ChannelSet,
    base: SystemParams,
    alphas,
    decoders=("SD", "JD"),
    sweeps: UnitSweeps | None = None,
) -> dict:
    """Solve every (decoder, alpha) cell of one channel draw coherently.

    All cells take their answer from one shared candidate set: the coarse
    sweeps plus every refined lattice that any cell's walk visited.  So the
    joint-decoding value never exceeds the single-user value and raising
    alpha never raises either: each answer is an argmax over the same
    candidates under nested feasibility filters and pointwise ordered
    objectives; the free-power pools emit each direction's exact power
    under every alpha of the call, so the set does not depend on the cell.
    The walks are shorter than those of solve_sd and solve_jd.
    Returns {(decoder, alpha): OptResult}.
    """
    if sweeps is None:
        sweeps = unit_sweeps(ch)
    return _search(ch, base, alphas, decoders, sweeps, CELL_WALK_SEEDS, CELL_WALK_ROUNDS)


# Angular zoom for the two-antenna oracles: recenter a finer (theta, phi)
# window on the best grid point a few times.  Still a direct search on the
# raw objective; it shares nothing with the boundary parameterization.
ZOOM_ROUNDS = 2
ZOOM_POINTS = 41
ZOOM_SPAN = 2.0  # window half-width in units of the previous grid step


def _angular_gain_window(ch: ChannelSet, theta: np.ndarray, phi: np.ndarray):
    """Unit-power gains of w(theta, phi) = [cos(theta), sin(theta) e^{i phi}]."""
    ct = np.cos(theta)[:, None]
    st_conj = np.sin(theta)[:, None] * np.exp(-1j * phi)[None, :]
    gains = [
        np.abs(ct * h[0] + st_conj * h[1]) ** 2 for h in ch.secondary_vectors()
    ]
    return np.stack(gains, axis=-1)  # (n_theta, n_phi, 3)


def _angular_maximize(ch: ChannelSet, score, n_theta: int, n_phi: int):
    """Maximize score(unit_gains) over the angular grid, then zoom in.

    score maps a (..., 3) unit-gain array to a masked objective (-inf where
    infeasible).  Returns (best score, theta, phi); the score is -inf only
    if no point anywhere was feasible.
    """
    theta = np.linspace(0.0, np.pi / 2.0, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    val = score(_angular_gain_window(ch, theta, phi))
    ti, pi = np.unravel_index(int(np.argmax(val)), val.shape)
    best = (float(val[ti, pi]), float(theta[ti]), float(phi[pi]))
    if not np.isfinite(best[0]):
        return best
    return _angular_zoom(ch, score, best, theta[1] - theta[0], phi[1] - phi[0])


def _angular_zoom(ch: ChannelSet, score, best: tuple, d_theta: float, d_phi: float):
    """Shrink a recentered (theta, phi) window around the incumbent."""
    for _ in range(ZOOM_ROUNDS):
        theta = np.clip(
            np.linspace(best[1] - ZOOM_SPAN * d_theta, best[1] + ZOOM_SPAN * d_theta,
                        ZOOM_POINTS),
            0.0,
            np.pi / 2.0,
        )
        phi = np.linspace(best[2] - ZOOM_SPAN * d_phi, best[2] + ZOOM_SPAN * d_phi,
                          ZOOM_POINTS)
        val = score(_angular_gain_window(ch, theta, phi))
        ti, pi = np.unravel_index(int(np.argmax(val)), val.shape)
        if float(val[ti, pi]) > best[0]:
            best = (float(val[ti, pi]), float(theta[ti]), float(phi[pi]))
        d_theta = 2.0 * ZOOM_SPAN * d_theta / (ZOOM_POINTS - 1)
        d_phi = 2.0 * ZOOM_SPAN * d_phi / (ZOOM_POINTS - 1)
    return best


def _random_unit_gains(ch: ChannelSet, n_dirs: int, seed: int, chunk: int = 1 << 17):
    """Unit gains of random directions; yields (dirs, gains) chunks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    H = ch.secondary_vectors()
    remaining = n_dirs
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        w = rng.standard_normal((size, ch.n_t)) + 1j * rng.standard_normal(
            (size, ch.n_t)
        )
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        yield w, np.abs(np.conj(w) @ H.T) ** 2


def _oracle_result(w, ch, p, power, jd=False, feasible=True) -> OptResult:
    if jd:
        secrecy_val, regime = secrecy_rate_jd(w, ch, p)
    else:
        secrecy_val, regime = secrecy_rate_sd(w, ch, p), RegimeLabel.SINGLE_USER
    return OptResult(
        w=w,
        secrecy_bits=secrecy_val,
        secondary_bits=secondary_rate(w, ch, p),
        regime=regime,
        mu=None,
        power=power,
        candidate="BRUTE_FORCE",
        feasible=feasible,
    )


def _brute_force(ch, p, exact, jd, n_theta, n_phi, n_random, seed) -> OptResult:
    """Maximize over directions: the (theta, phi) grid plus zoom for two
    antennas, random unit directions otherwise.

    exact maps (..., 3) unit gains to (value, power): each direction's
    objective at its power, -inf where it cannot meet the QoS bound.  With
    no feasible direction the answer is the full-power direction of highest
    secondary rate (MRT in random mode), marked infeasible.
    """
    if ch.n_t == 2 and min(n_theta, n_phi) < 2:
        raise ValueError(f"n_theta and n_phi must be >= 2, got {n_theta} and {n_phi}")
    if ch.n_t != 2 and n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    if ch.n_t == 2:
        val, theta, phi = _angular_maximize(ch, lambda unit: exact(unit)[0], n_theta, n_phi)
        if np.isfinite(val):
            unit = _angular_gain_window(ch, np.array([theta]), np.array([phi]))
            power = float(exact(unit)[1][0, 0])
            w = np.sqrt(power) * np.array([np.cos(theta), np.sin(theta) * np.exp(1j * phi)])
            return _oracle_result(w, ch, p, power, jd)
        grid_t = np.linspace(0.0, np.pi / 2.0, n_theta)
        grid_p = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        rss = secondary_rate_from_gain(
            p.p_s_max * _angular_gain_window(ch, grid_t, grid_p)[..., 2], ch, p
        )
        ti, pi = np.unravel_index(int(np.argmax(rss)), rss.shape)
        w = np.sqrt(p.p_s_max) * np.array(
            [np.cos(grid_t[ti]), np.sin(grid_t[ti]) * np.exp(1j * grid_p[pi])]
        )
        return _oracle_result(w, ch, p, p.p_s_max, jd, feasible=False)
    best_val, best_w, best_power = -np.inf, None, p.p_s_max
    for w_chunk, unit in _random_unit_gains(ch, n_random, seed):
        value, power = exact(unit)
        i = int(np.argmax(value))
        if value[i] > best_val:
            best_val, best_power = float(value[i]), float(power[i])
            best_w = np.sqrt(best_power) * w_chunk[i]
    if best_w is None:
        return _oracle_result(
            np.sqrt(p.p_s_max) * ch.h_ss / np.linalg.norm(ch.h_ss), ch, p,
            p.p_s_max, jd, feasible=False,
        )
    return _oracle_result(best_w, ch, p, best_power, jd)


def brute_force_sd(
    ch: ChannelSet,
    p: SystemParams,
    n_theta: int = 601,
    n_phi: int = 1200,
    n_random: int = 10**6,
    seed: int = 0,
) -> OptResult:
    """Direct full-power maximization of the single-user secrecy rate.

    Exhaustive over (theta, phi) for two antennas; random unit directions
    otherwise (only good for one-sided sanity checks in that case).
    """
    r_min = required_rate(ch, p)

    def exact(unit):
        gains = p.p_s_max * unit
        rss = secondary_rate_from_gain(gains[..., 2], ch, p)
        rsec = sd_secrecy_from_gains(gains[..., 0], gains[..., 1], ch, p)
        return (np.where(rss >= r_min - RATE_SLACK, rsec, -np.inf),
                np.broadcast_to(p.p_s_max, rss.shape))

    return _brute_force(ch, p, exact, False, n_theta, n_phi, n_random, seed)


def brute_force_jd(
    ch: ChannelSet,
    p: SystemParams,
    n_theta: int = 401,
    n_phi: int = 800,
    n_random: int = 10**5,
    seed: int = 0,
) -> OptResult:
    """Direct maximization of the joint-decoding secrecy rate over the
    direction, as brute_force_sd; partial power is occasionally optimal
    against a joint decoder, so each direction is scored at its exact best
    power (_jd_powers) rather than at the budget."""
    r_min = required_rate(ch, p)

    def exact(unit):
        flat = unit.reshape(-1, 3)
        value, power = np.full(len(flat), -np.inf), np.empty(len(flat))
        for lo in range(0, len(flat), SCAN_BLOCK):
            block = flat[lo:lo + SCAN_BLOCK]
            power[lo:lo + SCAN_BLOCK] = best = _jd_powers(block, (r_min,), ch, p)[:, 0]
            ok = np.flatnonzero(~np.isnan(best))
            g = block[ok] * best[ok, None]
            value[lo + ok], _ = jd_secrecy_from_gains(g[:, 0], g[:, 1], g[:, 2], ch, p)
        return value.reshape(unit.shape[:-1]), power.reshape(unit.shape[:-1])

    return _brute_force(ch, p, exact, True, n_theta, n_phi, n_random, seed)
