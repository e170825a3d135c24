"""Optimal beamformer search for both eavesdropper models, plus oracles.

The single-user-decoding optimum lives on the power-gain-region boundary
that suppresses the primary receiver and boosts the other two, at full
power.  The joint-decoding optimum is searched in three candidate pools,
one per branch of the piecewise secrecy rate and one boundary family each.

One search engine, _search, serves solve_sd, solve_jd and solve_cell: each
pool runs a coarse simplex lattice first, then walks a shrinking local
lattice around its best rows a few times, and every batch the walks
evaluate is scored once and folded into the running winner of every
requested (decoder, alpha) cell.  The refinement is what pushes the
worst-case gap to the continuous optimum below the millibit level, since
constrained optima sit on QoS or branch boundaries that a fixed lattice
straddles.  Brute-force oracles maximize the same objectives over dense
angular (and power) grids and exist purely to validate the boundary
parameterization; they share nothing with it but the rate formulas.
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

# Power grid of the pools whose transmit power is free, and of the JD oracle.
INTERVAL_GRID_POINTS = 64
# The JD oracle scores its grid in blocks of this many points per power.
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

# Rows whose top eigenvalue is within this many lattice spacings of zero
# (times the channel power scale) get the full power grid: the power
# interval that opens exactly at lambda == 0 is never hit by a lattice, so
# nearby rows stand in for it.
INTERVAL_BAND = 4.0

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


def _lambda_scale(ch: ChannelSet) -> float:
    return max(1.0, max(float(np.linalg.norm(h) ** 2) for h in ch.secondary_vectors()))


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


def _pool_powers(sweep: SweepResult, pool: str, ch, p, band: float, levels=None):
    """(powers, rows) candidate expansion implementing the power rule.

    S1 uses the power levels, the budget alone by default.  S2 applies the
    lambda-sign rule: the budget where the top eigenvalue is clearly
    positive (or always, with three or more antennas, as many as the
    receivers), zero where clearly negative, and the whole power grid
    within the band around zero.  S3 always sweeps the power grid.
    """
    L = len(sweep.lam)
    if pool == "S1":
        levels = np.array([p.p_s_max] if levels is None else levels, dtype=float)
        return np.tile(levels, L), np.repeat(np.arange(L), levels.size)
    grid = np.linspace(0.0, p.p_s_max, INTERVAL_GRID_POINTS)
    if pool == "S3":
        return np.tile(grid, L), np.repeat(np.arange(L), grid.size)
    tol = band * _lambda_scale(ch)
    if ch.n_t >= 3:
        kind = np.zeros(L, dtype=int)
    else:
        kind = np.where(sweep.lam > tol, 0, np.where(sweep.lam < -tol, 2, 1))
    rows_list = [np.flatnonzero(kind == 0)]
    powers_list = [np.full(rows_list[0].size, p.p_s_max)]
    interval = np.flatnonzero(kind == 1)
    if interval.size:
        rows_list.append(np.repeat(interval, grid.size))
        powers_list.append(np.tile(grid, interval.size))
    zero = np.flatnonzero(kind == 2)
    if zero.size:
        rows_list.append(zero)
        powers_list.append(np.zeros(zero.size))
    return np.concatenate(powers_list), np.concatenate(rows_list)


def _search(ch, base, alphas, decoders, sweeps, seeds, rounds, levels=None) -> dict:
    """Walk-and-fold search for the (decoder, alpha) cells of one channel draw.

    For each alpha, each pool of the decoders (SD: the single-user rate on
    the S1 family; S1, S2 and S3: the joint-decoding rate on their own
    families, under their branch conditions) walks for `rounds` rounds
    from up to `seeds` well-separated feasible coarse rows.  When the QoS
    bound cuts the pool, one more walk starts from the QoS-relaxed winner:
    a constrained optimum often hugs the QoS boundary near the
    unconstrained maximum rather than near the best feasible lattice row.

    Each batch (a sweep under its family's power rule) is scored the first
    time it is seen and folded, in first-seen order, into every cell's
    running winner under that cell's QoS mask alone; secrecy and the
    secondary rate do not depend on alpha.  The walks share one memo of
    refined lattices; a walk batch seen again is rescored to steer the
    walk but not folded again.  Returns {(decoder, alpha): OptResult}.
    """
    alphas = tuple(alphas)
    r_mins = {a: required_rate(ch, replace(base, alpha=a)) for a in alphas}
    bests = {(dec, a): _Best() for a in alphas for dec in decoders}
    pools = (("SD",) if "SD" in decoders else ()) + (_POOLS if "JD" in decoders else ())
    memo: dict = {}  # (lattice bytes, direction) -> walk sweep
    coarse: dict = {}  # family -> its scored coarse batch

    def score(sweep, spacing, decs):
        """(powers, rows, g_se, rss, {decoder: value}) of one batch."""
        powers, rows = _pool_powers(sweep, _FAMILIES[sweep.e], ch, base,
                                    INTERVAL_BAND * spacing, levels)
        gains = sweep.unit_gains[rows] * powers[:, None]
        values = {}
        if "SD" in decs:
            values["SD"] = sd_secrecy_from_gains(gains[:, 0], gains[:, 1], ch, base)
        if "JD" in decs:
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
                sweep = memo.get(key)
                if sweep is None:
                    sweep = memo[key] = boundary_sweep(lattice, e, ch)
                    batch = score(sweep, fine, decoders)
                    fold(sweep, batch)
                else:
                    batch = score(sweep, fine, ("SD",) if pool == "SD" else ("JD",))
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
                coarse[family] = score(top, spacing, decoders)
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
    primary; the same with the eavesdropper suppressed too, with its power
    rule; and the two-weight family over the primary and secondary
    channels with a free power.  Each pool's walks steer on the piecewise
    secrecy rate under its branch condition and the QoS constraint.  The
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
    objectives.  The walks are shorter than those of solve_sd and solve_jd.
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
    if ch.n_t == 2:

        def score(unit):
            gains = p.p_s_max * unit
            rss = secondary_rate_from_gain(gains[..., 2], ch, p)
            rsec = sd_secrecy_from_gains(gains[..., 0], gains[..., 1], ch, p)
            return np.where(rss >= r_min - RATE_SLACK, rsec, -np.inf)

        val, theta, phi = _angular_maximize(ch, score, n_theta, n_phi)
        feasible = bool(np.isfinite(val))
        if not feasible:  # no grid point meets the QoS bound; report the closest
            grid_t = np.linspace(0.0, np.pi / 2.0, n_theta)
            grid_p = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
            rss = secondary_rate_from_gain(
                p.p_s_max * _angular_gain_window(ch, grid_t, grid_p)[..., 2], ch, p
            )
            ti, pi = np.unravel_index(int(np.argmax(rss)), rss.shape)
            theta, phi = float(grid_t[ti]), float(grid_p[pi])
        w = np.sqrt(p.p_s_max) * np.array(
            [np.cos(theta), np.sin(theta) * np.exp(1j * phi)]
        )
        return _oracle_result(w, ch, p, p.p_s_max, feasible=feasible)
    best_val = -np.inf
    best_w = None
    for w_chunk, unit in _random_unit_gains(ch, n_random, seed):
        gains = p.p_s_max * unit
        rss = secondary_rate_from_gain(gains[:, 2], ch, p)
        rsec = sd_secrecy_from_gains(gains[:, 0], gains[:, 1], ch, p)
        rsec = np.where(rss >= r_min - RATE_SLACK, rsec, -np.inf)
        i = int(np.argmax(rsec))
        if rsec[i] > best_val:
            best_val = float(rsec[i])
            best_w = np.sqrt(p.p_s_max) * w_chunk[i]
    if best_w is None or not np.isfinite(best_val):
        return _oracle_result(
            np.sqrt(p.p_s_max) * ch.h_ss / np.linalg.norm(ch.h_ss), ch, p,
            p.p_s_max, feasible=False,
        )
    return _oracle_result(best_w, ch, p, p.p_s_max)


def _jd_power_scan(unit_gains, powers, r_min: float, ch: ChannelSet, p: SystemParams):
    """Best (value, rss, power index, flat index) of the joint-decoding
    secrecy rate over unit-gain points (..., 3) times each grid power.

    Only points that meet the QoS bound are scored, SCAN_BLOCK points at a
    time.  Ties go to the first flat index within a power and to the first
    power across powers at equal (value, rss).  A power with no feasible
    point is skipped; if none has one, the result is (-inf, -inf, 0, 0).
    """
    g_sp, g_se, g_ss = np.ascontiguousarray(unit_gains.reshape(-1, 3).T)
    best = (-np.inf, -np.inf, 0, 0)
    for k, power in enumerate(powers):
        top = (-np.inf, -np.inf, 0)
        for lo in range(0, g_ss.size, SCAN_BLOCK):
            ss = power * g_ss[lo:lo + SCAN_BLOCK]
            rss = secondary_rate_from_gain(ss, ch, p)
            ok = rss >= r_min - RATE_SLACK
            sp, se = g_sp[lo:lo + SCAN_BLOCK], g_se[lo:lo + SCAN_BLOCK]
            pos = None
            if not ok.all():
                pos = np.flatnonzero(ok)
                if pos.size == 0:
                    continue
                sp, se, ss, rss = sp[pos], se[pos], ss[pos], rss[pos]
            val, _ = jd_secrecy_from_gains(power * sp, power * se, ss, ch, p)
            j = int(np.argmax(val))
            if val[j] > top[0]:
                i = lo + (j if pos is None else int(pos[j]))
                top = (float(val[j]), float(rss[j]), i)
        if (top[0], top[1]) > (best[0], best[1]):
            best = (top[0], top[1], k, top[2])
    return best


def brute_force_jd(
    ch: ChannelSet,
    p: SystemParams,
    n_theta: int = 401,
    n_phi: int = 800,
    n_power: int = INTERVAL_GRID_POINTS,
    n_random: int = 10**5,
    seed: int = 0,
) -> OptResult:
    """Direct maximization of the joint-decoding secrecy rate over
    (direction, transmit power); the power axis matters because partial
    power is occasionally optimal against a joint decoder."""
    r_min = required_rate(ch, p)
    powers = np.linspace(0.0, p.p_s_max, n_power)

    def score_at(power):
        def score(unit):
            g = power * unit
            rss = secondary_rate_from_gain(g[..., 2], ch, p)
            val, _ = jd_secrecy_from_gains(g[..., 0], g[..., 1], g[..., 2], ch, p)
            return np.where(rss >= r_min - RATE_SLACK, val, -np.inf)

        return score

    if ch.n_t == 2:
        grid_t = np.linspace(0.0, np.pi / 2.0, n_theta)
        grid_p = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        unit = _angular_gain_window(ch, grid_t, grid_p)
        val, _rss, k, i = _jd_power_scan(unit, powers, r_min, ch, p)
        feasible = bool(np.isfinite(val))
        if not feasible:  # no grid point meets the QoS bound
            i = int(np.argmax(unit.reshape(-1, 3)[:, 2]))
            ti, pi = np.unravel_index(i, unit.shape[:2])
            w = np.sqrt(p.p_s_max) * np.array(
                [np.cos(grid_t[ti]), np.sin(grid_t[ti]) * np.exp(1j * grid_p[pi])]
            )
            return _oracle_result(w, ch, p, p.p_s_max, jd=True, feasible=False)
        # Zoom the angular window at the winning power and its neighbors;
        # the power axis itself stays on the shared grid.
        ti, pi = np.unravel_index(i, unit.shape[:2])
        best = (val, float(grid_t[ti]), float(grid_p[pi]), k)
        d_theta = grid_t[1] - grid_t[0]
        d_phi = grid_p[1] - grid_p[0]
        for kk in range(max(0, k - 1), min(n_power, k + 2)):
            cand = _angular_zoom(
                ch, score_at(powers[kk]), (best[0], best[1], best[2]),
                d_theta, d_phi,
            )
            if cand[0] > best[0]:
                best = (cand[0], cand[1], cand[2], kk)
        w = np.sqrt(powers[best[3]]) * np.array(
            [np.cos(best[1]), np.sin(best[1]) * np.exp(1j * best[2])]
        )
        return _oracle_result(
            w, ch, p, float(powers[best[3]]), jd=True, feasible=True
        )
    best = (-np.inf, -np.inf, 0, 0)
    best_w = None
    for w_chunk, unit in _random_unit_gains(ch, n_random, seed):
        val, rss, k, i = _jd_power_scan(unit, powers, r_min, ch, p)
        if (val, rss) > (best[0], best[1]):
            best = (val, rss, k, i)
            best_w = np.sqrt(powers[k]) * w_chunk[i]
    if best_w is None or not np.isfinite(best[0]):
        return _oracle_result(
            np.sqrt(p.p_s_max) * ch.h_ss / np.linalg.norm(ch.h_ss), ch, p,
            p.p_s_max, jd=True, feasible=False,
        )
    return _oracle_result(best_w, ch, p, float(powers[best[2]]), jd=True)
