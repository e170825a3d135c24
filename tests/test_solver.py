from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from leasesec.model import (
    ChannelSet,
    DegenerateChannelError,
    SystemParams,
    TrialSeed,
    mrt_beamformer,
    sample_channels,
)
from leasesec.rates import (
    jd_secrecy_from_gains,
    peaceful_rate,
    r_s_max,
    required_rate,
    sd_secrecy_from_gains,
    secondary_rate_from_gain,
    secrecy_rate_jd,
    secrecy_rate_sd,
)
from leasesec.pgr import (
    DIRECTION_SUPPRESS_PRIMARY,
    DIRECTION_SUPPRESS_PRIMARY_AND_EVE,
    DIRECTION_TWO_TERM,
    boundary_sweep,
)
import leasesec.solver as solver_mod
from leasesec.solver import (
    NUM_SEEDS,
    REFINE_ROUNDS,
    InfeasibleSolveError,
    brute_force_jd,
    brute_force_sd,
    solve_cell,
    solve_jd,
    solve_sd,
    unit_sweeps,
)


def draw(nt=2, snr_db=10.0, alpha=0.5, seed=61, trial=0):
    p = SystemParams.from_snr_db(snr_db, alpha, nt)
    return sample_channels(p, TrialSeed(seed, trial)), p


class TestSolveSd:
    def test_alpha_one_forces_mrt(self):
        ch, p = draw(alpha=1.0)
        res = solve_sd(ch, p)
        mrt = mrt_beamformer(ch, p)
        cos = abs(np.vdot(res.w, mrt)) / (np.linalg.norm(res.w) * np.linalg.norm(mrt))
        assert cos == pytest.approx(1.0, abs=1e-7)
        # the 1e-9 QoS slack admits points a hair off MRT, so the secrecy
        # comparison is qualitative rather than exact
        assert res.secrecy_bits == pytest.approx(
            secrecy_rate_sd(mrt, ch, p), abs=1e-3
        )
        assert res.secondary_bits >= required_rate(ch, p) - 1e-9
        assert res.feasible

    def test_no_eavesdropper_reaches_peaceful(self):
        ch, p = draw(nt=3, alpha=0.0, trial=2)
        ch.h_pe = 0.0
        res = solve_sd(ch, p)
        assert res.secrecy_bits == pytest.approx(peaceful_rate(ch, p), abs=1e-9)

    def test_oracle_agreement_spot(self):
        for trial in (0, 1, 2):
            for alpha in (0.0, 0.5):
                ch, p = draw(alpha=alpha, trial=trial)
                s = solve_sd(ch, p)
                b = brute_force_sd(ch, p)
                assert abs(s.secrecy_bits - b.secrecy_bits) <= 1e-3

    def test_stored_fields_consistent(self):
        ch, p = draw(trial=4)
        res = solve_sd(ch, p)
        assert res.secrecy_bits == pytest.approx(
            secrecy_rate_sd(res.w, ch, p), abs=1e-10
        )
        assert res.secondary_bits >= required_rate(ch, p) - 1e-9
        assert np.linalg.norm(res.w) ** 2 <= p.p_s_max + 1e-9
        assert res.power == pytest.approx(p.p_s_max)

    def test_power_sweep_never_helps(self):
        for nt, trial in ((2, 7), (3, 8), (4, 9)):
            ch, p = draw(nt=nt, trial=trial, alpha=0.5)
            base = solve_sd(ch, p)
            swept = solve_sd(ch, p, power_levels=np.linspace(0, p.p_s_max, 64))
            assert swept.secrecy_bits <= base.secrecy_bits + 1e-9

    def test_degenerate_channels_rejected(self):
        ch = ChannelSet(
            h_pp=1.0, h_pe=1.0, h_ps=1.0,
            h_sp=np.array([1.0, 2.0], complex),
            h_se=np.array([0.5, 1.0], complex),
            h_ss=np.array([1.0, -1.0], complex),
        )
        with pytest.raises(DegenerateChannelError):
            solve_sd(ch, SystemParams(p_p=1.0, p_s_max=1.0, n_t=2))

    def test_resolution_validated(self):
        ch, _ = draw()
        with pytest.raises(ValueError):
            unit_sweeps(ch, m=0)

    def test_unmet_qos_is_an_explicit_error(self, monkeypatch):
        # Full-power MRT always meets the QoS bound, so no feasible
        # candidate means a broken search; it must raise even under -O.
        monkeypatch.setattr(solver_mod, "required_rate", lambda ch, p: np.inf)
        ch, p = draw()
        sweeps = unit_sweeps(ch, m=12)
        for solve in (
            lambda: solve_sd(ch, p, sweeps=sweeps),
            lambda: solve_jd(ch, p, sweeps=sweeps),
            lambda: solve_cell(ch, p, (0.5,), sweeps=sweeps),
        ):
            with pytest.raises(InfeasibleSolveError):
                solve()


class TestSolveJd:
    def test_alpha_one_forces_mrt(self):
        ch, p = draw(alpha=1.0, trial=3)
        res = solve_jd(ch, p)
        mrt = mrt_beamformer(ch, p)
        cos = abs(np.vdot(res.w, mrt)) / (np.linalg.norm(res.w) * np.linalg.norm(mrt))
        assert cos == pytest.approx(1.0, abs=1e-7)
        assert res.secrecy_bits == pytest.approx(
            secrecy_rate_jd(mrt, ch, p)[0], abs=1e-3
        )

    def test_matches_sd_when_eve_side_interference_unused(self):
        # three antennas, no eavesdropper channel, and h_se orthogonal to
        # span(h_sp, h_ss): ignoring the eavesdropper entirely is optimal
        # for both decoders, so the two solvers coincide
        p = SystemParams.from_snr_db(10.0, 0.0, 3)
        rng = np.random.default_rng(55)
        h_sp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_ss = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_se = np.cross(np.conj(h_sp), np.conj(h_ss))  # orthogonal to both
        ch = ChannelSet(
            h_pp=complex(rng.standard_normal() + 1j * rng.standard_normal()),
            h_pe=0.0,
            h_ps=complex(rng.standard_normal() + 1j * rng.standard_normal()),
            h_sp=h_sp, h_se=h_se, h_ss=h_ss,
        )
        assert abs(np.vdot(h_se, h_sp)) < 1e-12 and abs(np.vdot(h_se, h_ss)) < 1e-12
        sd = solve_sd(ch, p)
        jd = solve_jd(ch, p)
        assert jd.secrecy_bits == pytest.approx(sd.secrecy_bits, abs=1e-9)

    def test_oracle_agreement_spot(self):
        for trial in (0, 1, 2):
            for alpha in (0.0, 0.5):
                ch, p = draw(alpha=alpha, trial=trial)
                s = solve_jd(ch, p)
                b = brute_force_jd(ch, p)
                assert abs(s.secrecy_bits - b.secrecy_bits) <= 2e-3

    def test_never_beats_sd(self):
        for trial in range(10):
            ch, p = draw(nt=3, snr_db=15.0, alpha=0.5, trial=trial)
            cell = solve_cell(ch, p, (0.5,), sweeps=unit_sweeps(ch))
            assert (
                cell[("JD", 0.5)].secrecy_bits
                <= cell[("SD", 0.5)].secrecy_bits + 1e-9
            )

    def test_stored_fields_consistent(self):
        ch, p = draw(trial=11, alpha=0.3)
        res = solve_jd(ch, p)
        val, regime = secrecy_rate_jd(res.w, ch, p)
        assert res.secrecy_bits == pytest.approx(val, abs=1e-10)
        assert res.regime is regime
        assert res.candidate in ("S1", "S2", "S3")
        assert res.secondary_bits >= required_rate(ch, p) - 1e-9


class TestSolveCell:
    def test_alpha_monotone_per_realization(self):
        alphas = (0.0, 0.5, 0.8)
        for trial in range(8):
            ch, p = draw(nt=3, snr_db=20.0, alpha=0.0, trial=trial, seed=77)
            cell = solve_cell(ch, p, alphas)
            for dec in ("SD", "JD"):
                vals = [cell[(dec, a)].secrecy_bits for a in alphas]
                assert vals[0] >= vals[1] - 1e-9
                assert vals[1] >= vals[2] - 1e-9

    @pytest.mark.parametrize("nt", [2, 3, 4, 5])
    def test_monotone_in_alpha_and_jd_at_most_sd(self, nt):
        # The free-power pools emit each row's exact best power under every
        # alpha of the call, so all cells still share one candidate set.
        alphas = (0.0, 0.3, 0.5, 0.8, 1.0)
        for trial in range(3):
            for snr_db in (0.0, 10.0, 30.0):
                ch, p = draw(nt=nt, snr_db=snr_db, alpha=0.0, trial=trial, seed=88)
                cell = solve_cell(ch, p, alphas)
                for dec in ("SD", "JD"):
                    vals = [cell[(dec, a)].secrecy_bits for a in alphas]
                    assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:])), (dec, vals)
                for a in alphas:
                    where = (trial, snr_db, a)
                    assert cell[("JD", a)].secrecy_bits <= cell[("SD", a)].secrecy_bits + 1e-9, where
                    r_min = required_rate(ch, replace(p, alpha=a))
                    assert cell[("JD", a)].secondary_bits >= r_min - solver_mod.RATE_SLACK

    def test_matches_direct_solvers_closely(self):
        ch, p = draw(nt=2, snr_db=10.0, alpha=0.5, trial=5)
        cell = solve_cell(ch, p, (0.5,))
        direct_sd = solve_sd(ch, p)
        direct_jd = solve_jd(ch, p)
        assert cell[("SD", 0.5)].secrecy_bits == pytest.approx(
            direct_sd.secrecy_bits, abs=5e-3
        )
        assert cell[("JD", 0.5)].secrecy_bits == pytest.approx(
            direct_jd.secrecy_bits, abs=5e-3
        )


FAMILY = {DIRECTION_SUPPRESS_PRIMARY: "S1", DIRECTION_SUPPRESS_PRIMARY_AND_EVE: "S2",
          DIRECTION_TWO_TERM: "S3"}


def reference_scores(sweep, powers, rows, ch, p):
    """(rss, {decoder: value}, g_se) of one batch."""
    gains = sweep.unit_gains[rows] * powers[:, None]
    sd = sd_secrecy_from_gains(gains[:, 0], gains[:, 1], ch, p)
    rss = secondary_rate_from_gain(gains[:, 2], ch, p)
    jd, _ = jd_secrecy_from_gains(gains[:, 0], gains[:, 1], rss, ch, p)
    return rss, {"SD": sd, "JD": jd}, gains[:, 1]


def reference_branch(pool, g_se, rss, ch, p):
    """Branch condition of a joint-decoding pool; none for the SD pool."""
    slack = solver_mod.RATE_SLACK
    r_jd = np.log2(1.0 + g_se / p.sigma2_e)
    r_sd = np.log2(1.0 + g_se / (p.sigma2_e + abs(ch.h_pe) ** 2 * p.p_p))
    return {
        "SD": np.ones(rss.shape, bool),
        "S1": r_jd <= rss + slack,
        "S2": (r_sd <= rss + slack) & (rss <= r_jd + slack),
        "S3": rss <= r_sd + slack,
    }[pool]


def reference_pick(value, rss, keep):
    """First row of the full lexsort order under keep, or None."""
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return None
    return idx[np.lexsort((idx, -rss[idx], -value[idx]))[0]]


def reference_batches(ch, base, alphas, pools, sweeps, seeds, rounds, levels=None):
    """Every (pool, sweep, powers, rows) batch the walks evaluate, in order.

    No memo: a lattice visited twice is eigensolved twice, and coarse
    batches are scored again for every alpha and pool."""
    out = []
    slack = solver_mod.RATE_SLACK
    r_mins = tuple(required_rate(ch, replace(base, alpha=a)) for a in alphas)

    def evaluate(pool, sweep):
        powers, rows = solver_mod._pool_powers(sweep, FAMILY[sweep.e], ch, base, r_mins,
                                               levels)
        out.append((pool, sweep, powers, rows))
        rss, values, g_se = reference_scores(sweep, powers, rows, ch, base)
        relaxed = reference_branch(pool, g_se, rss, ch, base)
        return powers, rows, rss, values["SD" if pool == "SD" else "JD"], relaxed

    for alpha in alphas:
        r_min = required_rate(ch, replace(base, alpha=alpha))
        for pool in pools:
            family = "S1" if pool == "SD" else pool
            coarse = sweeps.sweep(family)
            spacing = 1.0 / (4 * sweeps.m if family == "S3" else sweeps.m)
            _, rows, rss, value, relaxed = evaluate(pool, coarse)
            keep = relaxed & (rss >= r_min - slack)
            starts = [(mu, False) for mu in seed_rows_reference(
                coarse.mu, rows, value, rss, keep, spacing, seeds)]
            if np.any(relaxed & ~keep):
                starts += [(mu, True) for mu in seed_rows_reference(
                    coarse.mu, rows, value, rss, relaxed, spacing, 1)]
            for mu, use_relaxed in starts:
                center, spc = (-np.inf, -np.inf), spacing
                for _ in range(rounds):
                    fine = spc / solver_mod.REFINE_FACTOR
                    for _ in range(solver_mod.MAX_WALK_MOVES):
                        sweep = boundary_sweep(solver_mod._local_simplex(mu, spc),
                                               coarse.e, ch)
                        _, rows, rss, value, relaxed = evaluate(pool, sweep)
                        if not use_relaxed:
                            relaxed &= rss >= r_min - slack
                        i = reference_pick(value, rss, relaxed)
                        if i is None or not (value[i], rss[i]) > center:
                            break
                        center, mu = (value[i], rss[i]), np.asarray(sweep.mu[rows[i]])
                    spc = fine
    return out


def reference_cells(ch, base, alphas, decoders, batches):
    """Each (decoder, alpha) cell's winner over every batch in order, by a
    full lexsort under the cell's QoS mask; strictly better takes over.
    Returns {(decoder, alpha): (w, mu, power, candidate)}."""
    scored = [(sweep, powers, rows, *reference_scores(sweep, powers, rows, ch, base))
              for _, sweep, powers, rows in batches]
    out = {}
    for alpha in alphas:
        r_min = required_rate(ch, replace(base, alpha=alpha))
        for dec in decoders:
            best = (-np.inf, -np.inf, None, -1, 0.0)
            for sweep, powers, rows, rss, values, _ in scored:
                keep = rss >= r_min - solver_mod.RATE_SLACK
                i = reference_pick(values[dec], rss, keep)
                if i is not None and (values[dec][i], rss[i]) > best[:2]:
                    best = (values[dec][i], rss[i], sweep, rows[i], powers[i])
            _, _, sweep, row, power = best
            candidate = "SINGLE_USER" if dec == "SD" else FAMILY[sweep.e]
            mu = tuple(float(x) for x in sweep.mu[row])
            out[(dec, alpha)] = (sweep.beamformer(row, power), mu, float(power),
                                 candidate)
    return out


def per_pool_jd_reference(ch, p, batches):
    """The per-pool joint-decoding rule: each pool's best under its branch
    condition and the QoS mask, and across pools only a strictly better
    (value, rss) takes over, so the earlier pool wins ties.  Returns the
    winner's secrecy rate."""
    r_min = required_rate(ch, p)
    best = (-np.inf, -np.inf, None, -1, 0.0)
    for pool in ("S1", "S2", "S3"):
        pool_best = (-np.inf, -np.inf, None, -1, 0.0)
        for _, sweep, powers, rows in (b for b in batches if b[0] == pool):
            rss, values, g_se = reference_scores(sweep, powers, rows, ch, p)
            keep = reference_branch(pool, g_se, rss, ch, p)
            i = reference_pick(values["JD"], rss,
                               keep & (rss >= r_min - solver_mod.RATE_SLACK))
            if i is not None and (values["JD"][i], rss[i]) > pool_best[:2]:
                pool_best = (values["JD"][i], rss[i], sweep, rows[i], powers[i])
        if pool_best[:2] > best[:2]:
            best = pool_best
    _, _, sweep, row, power = best
    return secrecy_rate_jd(sweep.beamformer(row, power), ch, p)[0]


def assert_same_result(res, ref, where):
    w, mu, power, candidate = ref
    assert np.array_equal(res.w, w), where
    assert res.mu == mu, where
    assert res.power == power, where
    assert res.candidate == candidate, where


class TestSolveCellParity:
    """solve_sd, solve_jd and solve_cell against a reference search that has
    its own walk (no memo, every coarse batch scored per alpha and pool)
    and picks each cell's winner by a full lexsort over every batch."""

    ALPHAS = (0.0, 0.5, 0.8, 1.0)

    @pytest.mark.parametrize("nt", [2, 3, 5])
    def test_matches_per_cell_lexsort_reference(self, nt):
        ch, _ = draw(nt=nt, seed=2024, trial=nt)
        sweeps = unit_sweeps(ch)
        for snr_db in (0.0, 20.0):
            p = SystemParams.from_snr_db(snr_db, 0.0, nt)
            cell = solve_cell(ch, p, self.ALPHAS, sweeps=sweeps)
            batches = reference_batches(ch, p, self.ALPHAS, ("SD", "S1", "S2", "S3"),
                                        sweeps, solver_mod.CELL_WALK_SEEDS,
                                        solver_mod.CELL_WALK_ROUNDS)
            ref = reference_cells(ch, p, self.ALPHAS, ("SD", "JD"), batches)
            assert list(cell) == list(ref)
            for key, want in ref.items():
                assert_same_result(cell[key], want, (snr_db, key))

    @pytest.mark.parametrize("nt", [2, 3, 5])
    def test_solve_sd_and_jd_match_reference(self, nt):
        ch, _ = draw(nt=nt, seed=2024, trial=nt)
        sweeps = unit_sweeps(ch)
        for snr_db, alpha in ((0.0, 0.5), (20.0, 0.8)):
            p = SystemParams.from_snr_db(snr_db, alpha, nt)
            levels = [0.5 * p.p_s_max, p.p_s_max]
            cases = (
                ("SD", ("SD",), solve_sd(ch, p, sweeps=sweeps), None),
                ("SD", ("SD",), solve_sd(ch, p), None),
                ("SD", ("SD",), solve_sd(ch, p, levels, sweeps), levels),
                ("JD", ("S1", "S2", "S3"), solve_jd(ch, p, sweeps=sweeps), None),
            )
            for dec, pools, res, levels in cases:
                batches = reference_batches(ch, p, (alpha,), pools, sweeps, NUM_SEEDS,
                                            REFINE_ROUNDS, levels)
                want = reference_cells(ch, p, (alpha,), (dec,), batches)[(dec, alpha)]
                assert_same_result(res, want, (snr_db, dec, levels))


class TestSolveJdNeverBelow:
    """solve_jd keeps the best candidate across its pools, so it never falls
    below the per-pool rule on the same walks, and never above solve_sd."""

    @pytest.mark.parametrize("nt", [2, 3, 5])
    def test_at_least_per_pool_rule_and_at_most_sd(self, nt):
        for trial in range(3):
            for snr_db, alpha in ((0.0, 0.0), (10.0, 0.5), (20.0, 0.8)):
                p = SystemParams.from_snr_db(snr_db, alpha, nt)
                ch = sample_channels(p, TrialSeed(4242, trial))
                sweeps = unit_sweeps(ch)
                jd = solve_jd(ch, p, sweeps=sweeps)
                batches = reference_batches(ch, p, (alpha,), ("S1", "S2", "S3"), sweeps,
                                            NUM_SEEDS, REFINE_ROUNDS)
                per_pool = per_pool_jd_reference(ch, p, batches)
                sd = solve_sd(ch, p, sweeps=sweeps)
                where = (trial, snr_db, alpha)
                assert jd.secrecy_bits >= per_pool - 1e-12, where
                assert jd.secrecy_bits <= sd.secrecy_bits + 1e-9, where


class TestBestConsider:
    """The batch pick: highest value, then highest rss, then first row."""

    @staticmethod
    def batch(value, rss, keep=None):
        n = len(value)
        keep = np.ones(n, bool) if keep is None else np.asarray(keep)
        return (np.asarray(value, float), np.asarray(rss, float),
                np.arange(n) + 10.0, np.arange(n) + 100, keep)

    def test_equal_values_higher_rss_wins(self):
        best = solver_mod._Best()
        assert best.consider(*self.batch([1.0, 2.0, 2.0, 0.5], [9.0, 0.1, 0.3, 9.0]),
                             "sweep")
        assert (best.value, best.rss, best.row, best.power) == (2.0, 0.3, 102, 12.0)

    def test_equal_value_and_rss_first_position_wins(self):
        best = solver_mod._Best()
        best.consider(*self.batch([0.5, 2.0, 1.0, 2.0, 2.0], [0, 0.3, 1.0, 0.3, 0.3]),
                      "sweep")
        assert (best.row, best.power) == (101, 11.0)

    def test_all_false_mask_leaves_incumbent(self):
        best = solver_mod._Best()
        best.consider(*self.batch([1.0], [1.0]), "first")
        before = vars(best).copy()
        assert not best.consider(*self.batch([5.0, 6.0], [5.0, 6.0], [False, False]),
                                 "second")
        assert vars(best) == before

    def test_incumbent_wins_tie_against_later_batch(self):
        best = solver_mod._Best()
        assert best.consider(*self.batch([1.0, 3.0], [0.0, 2.0]), "first")
        assert not best.consider(*self.batch([3.0, 0.0], [2.0, 9.0]), "second")
        assert (best.sweep, best.row, best.value, best.rss) == ("first", 101, 3.0, 2.0)
        assert best.consider(*self.batch([3.0], [2.5]), "third")
        assert (best.sweep, best.row) == ("third", 100)

    def test_agrees_with_lexsort_on_tied_random_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            value = rng.integers(0, 4, n) / 4.0
            rss = rng.integers(0, 3, n) / 2.0
            keep = rng.random(n) < 0.7
            best = solver_mod._Best()
            best.consider(value, rss, np.zeros(n), np.arange(n), keep, "s")
            idx = np.flatnonzero(keep)
            if idx.size == 0:
                assert not best.found
                continue
            assert best.row == idx[np.lexsort((idx, -rss[idx], -value[idx]))[0]]


def seed_rows_reference(mu, rows, value, rss, keep, spacing, count):
    """_seed_rows as a scan of the full lexsort order."""
    idx = np.flatnonzero(keep)
    seeds = []
    for i in idx[np.lexsort((idx, -rss[idx], -value[idx]))]:
        row = np.asarray(mu[rows[i]])
        if all(np.max(np.abs(row - s)) >= solver_mod.SEED_SEPARATION * spacing
               for s in seeds):
            seeds.append(row)
            if len(seeds) >= count:
                break
    return seeds


class TestSeedRows:
    def test_matches_lexsort_scan(self):
        rng = np.random.default_rng(8)
        mu = rng.integers(0, 11, (30, 3)) / 10.0
        for _ in range(200):
            n = int(rng.integers(1, 80))
            rows = rng.integers(0, len(mu), n)
            value = rng.integers(0, 5, n) / 4.0
            rss = rng.integers(0, 3, n) / 2.0
            keep = rng.random(n) < 0.8
            count = int(rng.integers(1, 5))
            got = solver_mod._seed_rows(mu, rows, value, rss, keep, 0.1, count)
            want = seed_rows_reference(mu, rows, value, rss, keep, 0.1, count)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestBruteForce:
    def test_alpha_one_recovers_mrt_on_axis_channel(self):
        ch, p = draw(alpha=1.0, trial=6)
        ch.h_ss = np.array([np.linalg.norm(ch.h_ss), 0.0], complex)
        res = brute_force_sd(ch, p)
        # theta = 0 is on the grid, which is exactly the MRT direction here
        npt.assert_allclose(
            abs(np.vdot(res.w, ch.h_ss)),
            np.linalg.norm(res.w) * np.linalg.norm(ch.h_ss),
            rtol=1e-9,
        )

    def test_grid_refinement_stability(self):
        ch, p = draw(trial=12)
        a = brute_force_sd(ch, p, n_theta=301, n_phi=600)
        b = brute_force_sd(ch, p, n_theta=601, n_phi=1200)
        assert abs(a.secrecy_bits - b.secrecy_bits) < 1e-4

    def test_never_exceeds_peaceful(self):
        for trial in range(5):
            ch, p = draw(trial=trial, alpha=0.0)
            res = brute_force_sd(ch, p)
            assert res.secrecy_bits <= peaceful_rate(ch, p) + 1e-12

    def test_jd_equals_sd_without_eavesdropper_channel(self):
        ch, p = draw(trial=13, alpha=0.0)
        ch.h_pe = 0.0
        sd = brute_force_sd(ch, p)
        jd = brute_force_jd(ch, p)
        assert abs(sd.secrecy_bits - jd.secrecy_bits) <= 1e-9

    def test_jd_never_exceeds_sd(self):
        for trial in range(5):
            ch, p = draw(trial=trial, alpha=0.5)
            sd = brute_force_sd(ch, p)
            jd = brute_force_jd(ch, p)
            assert jd.secrecy_bits <= sd.secrecy_bits + 1e-9

    def test_interior_power_sometimes_optimal(self):
        # the joint decoder occasionally makes partial transmit power
        # strictly better than the budget along the same direction, which
        # is why the oracle scores each direction at its best power
        hits = 0
        for trial in range(40):
            ch, p = draw(trial=trial, alpha=0.0, seed=31)
            res = brute_force_jd(ch, p)
            if res.feasible and 0.0 < res.power < p.p_s_max - 1e-9:
                full = res.w * np.sqrt(p.p_s_max / res.power)
                if secrecy_rate_jd(full, ch, p)[0] < res.secrecy_bits - 1e-9:
                    hits += 1
        assert hits > 0

    def test_random_direction_mode_for_three_antennas(self):
        ch, p = draw(nt=3, trial=1, alpha=0.0)
        res = brute_force_sd(ch, p, n_random=20000)
        assert res.secrecy_bits <= solve_sd(ch, p).secrecy_bits + 1e-6
        assert res.secrecy_bits <= peaceful_rate(ch, p) + 1e-12


def reference_power_scan(unit_gains, powers, r_min, ch, p):
    """The full-grid power scan: every point scored at every power, the QoS
    mask applied afterwards with np.where, one argmax per power; across
    powers only a strictly better (value, rss) takes over."""
    flat = unit_gains.reshape(-1, 3)
    best = (-np.inf, -np.inf, 0, 0)
    for k, power in enumerate(powers):
        g = power * flat
        rss = secondary_rate_from_gain(g[:, 2], ch, p)
        val, _ = jd_secrecy_from_gains(g[:, 0], g[:, 1], rss, ch, p)
        val = np.where(rss >= r_min - solver_mod.RATE_SLACK, val, -np.inf)
        i = int(np.argmax(val))
        cand = (float(val[i]), float(rss[i]), k, i)
        if cand[:2] > best[:2]:
            best = cand
    return best


def exact_power_scan(unit_gains, r_min, ch, p):
    """The best joint-decoding value over the same points, each scored at
    its exact power from _jd_powers; -inf if no point meets the bound."""
    flat = unit_gains.reshape(-1, 3)
    power = solver_mod._jd_powers(flat, (r_min,), ch, p)[:, 0]
    ok = ~np.isnan(power)
    if not ok.any():
        return -np.inf
    g = flat[ok] * power[ok, None]
    rss = secondary_rate_from_gain(g[:, 2], ch, p)
    return float(np.max(jd_secrecy_from_gains(g[:, 0], g[:, 1], rss, ch, p)[0]))


class TestBruteForceJdParity:
    """brute_force_jd, which scores each direction at its exact power, against
    the 64-point power grid over the same directions (the oracle's grid for
    two antennas, its random directions otherwise): the exact scan and the
    oracle never fall below the grid's best, both find a feasible point
    exactly when the grid does, and the fallback covers the rest."""

    GRID_POWERS = 64

    def check(self, ch, p, n_theta=401, n_phi=800, n_random=None):
        """Asserts the one-sided bounds; returns the oracle's feasible flag."""
        r_min = required_rate(ch, p)
        if ch.n_t == 2:
            grid_t = np.linspace(0.0, np.pi / 2.0, n_theta)
            grid_p = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
            units = [solver_mod._angular_gain_window(ch, grid_t, grid_p)]
            got = brute_force_jd(ch, p, n_theta=n_theta, n_phi=n_phi)
        else:
            units = [u for _, u in solver_mod._random_unit_gains(ch, n_random, 0)]
            got = brute_force_jd(ch, p, n_random=n_random)
        powers = np.linspace(0.0, p.p_s_max, self.GRID_POWERS)
        grid = max(reference_power_scan(u, powers, r_min, ch, p)[0] for u in units)
        exact = max(exact_power_scan(u, r_min, ch, p) for u in units)
        assert got.feasible == np.isfinite(grid) == np.isfinite(exact)
        if got.feasible:
            assert exact >= grid - 1e-12
            assert got.secrecy_bits >= exact - 1e-12
            assert got.secondary_bits >= r_min - solver_mod.RATE_SLACK
            assert 0.0 <= got.power <= p.p_s_max
            assert np.linalg.norm(got.w) ** 2 == pytest.approx(got.power, rel=1e-12)
        return got.feasible

    def test_two_antennas_reduced_grid(self):
        feasible = []
        for k, (snr_db, alpha) in enumerate(
            (s, a) for s in (0.0, 10.0, 30.0) for a in (0.0, 0.5, 0.8, 1.0)
        ):
            ch, p = draw(nt=2, snr_db=snr_db, alpha=alpha, seed=1010, trial=k)
            feasible.append(self.check(ch, p, n_theta=101, n_phi=200))
        assert not all(feasible)  # the all-infeasible fallback is covered

    def test_qos_bound_within_slack_of_best_grid_rate(self):
        # Only the grid points of highest secondary rate meet the QoS bound,
        # and only through RATE_SLACK.
        ch, p = draw(nt=2, snr_db=10.0, alpha=0.0, seed=1010, trial=21)
        grid_t = np.linspace(0.0, np.pi / 2.0, 101)
        grid_p = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        top = np.max(solver_mod._angular_gain_window(ch, grid_t, grid_p)[..., 2])
        rss = secondary_rate_from_gain(p.p_s_max * top, ch, p)
        p = replace(p, alpha=(rss + solver_mod.RATE_SLACK / 2) / r_s_max(ch, p))
        assert self.check(ch, p, n_theta=101, n_phi=200)

    def test_two_antennas_default_grid(self):
        ch, p = draw(nt=2, snr_db=10.0, alpha=0.5, seed=1010, trial=20)
        assert self.check(ch, p)

    @pytest.mark.parametrize("nt", [3, 4])
    def test_random_directions(self, nt):
        feasible = []
        for k, (snr_db, alpha) in enumerate(((0.0, 0.0), (10.0, 0.5), (30.0, 0.8),
                                             (10.0, 1.0))):
            ch, p = draw(nt=nt, snr_db=snr_db, alpha=alpha, seed=1020, trial=k)
            feasible.append(self.check(ch, p, n_random=20000))
        assert not all(feasible)


class TestBruteForceTies:
    def test_first_direction_wins_a_tie_across_chunks(self, monkeypatch):
        # Random mode scans its directions chunk by chunk.  Every direction
        # below is one beam up to a phase, so all tie; the first must win.
        ch, p = draw(nt=3, alpha=0.0, trial=1)
        w, unit = next(solver_mod._random_unit_gains(ch, 64, seed=3))
        best = int(np.argmax([secrecy_rate_sd(np.sqrt(p.p_s_max) * x, ch, p) for x in w]))
        phases = np.exp(1j * np.arange(20.0))[:, None]
        chunks = [(w[best] * phases[lo:hi], np.repeat(unit[best:best + 1], hi - lo, axis=0))
                  for lo, hi in ((0, 8), (8, 20))]
        monkeypatch.setattr(solver_mod, "_random_unit_gains",
                            lambda *args, **kw: iter(chunks))
        for oracle in (brute_force_sd, brute_force_jd):
            res = oracle(ch, p, n_random=20)
            assert res.feasible and res.power > 0.0, oracle.__name__
            npt.assert_allclose(res.w, np.sqrt(res.power) * w[best], rtol=0, atol=1e-14,
                                err_msg=oracle.__name__)


class TestOracleArguments:
    """A grid or sample too small to search is an explicit error."""

    @pytest.mark.parametrize("oracle", [brute_force_sd, brute_force_jd])
    @pytest.mark.parametrize("grid", [dict(n_theta=1), dict(n_phi=0), dict(n_phi=1)])
    def test_angular_grid_below_two_points(self, oracle, grid):
        ch, p = draw(nt=2)
        with pytest.raises(ValueError):
            oracle(ch, p, **grid)

    @pytest.mark.parametrize("oracle", [brute_force_sd, brute_force_jd])
    def test_no_random_directions(self, oracle):
        ch, p = draw(nt=3)
        with pytest.raises(ValueError):
            oracle(ch, p, n_random=0)


# (n_t, SNR in dB, trial) of the power-rule panel.  All but one of the
# first nine channels have rows whose two local maxima in power need the
# rule's value comparison, and on some of them the lower power wins; the
# last two have rows whose derivative quadratic opens downward with both
# roots inside [P_qos, P_max], where only the falling root is a maximum.
JD_POWERS_PANEL = ((2, 0.0, 16), (2, 10.0, 10), (2, 30.0, 27), (3, 0.0, 4), (3, 10.0, 10),
                   (3, 30.0, 33), (4, 0.0, 16), (4, 10.0, 10), (4, 30.0, 10), (2, 10.0, 17),
                   (3, 20.0, 21))


def jd_powers_panel():
    """(ch, p, unit, r_mins) instances: n_t 2-4 at 0 to 30 dB, random
    directions plus a zero and a tiny g_ss, and bounds at alpha 0, 0.5, 0.8,
    1.0 plus one within RATE_SLACK of a row's best secondary rate."""
    out = []
    for nt, snr_db, trial in JD_POWERS_PANEL:
        ch, p = draw(nt=nt, snr_db=snr_db, alpha=0.0, seed=308, trial=1000 + trial)
        rng = np.random.default_rng(trial)
        w = rng.standard_normal((120, nt)) + 1j * rng.standard_normal((120, nt))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        unit = np.abs(np.conj(w) @ ch.secondary_vectors().T) ** 2
        unit[0, 2], unit[1, 2] = 0.0, 1e-300
        r_mins = [required_rate(ch, replace(p, alpha=a)) for a in (0.0, 0.5, 0.8, 1.0)]
        top = secondary_rate_from_gain(p.p_s_max * unit[2, 2], ch, p)
        r_mins.append(float(top + solver_mod.RATE_SLACK / 2))
        out.append((ch, p, unit, tuple(r_mins)))
    return out


class TestJdPowers:
    """The closed-form power rule against a dense power grid."""

    GRID_POWERS = 2049

    def test_never_below_a_dense_power_grid(self):
        branches = set()
        for ch, p, unit, r_mins in jd_powers_panel():
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                best = solver_mod._jd_powers(unit, r_mins, ch, p)
            grid = np.linspace(0.0, p.p_s_max, self.GRID_POWERS)
            g = unit[:, None, :] * grid[None, :, None]
            rss = secondary_rate_from_gain(g[..., 2], ch, p)
            val, idx = jd_secrecy_from_gains(g[..., 0], g[..., 1], rss, ch, p)
            branches |= set(idx[:, -1].tolist())
            for j, r_min in enumerate(r_mins):
                feasible = rss >= r_min - solver_mod.RATE_SLACK
                grid_best = np.where(feasible, val, -np.inf).max(axis=1)
                ok = ~np.isnan(best[:, j])
                # nan exactly where even the budget misses the bound
                assert np.array_equal(ok, feasible[:, -1])
                power = best[ok, j]
                assert np.all((0.0 <= power) & (power <= p.p_s_max))
                gains = unit[ok] * power[:, None]
                got_rss = secondary_rate_from_gain(gains[:, 2], ch, p)
                got, _ = jd_secrecy_from_gains(gains[:, 0], gains[:, 1], got_rss, ch, p)
                assert np.all(got_rss >= r_min - solver_mod.RATE_SLACK)
                assert np.all(got >= grid_best[ok] - 1e-12)
            # g_ss = 0 or nearly: no positive bound can be met
            assert np.isnan(best[:2, 1:]).all() and not np.isnan(best[:2, 0]).any()
        assert branches == {0, 1, 2}

    def test_bound_within_slack_of_the_best_rate(self):
        # Row 2's full-power rate sits RATE_SLACK/2 below the last bound:
        # the budget is its only feasible power.
        for ch, p, unit, r_mins in jd_powers_panel():
            assert solver_mod._jd_powers(unit[2:3], r_mins[-1:], ch, p)[0, 0] == p.p_s_max

    def test_qos_edge_meets_the_bound(self):
        # A bound that binds puts the power where the rate equals r_min,
        # not below it.
        for ch, p, unit, r_mins in jd_powers_panel():
            best = solver_mod._jd_powers(unit, r_mins, ch, p)
            for j, r_min in enumerate(r_mins[:-1]):
                ok = ~np.isnan(best[:, j])
                rss = secondary_rate_from_gain(best[ok, j] * unit[ok, 2], ch, p)
                assert np.all(rss >= r_min - 1e-12)

    def test_case_index_does_not_depend_on_power(self):
        # The rule rests on this: along a direction the branch of the
        # piecewise rate is the same at every power P > 0.
        rng = np.random.default_rng(99)
        for ch, p, unit, _ in jd_powers_panel():
            powers = p.p_s_max * np.exp(rng.uniform(-12.0, 0.0, 40))
            g = unit[2:, None, :] * powers[None, :, None]
            rss = secondary_rate_from_gain(g[..., 2], ch, p)
            _, idx = jd_secrecy_from_gains(g[..., 0], g[..., 1], rss, ch, p)
            assert np.all(idx == idx[:, :1])
