from dataclasses import fields, replace

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
    jd, _ = jd_secrecy_from_gains(gains[:, 0], gains[:, 1], gains[:, 2], ch, p)
    rss = secondary_rate_from_gain(gains[:, 2], ch, p)
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

    def evaluate(pool, sweep, spacing):
        band = solver_mod.INTERVAL_BAND * spacing
        powers, rows = solver_mod._pool_powers(sweep, FAMILY[sweep.e], ch, base, band,
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
            _, rows, rss, value, relaxed = evaluate(pool, coarse, spacing)
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
                        _, rows, rss, value, relaxed = evaluate(pool, sweep, fine)
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
            for decoders in (("SD",), ("JD",), ("SD", "JD")):
                cell = solve_cell(ch, p, self.ALPHAS, decoders=decoders, sweeps=sweeps)
                pools = (("SD",) if "SD" in decoders else ()) + (
                    ("S1", "S2", "S3") if "JD" in decoders else ())
                batches = reference_batches(ch, p, self.ALPHAS, pools, sweeps,
                                            solver_mod.CELL_WALK_SEEDS,
                                            solver_mod.CELL_WALK_ROUNDS)
                ref = reference_cells(ch, p, self.ALPHAS, decoders, batches)
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
        # strictly better, which is why the oracle needs a power axis
        hits = 0
        for trial in range(40):
            ch, p = draw(trial=trial, alpha=0.0, seed=31)
            res = brute_force_jd(ch, p)
            if res.feasible and res.power < p.p_s_max - 1e-9:
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
        val, _ = jd_secrecy_from_gains(g[:, 0], g[:, 1], g[:, 2], ch, p)
        val = np.where(rss >= r_min - solver_mod.RATE_SLACK, val, -np.inf)
        i = int(np.argmax(val))
        cand = (float(val[i]), float(rss[i]), k, i)
        if cand[:2] > best[:2]:
            best = cand
    return best


class TestBruteForceJdParity:
    """brute_force_jd against the same oracle driven by the full-grid
    reference scan: every OptResult field equal, w bit for bit, and every
    scan result equal wherever the reference found a feasible point."""

    SCAN = staticmethod(solver_mod._jd_power_scan)

    @staticmethod
    def run(monkeypatch, scan, ch, p, **grid):
        seen = []

        def recording(*args):
            seen.append(scan(*args))
            return seen[-1]

        monkeypatch.setattr(solver_mod, "_jd_power_scan", recording)
        return brute_force_jd(ch, p, **grid), seen

    def check(self, monkeypatch, ch, p, **grid):
        """Asserts parity; returns the oracle's feasible flag."""
        got, got_scans = self.run(monkeypatch, self.SCAN, ch, p, **grid)
        want, want_scans = self.run(monkeypatch, reference_power_scan, ch, p, **grid)
        assert got.w.tobytes() == want.w.tobytes()
        for f in fields(want):
            if f.name != "w":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert len(got_scans) == len(want_scans)
        for g, w in zip(got_scans, want_scans):
            assert g == (w if np.isfinite(w[0]) else (-np.inf, -np.inf, 0, 0))
        return want.feasible

    def test_two_antennas_reduced_grid(self, monkeypatch):
        feasible = []
        for k, (snr_db, alpha) in enumerate(
            (s, a) for s in (0.0, 10.0, 30.0) for a in (0.0, 0.5, 0.8, 1.0)
        ):
            ch, p = draw(nt=2, snr_db=snr_db, alpha=alpha, seed=1010, trial=k)
            feasible.append(self.check(monkeypatch, ch, p, n_theta=101, n_phi=200))
        assert not all(feasible)  # the all-infeasible fallback is covered

    def test_qos_bound_within_slack_of_best_grid_rate(self, monkeypatch):
        # Only the grid points of highest secondary rate meet the QoS bound,
        # and only through RATE_SLACK.
        ch, p = draw(nt=2, snr_db=10.0, alpha=0.0, seed=1010, trial=21)
        grid_t = np.linspace(0.0, np.pi / 2.0, 101)
        grid_p = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        top = np.max(solver_mod._angular_gain_window(ch, grid_t, grid_p)[..., 2])
        rss = secondary_rate_from_gain(p.p_s_max * top, ch, p)
        p = replace(p, alpha=(rss + solver_mod.RATE_SLACK / 2) / r_s_max(ch, p))
        assert self.check(monkeypatch, ch, p, n_theta=101, n_phi=200)

    def test_two_antennas_default_grid(self, monkeypatch):
        ch, p = draw(nt=2, snr_db=10.0, alpha=0.5, seed=1010, trial=20)
        assert self.check(monkeypatch, ch, p)

    @pytest.mark.parametrize("nt", [3, 4])
    def test_random_directions(self, monkeypatch, nt):
        feasible = []
        for k, (snr_db, alpha) in enumerate(((0.0, 0.0), (10.0, 0.5), (30.0, 0.8),
                                             (10.0, 1.0))):
            ch, p = draw(nt=nt, snr_db=snr_db, alpha=alpha, seed=1020, trial=k)
            feasible.append(self.check(monkeypatch, ch, p, n_random=20000))
        assert not all(feasible)


class TestJdPowerScan:
    def test_first_index_wins_a_tie_across_blocks(self):
        ch, p = draw(nt=3, alpha=0.0, trial=1)
        block = solver_mod.SCAN_BLOCK
        _, unit = next(solver_mod._random_unit_gains(ch, block + 64, seed=3))
        powers = np.linspace(0.0, p.p_s_max, 4)
        val, rss, k, i = solver_mod._jd_power_scan(unit, powers, 0.0, ch, p)
        assert val > 0.0  # one point maximizes, no tie at the zero clamp
        tied = np.delete(unit, i, axis=0)
        tied[[5, block + 9]] = unit[i]
        assert solver_mod._jd_power_scan(tied, powers, 0.0, ch, p) == (val, rss, k, 5)
