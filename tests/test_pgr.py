import io
import subprocess
import sys
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from leasesec.model import SystemParams, TrialSeed, sample_channels
from leasesec.pgr import (
    CSV_HEADER,
    DIRECTION_SUPPRESS_PRIMARY,
    DIRECTION_SUPPRESS_PRIMARY_AND_EVE,
    DIRECTION_TWO_TERM,
    boundary_beamformer,
    boundary_sweep,
    export_boundary,
    power_gains,
    sample_simplex,
)
from leasesec.rates import r_s_max, required_rate
from leasesec.solver import _jd_powers, _pool_powers


def draw(nt=2, seed=17, trial=0, p_s_max=10.0):
    p = SystemParams(p_p=1.0, p_s_max=p_s_max, n_t=nt)
    return sample_channels(p, TrialSeed(seed, trial)), p


class TestPowerGains:
    def test_unit_beam_reads_first_entry(self):
        ch, _ = draw()
        w = np.array([1, 0], complex)
        gains = power_gains(w, ch)
        assert gains[0] == pytest.approx(abs(ch.h_sp[0]) ** 2, rel=1e-14)
        assert gains[1] == pytest.approx(abs(ch.h_se[0]) ** 2, rel=1e-14)
        assert gains[2] == pytest.approx(abs(ch.h_ss[0]) ** 2, rel=1e-14)

    def test_zero_beam(self):
        ch, _ = draw()
        assert power_gains(np.zeros(2, complex), ch) == (0.0, 0.0, 0.0)

    def test_scaling_homogeneity(self):
        ch, _ = draw()
        w = np.array([0.3 + 0.4j, -0.5j])
        g1 = np.array(power_gains(w, ch))
        g2 = np.array(power_gains((2 - 1j) * w, ch))
        npt.assert_allclose(g2, abs(2 - 1j) ** 2 * g1, rtol=1e-12)


class TestSampleSimplex:
    def test_three_weights_m2(self):
        pts = sample_simplex(3, 2)
        assert len(pts) == 6
        npt.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-15)

    def test_two_weights_m1(self):
        pts = sample_simplex(2, 1)
        assert sorted(map(tuple, pts.tolist())) == [(0.0, 1.0), (1.0, 0.0)]

    def test_count_m100(self):
        assert len(sample_simplex(3, 100)) == 5151

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_simplex(3, 0)
        with pytest.raises(ValueError):
            sample_simplex(4, 5)

    def test_count_check_survives_optimize_flag(self):
        # The lattice size check must be an explicit error, which -O keeps.
        code = (
            "import leasesec.pgr as pgr\n"
            "pgr.comb = lambda n, k: -1\n"
            "try:\n"
            "    pgr.sample_simplex(3, 4)\n"
            "except RuntimeError as exc:\n"
            "    print('raised', exc)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised simplex lattice has 15 points")


def pool_powers_panel():
    """(sweep, pool, ch, p, r_mins, powers, rows) for the S2 and S3 pools at
    n_t 2-4, 0 and 30 dB, under one, two and four QoS bounds."""
    out = []
    for nt in (2, 3, 4):
        ch, _ = draw(nt=nt, seed=23, trial=nt)
        for snr_db in (0.0, 30.0):
            p = SystemParams.from_snr_db(snr_db, 0.0, nt)
            for alphas in ((0.0,), (0.5, 0.8), (0.0, 0.5, 0.8, 1.0)):
                r_mins = tuple(required_rate(ch, replace(p, alpha=a)) for a in alphas)
                for pool, e, k in (("S2", DIRECTION_SUPPRESS_PRIMARY_AND_EVE, 3),
                                   ("S3", DIRECTION_TWO_TERM, 2)):
                    sweep = boundary_sweep(sample_simplex(k, 12), e, ch)
                    powers, rows = _pool_powers(sweep, pool, ch, p, r_mins)
                    out.append((sweep, pool, ch, p, r_mins, powers, rows))
    return out


class TestAdmissiblePowers:
    """The free-power pools give every row the budget plus each distinct
    exact best power under the call's QoS bounds."""

    def test_budget_first_for_every_row(self):
        for sweep, _, _, p, _, powers, rows in pool_powers_panel():
            L = len(sweep.mu)
            assert np.array_equal(rows[:L], np.arange(L))
            assert np.all(powers[:L] == p.p_s_max)
            assert np.all(powers[L:] != p.p_s_max)

    def test_at_most_one_power_per_bound_beyond_the_budget(self):
        for sweep, _, _, _, r_mins, powers, rows in pool_powers_panel():
            counts = np.bincount(rows, minlength=len(sweep.mu))
            assert counts.max() <= 1 + len(r_mins)
            for r in np.flatnonzero(counts > 1):
                assert len(set(powers[rows == r].tolist())) == counts[r]

    def test_powers_within_budget_are_the_rule_s(self):
        extra = 0
        for sweep, _, ch, p, r_mins, powers, rows in pool_powers_panel():
            assert np.all((powers >= 0.0) & (powers <= p.p_s_max))
            best = _jd_powers(sweep.unit_gains, r_mins, ch, p)
            L = len(sweep.mu)
            for r, power in zip(rows[L:], powers[L:]):
                assert power in best[r]
            extra += len(rows) - L
        assert extra > 0  # partial powers do occur on this panel

    def test_budget_alone_where_it_is_every_best_power(self):
        for sweep, _, ch, p, r_mins, powers, rows in pool_powers_panel():
            best = _jd_powers(sweep.unit_gains, r_mins, ch, p)
            only_budget = np.all((best == p.p_s_max) | np.isnan(best), axis=1)
            counts = np.bincount(rows, minlength=len(sweep.mu))
            assert np.all(counts[only_budget] == 1)

    def test_s1_uses_the_power_levels(self):
        ch, p = draw(nt=3)
        sweep = boundary_sweep(sample_simplex(3, 4), DIRECTION_SUPPRESS_PRIMARY, ch)
        L = len(sweep.mu)
        powers, rows = _pool_powers(sweep, "S1", ch, p, (0.0,))
        assert np.all(powers == p.p_s_max) and np.array_equal(rows, np.arange(L))
        powers, rows = _pool_powers(sweep, "S1", ch, p, (0.0,), [1.0, 2.0])
        assert np.array_equal(powers, np.tile([1.0, 2.0], L))
        assert np.array_equal(rows, np.repeat(np.arange(L), 2))


class TestBoundaryBeamformer:
    def test_zero_forcing_point(self):
        # All weight on suppressing the primary receiver: the top
        # eigenvalue collapses to zero and the beam nulls that channel.
        for nt in (2, 3, 4):
            ch, p = draw(nt=nt, trial=nt)
            pt = boundary_beamformer(
                (1.0, 0.0, 0.0), DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max
            )
            assert abs(pt.lambda_max) <= 1e-12
            bound = 1e-20 * p.p_s_max * np.linalg.norm(ch.h_sp) ** 2
            assert pt.gains[0] <= bound

    def test_pure_secondary_weight_is_mrt(self):
        ch, p = draw()
        pt = boundary_beamformer(
            (0.0, 0.0, 1.0), DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max
        )
        cos = abs(np.vdot(pt.w, ch.h_ss)) / (
            np.linalg.norm(pt.w) * np.linalg.norm(ch.h_ss)
        )
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert pt.lambda_max == pytest.approx(
            np.linalg.norm(ch.h_ss) ** 2, rel=1e-12
        )

    def test_stored_gains_match_beamformer(self):
        ch, p = draw(nt=3)
        for mu in sample_simplex(3, 4):
            pt = boundary_beamformer(mu, DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max)
            npt.assert_allclose(pt.gains, power_gains(pt.w, ch), atol=1e-10)
            assert np.linalg.norm(pt.w) ** 2 == pytest.approx(pt.power, rel=1e-9)

    def test_two_term_family(self):
        ch, p = draw()
        pt = boundary_beamformer((1.0, 0.0), DIRECTION_TWO_TERM, ch, p.p_s_max)
        assert pt.gains[0] <= 1e-20 * p.p_s_max * np.linalg.norm(ch.h_sp) ** 2

    def test_rejects_bad_weights(self):
        ch, p = draw()
        with pytest.raises(ValueError):
            boundary_beamformer((0.5, 0.2), DIRECTION_TWO_TERM, ch, p.p_s_max)
        with pytest.raises(ValueError):
            boundary_beamformer((0.5, 0.5, 0.2), DIRECTION_TWO_TERM, ch, p.p_s_max)


class TestBoundarySweep:
    def test_matches_single_point_calls(self):
        # Every row of a batched sweep against a dense eigensolve of
        # sum_k mu_k e_k h_k h_k^*.
        ch, p = draw(nt=3, trial=5)
        mu = sample_simplex(3, 12)
        e = DIRECTION_SUPPRESS_PRIMARY_AND_EVE
        sweep = boundary_sweep(mu, e, ch)
        H = ch.secondary_vectors()
        for i in range(len(mu)):
            Z = sum(m * s * np.outer(h, np.conj(h)) for m, s, h in zip(mu[i], e, H))
            npt.assert_allclose(sweep.lam[i], np.linalg.eigvalsh(Z)[-1], atol=1e-10)
            w = sweep.beamformer(i, p.p_s_max)
            npt.assert_allclose(Z @ w, sweep.lam[i] * w, atol=1e-9)
            npt.assert_allclose(np.linalg.norm(w) ** 2, p.p_s_max, rtol=1e-12)
            npt.assert_allclose(
                p.p_s_max * sweep.unit_gains[i], power_gains(w, ch), atol=1e-9
            )

    @pytest.mark.parametrize("nt", [3, 5])
    @pytest.mark.parametrize(
        "e", [DIRECTION_SUPPRESS_PRIMARY, DIRECTION_SUPPRESS_PRIMARY_AND_EVE]
    )
    def test_batch_rows_equal_one_row_sweeps(self, nt, e, monkeypatch):
        # A 3x3 span row is solved on its own, so batching changes no bit,
        # in closed form or on the LAPACK fallback.  The coarse lattice's
        # primary corner ties at the top; close to that corner the top two
        # eigenvalues nearly tie, and a third of the rows fall back.
        ch, _ = draw(nt=nt, seed=99, trial=nt)
        coarse = sample_simplex(3, 12)
        near_corner = (1.0 - 5e-3) * np.array([1.0, 0.0, 0.0]) + 5e-3 * coarse
        eigh, lapack_rows = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda S: lapack_rows.append(len(S)) or eigh(S))
        for mu, fallback in ((coarse, (1, 3)), (near_corner, (10, 45))):
            lapack_rows.clear()
            sweep = boundary_sweep(mu, e, ch)
            assert fallback[0] <= sum(lapack_rows) <= fallback[1]
            differ = []
            for i in range(len(mu)):
                one = boundary_sweep(mu[i : i + 1], e, ch)
                if any(
                    getattr(one, f).tobytes() != getattr(sweep, f)[i : i + 1].tobytes()
                    for f in ("lam", "coords", "unit_gains")
                ):
                    differ.append(i)
            assert differ == [], f"{len(differ)} of {len(mu)} rows differ"

    def test_lambda_nonnegative_with_enough_antennas(self):
        # Suppressing one receiver with three antennas never needs a
        # negative top eigenvalue; the isolated all-weight-on-primary
        # corner sits exactly at zero.
        ch, p = draw(nt=3, trial=9)
        sweep = boundary_sweep(sample_simplex(3, 20), DIRECTION_SUPPRESS_PRIMARY, ch)
        assert np.all(sweep.lam >= -1e-12)
        L = len(sweep.mu)
        r_mins = (0.0, 0.5 * r_s_max(ch, p))
        powers, rows = _pool_powers(sweep, "S2", ch, p, r_mins)
        assert np.all(powers[:L] == p.p_s_max)
        assert np.array_equal(rows[:L], np.arange(L))
        assert np.all((powers[L:] >= 0.0) & (powers[L:] < p.p_s_max))
        assert np.bincount(rows, minlength=L).max() <= 1 + len(r_mins)

    def test_boundary_dominance_random_oracle(self):
        # no random feasible beamformer may dominate a boundary point in
        # the (primary down, eavesdropper up, secondary up) direction
        ch, p = draw(nt=2, trial=3)
        sweep = boundary_sweep(sample_simplex(3, 200), DIRECTION_SUPPRESS_PRIMARY, ch)
        bnd = p.p_s_max * sweep.unit_gains  # full-power boundary gains
        rng = np.random.default_rng(123)
        n_rand = 100_000
        w = rng.standard_normal((n_rand, 2)) + 1j * rng.standard_normal((n_rand, 2))
        w *= np.sqrt(p.p_s_max * rng.uniform(0, 1, n_rand)[:, None]) / np.linalg.norm(
            w, axis=1, keepdims=True
        )
        H = ch.secondary_vectors()
        rand_gains = np.abs(np.conj(w) @ H.T) ** 2
        slack = 1e-9
        for chunk in range(0, len(bnd), 512):
            b = bnd[chunk : chunk + 512]
            dominates = (
                (rand_gains[:, None, 0] < b[None, :, 0] - slack)
                & (rand_gains[:, None, 1] > b[None, :, 1] + slack)
                & (rand_gains[:, None, 2] > b[None, :, 2] + slack)
            )
            assert not dominates.any()


class TestExportBoundary:
    def test_empty_is_header_only(self):
        buf = io.StringIO()
        export_boundary([], buf)
        assert buf.getvalue() == CSV_HEADER + "\n"

    def test_m2_has_seven_lines(self):
        ch, p = draw()
        pts = [
            boundary_beamformer(mu, DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max)
            for mu in sample_simplex(3, 2)
        ]
        buf = io.StringIO()
        export_boundary(pts, buf)
        assert len(buf.getvalue().splitlines()) == 7

    def test_round_trip_full_precision(self):
        ch, p = draw(trial=8)
        pts = [
            boundary_beamformer(mu, DIRECTION_SUPPRESS_PRIMARY, ch, p.p_s_max)
            for mu in sample_simplex(3, 3)
        ]
        buf = io.StringIO()
        export_boundary(pts, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        for pt, line in zip(pts, lines[1:]):
            cells = line.split(",")
            assert [float(c) for c in cells[:3]] == list(pt.mu)
            assert [int(c) for c in cells[3:6]] == list(pt.e)
            assert float(cells[6]) == pt.power
            assert [float(c) for c in cells[7:10]] == list(pt.gains)
            assert float(cells[10]) == pt.lambda_max

    def test_two_term_points_pad_columns(self):
        ch, p = draw()
        pt = boundary_beamformer((0.25, 0.75), DIRECTION_TWO_TERM, ch, p.p_s_max)
        buf = io.StringIO()
        export_boundary([pt], buf)
        cells = buf.getvalue().splitlines()[1].split(",")
        assert [float(c) for c in cells[:3]] == [0.25, 0.0, 0.75]
