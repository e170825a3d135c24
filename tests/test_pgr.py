import io
import subprocess
import sys
from types import SimpleNamespace

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
from leasesec.solver import _pool_powers


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


def s2_powers(lam, nt=2):
    """Candidate powers of the S2 pool's lambda-sign rule for one row."""
    ch, p = draw(nt=nt)
    powers, rows = _pool_powers(SimpleNamespace(lam=np.array([lam])), "S2", ch, p, 0.0)
    assert np.all(rows == 0)
    return powers


class TestAdmissiblePowers:
    def test_positive_eigenvalue(self):
        npt.assert_allclose(s2_powers(0.5), [10.0])

    def test_zero_eigenvalue_interval(self):
        levels = s2_powers(0.0)
        assert levels[0] == 0.0 and levels[-1] == 10.0 and len(levels) == 64

    def test_negative_eigenvalue(self):
        npt.assert_allclose(s2_powers(-0.1), [0.0])

    def test_enough_antennas_forces_full(self):
        npt.assert_allclose(s2_powers(-0.1, nt=3), [10.0])


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

    def test_lambda_nonnegative_with_enough_antennas(self):
        # Suppressing one receiver with three antennas never needs a
        # negative top eigenvalue; the isolated all-weight-on-primary
        # corner sits exactly at zero.
        ch, p = draw(nt=3, trial=9)
        sweep = boundary_sweep(sample_simplex(3, 20), DIRECTION_SUPPRESS_PRIMARY, ch)
        assert np.all(sweep.lam >= -1e-12)
        powers, rows = _pool_powers(sweep, "S2", ch, p, 0.0)
        assert np.all(powers == p.p_s_max)
        assert np.array_equal(rows, np.arange(len(sweep.mu)))

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
