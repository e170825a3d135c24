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
    peaceful_rate,
    required_rate,
    secrecy_rate_jd,
    secrecy_rate_sd,
)
import leasesec.solver as solver_mod
from leasesec.solver import (
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
        sweeps = unit_sweeps(ch, m=12, m2=48)
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
