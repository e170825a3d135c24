import io

import pytest

from leasesec.cli import emit_csv
from leasesec.harness import ConfigError, SweepConfig, run_sweep, summarize

TINY = dict(
    decoder="BOTH",
    snr_db_list=(10.0,),
    nt_list=(2,),
    alpha_list=(0.0, 0.5),
    trials=4,
    master_seed=99,
    simplex_resolution=24,
)


def csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue().encode()


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            SweepConfig(trials=0)

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            SweepConfig(snr_db_list=())

    @pytest.mark.parametrize("field, values", [
        ("snr_db_list", (0.0, 10.0, 0.0)),
        ("nt_list", (2, 2)),
        ("alpha_list", (0.5, 0.5)),
    ])
    def test_rejects_repeated_values(self, field, values):
        with pytest.raises(ConfigError) as err:
            SweepConfig(**{field: values})
        assert field in str(err.value)
        assert "repeat" in str(err.value)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            SweepConfig(alpha_list=(0.2, 1.2))

    def test_rejects_bad_decoder(self):
        with pytest.raises(ConfigError):
            SweepConfig(decoder="XX")

    def test_decoder_expansion(self):
        assert SweepConfig(decoder="BOTH").decoders == ("SD", "JD")
        assert SweepConfig(decoder="JD").decoders == ("JD",)


class TestRunSweep:
    def test_deterministic_rerun(self):
        cfg = SweepConfig(**TINY)
        assert csv_bytes(run_sweep(cfg)) == csv_bytes(run_sweep(cfg))

    def test_worker_count_invariance(self):
        cfg = SweepConfig(**TINY)
        assert csv_bytes(run_sweep(cfg, workers=1)) == csv_bytes(
            run_sweep(cfg, workers=2)
        )

    def test_row_ordering_and_shape(self):
        cfg = SweepConfig(**dict(TINY, snr_db_list=(10.0, 0.0)))
        rows = run_sweep(cfg)
        assert len(rows) == 8  # 2 decoders x 1 nt x 2 alphas x 2 snrs
        keys = [(r.decoder, r.nt, r.alpha, r.snr_db) for r in rows]
        assert keys == sorted(keys)

    def test_alpha_ordering_in_means(self):
        cfg = SweepConfig(**dict(TINY, trials=6))
        rows = run_sweep(cfg)
        for dec in ("SD", "JD"):
            sub = [r for r in rows if r.decoder == dec]
            assert sub[0].alpha < sub[1].alpha
            assert sub[0].mean_secrecy_bits >= sub[1].mean_secrecy_bits - 1e-9

    def test_sd_at_least_jd(self):
        cfg = SweepConfig(**TINY)
        rows = run_sweep(cfg)
        jd = {(r.alpha): r.mean_secrecy_bits for r in rows if r.decoder == "JD"}
        sd = {(r.alpha): r.mean_secrecy_bits for r in rows if r.decoder == "SD"}
        for alpha, v in jd.items():
            assert v <= sd[alpha] + 1e-9

    def test_peaceful_upper_bound(self):
        rows = run_sweep(SweepConfig(**TINY))
        for r in rows:
            assert r.mean_secrecy_bits <= r.mean_peaceful_bits + 1e-9

    def test_baselines_flag(self):
        import math

        cfg = SweepConfig(**dict(TINY, include_baselines=False, trials=2))
        rows = run_sweep(cfg)
        assert all(math.isnan(r.mean_no_leasing_bits) for r in rows)

    def test_no_eavesdropper_channel_reaches_peaceful(self, monkeypatch):
        # with the eavesdropper's primary-side channel forced to zero and no
        # QoS requirement, every trial's secrecy hits the peaceful bound
        import leasesec.harness as harness_mod
        from leasesec.model import sample_channels as real_sampler

        def no_eve_sampler(params, seed):
            ch = real_sampler(params, seed)
            ch.h_pe = 0.0
            return ch

        monkeypatch.setattr(harness_mod, "sample_channels", no_eve_sampler)
        cfg = SweepConfig(**dict(TINY, decoder="SD", alpha_list=(0.0,), trials=3))
        rows = run_sweep(cfg)
        for r in rows:
            assert r.mean_secrecy_bits == pytest.approx(
                r.mean_peaceful_bits, abs=1e-9
            )


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == "no data\n"

    def test_single_row_table(self):
        rows = run_sweep(SweepConfig(**dict(TINY, decoder="SD", trials=2,
                                            alpha_list=(0.0,))))
        text = summarize(rows)
        assert len(text.splitlines()) == 4  # header, rule, one row, footer
        assert "SD" in text

    def test_flags_leasing_shortfall(self):
        from leasesec.harness import SweepRow

        row = SweepRow(
            decoder="JD", snr_db=20.0, nt=2, alpha=0.8, trials=10,
            mean_secrecy_bits=0.5, ci95_halfwidth=0.01,
            mean_secondary_bits=1.0, mean_no_leasing_bits=0.6,
            mean_peaceful_bits=2.0, degenerate_resamples=0,
        )
        text = summarize([row])
        assert "LEASING<NO-LEASING" in text
        good = SweepRow(
            decoder="JD", snr_db=20.0, nt=2, alpha=0.0, trials=10,
            mean_secrecy_bits=0.7, ci95_halfwidth=0.01,
            mean_secondary_bits=1.0, mean_no_leasing_bits=0.6,
            mean_peaceful_bits=2.0, degenerate_resamples=0,
        )
        assert "LEASING<NO-LEASING" not in summarize([good])
