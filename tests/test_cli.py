import hashlib
import io
import math
import subprocess
import sys

import numpy as np
import pytest

from leasesec.cli import CSV_HEADER, emit_csv, main, parse_config, read_csv_rows
from leasesec.harness import ConfigError, SweepRow


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "leasesec", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def random_rows(rng, n=12):
    rows = []
    for _ in range(n):
        rows.append(
            SweepRow(
                decoder=rng.choice(["SD", "JD"]),
                snr_db=float(rng.uniform(-5, 40)),
                nt=int(rng.integers(2, 11)),
                alpha=float(rng.uniform(0, 1)),
                trials=int(rng.integers(1, 5000)),
                mean_secrecy_bits=float(rng.standard_normal()),
                ci95_halfwidth=float(abs(rng.standard_normal())),
                mean_secondary_bits=float(rng.standard_normal() * 3),
                mean_no_leasing_bits=float(rng.standard_normal()),
                mean_peaceful_bits=float(rng.standard_normal() * 7),
                degenerate_resamples=int(rng.integers(0, 3)),
            )
        )
    return rows


class TestParseConfig:
    def test_list_values(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(
            "# experiment record\n"
            "alpha = 0, 0.5, 0.8\n"
            "snr_db = 0, 10\n"
            "nt = 2\n"
            "trials = 7\n"
            "seed = 3\n"
        )
        cfg = parse_config(str(cfg_file), {})
        assert cfg.alpha_list == (0.0, 0.5, 0.8)
        assert cfg.snr_db_list == (0.0, 10.0)
        assert cfg.nt_list == (2,)
        assert cfg.trials == 7
        assert cfg.master_seed == 3

    def test_repeated_keys_extend(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("alpha = 0\nalpha = 0.5\n")
        assert parse_config(str(cfg_file), {}).alpha_list == (0.0, 0.5)

    def test_alpha_out_of_range(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("alpha = 1.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(cfg_file), {})
        assert "[0, 1]" in str(err.value)
        assert "1.5" in str(err.value)

    def test_unknown_key_names_line(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("trials = 5\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(cfg_file), {})
        assert "bogus" in str(err.value)
        assert ":2" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg", {})

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("trials = 5\nalpha = 0.5\n")
        cfg = parse_config(str(cfg_file), {"trials": 9, "alpha": [0.0]})
        assert cfg.trials == 9
        assert cfg.alpha_list == (0.0,)

    def test_empty_file_with_flags(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("")
        cfg = parse_config(
            str(cfg_file),
            {"decoder": "SD", "snr_db": [10.0], "nt": [2], "alpha": [0.0],
             "trials": 3, "seed": 1, "resolution": 30},
        )
        assert cfg.decoder == "SD"
        assert cfg.trials == 3


class TestCsv:
    def test_zero_rows_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == CSV_HEADER + "\n"

    def test_round_trip(self):
        rng = np.random.default_rng(2024)
        rows = random_rows(rng)
        buf = io.StringIO()
        emit_csv(rows, buf)
        buf.seek(0)
        assert read_csv_rows(buf) == rows

    def test_emit_is_stable(self):
        rng = np.random.default_rng(9)
        rows = random_rows(rng, n=5)
        a, b = io.StringIO(), io.StringIO()
        emit_csv(rows, a)
        emit_csv(rows, b)
        assert a.getvalue() == b.getvalue()


class TestCommands:
    def test_single_deterministic_dump(self):
        a = run_cli("single", "--seed", "42", "--nt", "2", "--snr-db", "10",
                    "--alpha", "0.5")
        b = run_cli("single", "--seed", "42", "--nt", "2", "--snr-db", "10",
                    "--alpha", "0.5")
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_single_alpha_one_mrt(self):
        out = run_cli("single", "--seed", "42", "--nt", "2", "--snr-db", "10",
                      "--alpha", "1").stdout
        fields = dict()
        h_ss = None
        w = None
        for line in out.splitlines():
            line = line.strip()
            if line.startswith("h_ss ="):
                h_ss = np.array(eval(line.partition("=")[2]))
            if line.startswith("w =") and w is None:
                w = np.array(eval(line.partition("=")[2]))
        assert h_ss is not None and w is not None
        cos = abs(np.vdot(w, h_ss)) / (np.linalg.norm(w) * np.linalg.norm(h_ss))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_single_dump_chain_identity(self):
        out = run_cli("single", "--seed", "7", "--nt", "2", "--snr-db", "10",
                      "--alpha", "0.5").stdout
        vals = {}
        for line in out.splitlines():
            line = line.strip()
            for key in ("r_pe_jd", "r_se_jd", "r_e_mac", "r_pe_sd", "r_se_sd"):
                if line.startswith(key + " ="):
                    vals.setdefault(key, float(line.partition("=")[2]))
        assert abs(vals["r_pe_sd"] + vals["r_se_jd"] - vals["r_e_mac"]) < 1e-10
        assert abs(vals["r_pe_jd"] + vals["r_se_sd"] - vals["r_e_mac"]) < 1e-10

    def test_sweep_snr_csv_determinism(self, tmp_path):
        args = ("sweep-snr", "--decoder", "SD", "--snr-db", "10", "--nt", "2",
                "--alpha", "0", "--trials", "3", "--seed", "5",
                "--resolution", "20")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        rows = read_csv_rows(io.StringIO(a.stdout))
        assert len(rows) == 1 and rows[0].trials == 3

    def test_sweep_config_error_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("alpha = 2.0\n")
        res = run_cli("sweep-snr", "--config", str(cfg_file))
        assert res.returncode == 2
        assert "alpha" in res.stderr

    def test_usage_error_exit_code(self):
        assert run_cli("sweep-snr", "--decoder", "NOPE").returncode == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_config_error(self, workers, capsys):
        code = main(["sweep-snr", "--nt", "2", "--snr-db", "10", "--alpha", "0",
                     "--trials", "1", "--workers", workers])
        assert code == 2
        assert "config error: workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_validate_instances_below_one_is_an_error(self, instances, capsys):
        assert main(["validate", "--quick", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "instances must be >= 1" in captured.err
        assert captured.out == ""

    def test_repeated_sweep_values_are_config_error(self, capsys):
        code = main(["sweep-snr", "--decoder", "SD", "--nt", "2", "2", "--snr-db", "0", "0",
                     "--alpha", "0.5", "0.5", "--trials", "2", "--seed", "1", "--out", "-"])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert captured.out == ""

    def test_pgr_boundary_output(self, tmp_path):
        out_file = tmp_path / "boundary.csv"
        res = run_cli("pgr-boundary", "--seed", "4", "--nt", "2",
                      "--resolution", "8", "--out", str(out_file))
        assert res.returncode == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1 + 45  # header + C(9, 2) lattice points
        assert lines[0].startswith("mu1,mu2,mu3")

    def test_validate_fault_injection(self):
        res = run_cli("validate", "--inject-fault", "flip-eve-sign")
        assert res.returncode == 1
        assert "secrecy_rate_sd" in res.stdout
        assert "FAIL" in res.stdout


class TestValidateSuite:
    def test_report_counts(self):
        from leasesec.validate import run_validation

        report = run_validation(quick=True, instances=2)
        text = report.text()
        assert report.ok, text
        assert "checks passed" in text


# sha256 of CLI outputs, recorded with numpy 2.4 on x86-64.  Solver
# refactors must keep every byte.  3x3 spans (n_t >= 3) are solved by
# LAPACK through numpy.linalg.eigh, so another numpy, LAPACK or BLAS build
# may round differently and need the hashes recorded again.
GOLDEN_SHA256 = {
    ("sweep-snr", "--nt", "2", "3", "--trials", "2", "--seed", "7",
     "--snr-db", "0", "20", "--alpha", "0", "0.5"):
        "742bf7d2be68a6f932207515e6c645560c180600bcb95d16bf15b5a9ca8cd8c9",
    ("pgr-boundary", "--seed", "4", "--resolution", "8", "--direction", "e1"):
        "061f0a14b08aed48e40d7dc9d43129f117e7281f86b6714a6542501456f16e25",
    ("pgr-boundary", "--seed", "4", "--resolution", "8", "--direction", "e2"):
        "311c0794bc1f2bf3be76a4356c7d8cbe40dfb9e92344cff1ea76ca9a70ac0493",
    # solve_jd takes the best candidate across its pools.  Here the JD
    # answer is MRT, which the S1 family (mu = (0, 0, 1)) and the S3
    # family (mu = (0, 1)) both reach; the earlier S1 batch wins the tie.
    ("single", "--seed", "11001", "--trial", "0", "--nt", "2"):
        "56d6a6e09422f616030277cfde973a925a7a3a26f8f59a69f6c94f2bfb0e09fe",
    ("single", "--seed", "11001", "--trial", "0", "--nt", "3"):
        "a7226bd9e53503720b97d7c708446e38c034536bf2ead6737925c14ffed40987",
    # Single-decoder sweeps.  Every sweep solves both decoders on one
    # candidate set, so --decoder only picks the rows printed.  The SD hash
    # changed when the SD-only sweep stopped skipping the joint-decoding
    # pools' walks: one cell (n_t 3, 20 dB, alpha 0) now takes the same
    # point from a lattice those walks visit, and its mean secondary rate
    # moved by 2.2e-16.
    ("sweep-snr", "--decoder", "SD", "--nt", "2", "3", "--trials", "2", "--seed", "7",
     "--snr-db", "0", "20", "--alpha", "0", "0.5"):
        "d2221b383c3be14cc40cb7dc315ccd952c811c12ecd8a83f496921b0c48ced57",
    ("sweep-snr", "--decoder", "JD", "--nt", "2", "3", "--trials", "2", "--seed", "7",
     "--snr-db", "0", "20", "--alpha", "0", "0.5"):
        "eda21954249420a9c8a1879f0d64d18d90013c3656a68bdc9bdae595cdfb38f1",
    # A sweep over two worker processes.  Its n_t = 2, alpha 0.8 cells at
    # 20 dB rose (JD by 9.8e-7, SD by 9.5e-7 in the mean) when the
    # free-power pools took each direction's exact power.
    ("sweep-nt", "--nt", "2", "4", "--trials", "2", "--seed", "5",
     "--alpha", "0", "0.8", "--workers", "2"):
        "0f2e632f4f3344d16cac27d44d807b6091a5e2390fcb0f8a4a297a90b35734af",
    # The pinned sweep, the behavioural contract of the sweep path.  Exact
    # power moved 14 of its n_t = 2 cells: 12 rose, and the two JD cells at
    # 0 dB with alpha 0 and 0.5 fell by 3.5e-8 in the mean, because one
    # trial's S2 walk stopped at a neighbouring lattice row (CHANGES.md).
    ("sweep-snr", "--decoder", "BOTH", "--nt", "2", "3", "--snr-db", "0", "10", "20",
     "30", "--alpha", "0", "0.5", "0.8", "--trials", "12", "--seed", "3"):
        "a00b97b76e96201ac0e342b1c4a0c103e78a18b7c926d5d7f7081449a0a92c4f",
}


class TestGoldenBytes:
    def test_outputs_match_recorded_hashes(self, capsys):
        got = {}
        for argv in GOLDEN_SHA256:
            assert main(list(argv)) == 0
            got[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == GOLDEN_SHA256

    def test_single_decoder_rows_are_the_both_rows(self, capsys):
        argv = list(next(iter(GOLDEN_SHA256)))
        assert main(argv) == 0
        both = capsys.readouterr().out.splitlines()
        for dec in ("SD", "JD"):
            assert main(argv[:1] + ["--decoder", dec] + argv[1:]) == 0
            want = both[:1] + [line for line in both[1:] if line.startswith(dec + ",")]
            assert capsys.readouterr().out.splitlines() == want, dec
