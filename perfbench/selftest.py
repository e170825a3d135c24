"""Self-test of the benchmark's output checks; runs in about a second.

It builds outputs that satisfy every property the checks hold the program
to, shows that they pass, then corrupts them one way at a time and shows
that the matching check fails.  No solver runs: the channels are random
draws made here and the "program outputs" are written from the closed forms
in checks.py.  It also checks that BENCHMARK.json lists exactly the metrics
run.py reports.

    python3 perfbench/selftest.py      # exit code 0 when every case holds
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import run

SPEC = checks.SweepSpec(("SD", "JD"), (2, 3), (0.0, 20.0), (0.0, 0.5, 0.8), 3)


def draw(rng, nt: int):
    def cn(size=None):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)

    return SimpleNamespace(h_pp=complex(cn()), h_pe=complex(cn()), h_ps=complex(cn()),
                           h_sp=cn(nt), h_se=cn(nt), h_ss=cn(nt), resamples=0)


def fmt(x) -> str:
    return repr(float(x))


def sweep_csv(draws) -> list:
    """CSV lines of a sweep whose secrecy sits between the two baselines."""
    lines = [checks.CSV_HEADER]
    for dec, nt, alpha, snr in SPEC.keys():
        chans = draws[nt]
        nl = np.mean([checks.no_leasing_bits(ch, snr) for ch in chans])
        pe = np.mean([checks.peaceful_bits(ch, snr) for ch in chans])
        rs = np.mean([checks.r_s_max_bits(ch, snr) for ch in chans])
        share = (0.5 if dec == "SD" else 0.4) - 0.3 * alpha
        cells = [dec, fmt(snr), str(nt), fmt(alpha), str(SPEC.trials),
                 fmt(nl + (pe - nl) * share), fmt(0.1), fmt(rs * (0.5 + 0.5 * alpha)),
                 fmt(nl), fmt(pe), "0"]
        lines.append(",".join(cells))
    return lines


def edit(lines: list, key: tuple, **changes) -> list:
    """Copy of lines with the fields of the row for key replaced."""
    out = list(lines)
    for i, line in enumerate(out[1:], start=1):
        row = checks.parse_csv(checks.CSV_HEADER + "\n" + line)[0]
        if row.key == key:
            row = dataclasses.replace(row, **changes)
            out[i] = ",".join([row.decoder, fmt(row.snr_db), str(row.nt), fmt(row.alpha),
                               str(row.trials), fmt(row.secrecy), fmt(row.ci95),
                               fmt(row.secondary), fmt(row.no_leasing), fmt(row.peaceful),
                               str(row.resamples)])
    return out


def swap_decoders(lines: list, nt: int, alpha: float, snr: float) -> list:
    rows = {r.key: r for r in checks.parse_csv("\n".join(lines) + "\n")}
    sd, jd = rows[("SD", nt, alpha, snr)], rows[("JD", nt, alpha, snr)]
    fields = ("secrecy", "ci95", "secondary")
    out = edit(lines, sd.key, **{f: getattr(jd, f) for f in fields})
    return edit(out, jd.key, **{f: getattr(sd, f) for f in fields})


def result(w, ch, snr, jd=False):
    g = checks.gains(w, ch)
    secrecy = checks.jd_secrecy_bits if jd else checks.sd_secrecy_bits
    return SimpleNamespace(w=np.asarray(w), secrecy_bits=secrecy(g, ch, snr),
                           secondary_bits=checks.secondary_bits(g, ch, snr), feasible=True)


def main() -> int:
    rng = np.random.default_rng(2024)
    draws = {nt: [draw(rng, nt) for _ in range(SPEC.trials)] for nt in SPEC.nts}
    lines = sweep_csv(draws)
    cases = []  # (name, failure reasons, substring the failure must contain or None)

    def sweep_case(name, corrupted, expect):
        reasons = checks.check_sweep("\n".join(corrupted) + "\n", SPEC, draws)
        cases.append((name, [r for rs in reasons for r in rs], expect))

    sweep_case("clean sweep", lines, None)
    sweep_case("JD and SD rows swapped", swap_decoders(lines, 3, 0.5, 20.0), "above SD")
    row = checks.parse_csv("\n".join(lines[:2]) + "\n")[0]
    sweep_case("no-leasing baseline shifted by 1e-6",
               edit(lines, row.key, no_leasing=row.no_leasing + 1e-6), "no_leasing_bits")
    sweep_case("peaceful baseline shifted by 1e-6",
               edit(lines, row.key, peaceful=row.peaceful + 1e-6), "peaceful_bits")
    rows = {r.key: r for r in checks.parse_csv("\n".join(lines) + "\n")}
    lower = rows[("SD", 2, 0.5, 20.0)]
    sweep_case("secrecy rising with alpha",
               edit(lines, ("SD", 2, 0.8, 20.0), secrecy=lower.secrecy + 1e-3), "rises")
    rs = rows[("JD", 3, 0.8, 0.0)]
    sweep_case("mean secondary below alpha * r_s_max",
               edit(lines, rs.key, secondary=0.7 * rs.secondary), "below alpha")

    snr, alpha = 10.0, 0.5
    ch = draw(rng, 2)
    P = checks.power(snr)
    w = np.sqrt(P) * ch.h_ss / np.linalg.norm(ch.h_ss)  # full-power MRT meets any QoS
    sd, jd = result(w, ch, snr), result(w, ch, snr, jd=True)

    def instance_case(name, sd, jd, bsd, bjd, expect):
        cases.append((name, checks.check_instance(ch, snr, alpha, sd, jd, bsd, bjd), expect))

    instance_case("clean instance", sd, jd, sd, jd, None)
    instance_case("clean instance, solved only", sd, jd, None, None, None)
    jd_high = SimpleNamespace(**{**vars(jd), "secrecy_bits": sd.secrecy_bits + 1e-3})
    instance_case("solved only, JD above SD", sd, jd_high, None, None, "above SD")
    instance_case("beamformer over the power budget",
                  result(1.01 * w, ch, snr), jd, result(1.01 * w, ch, snr), jd, "over the budget")
    def oracle_case(name, solved, brute, known, expect):
        reasons, _ = checks.check_oracle(solved, brute, checks.SD_ORACLE_TOL, "sd", known)
        cases.append((name, reasons, expect))

    def shifted(res, by):
        return SimpleNamespace(**{**vars(res), "secrecy_bits": res.secrecy_bits + by})

    oracle_case("solver value on the oracle", sd, sd, 0.0, None)
    oracle_case("solver value 1e-2 above the oracle", sd, shifted(sd, -1e-2), 0.0, "beats")
    oracle_case("solver value 1e-2 short of the oracle", sd, shifted(sd, 1e-2), 0.0, "short of")
    oracle_case("known shortfall of 1e-2 within its record 0.0562",
                sd, shifted(sd, 1e-2), 0.0562, None)
    oracle_case("known shortfall grown past its record 0.0562",
                sd, shifted(sd, 0.06), 0.0562, "short of")
    wrong = SimpleNamespace(**{**vars(sd), "secrecy_bits": sd.secrecy_bits + 1e-6})
    instance_case("reported secrecy not matching the beamformer",
                  wrong, jd, wrong, jd, "recomputed")
    same = checks.check_identical("a,1\n", "a,1\n", 2)
    cases.append(("traced rows equal", [r for rs in same for r in rs], None))
    differ = checks.check_identical("a,1\n", "a,2\n", 2)
    cases.append(("traced rows differ", [r for rs in differ for r in rs], "differ"))

    bench = json.loads((Path(run.__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    cases.append(("BENCHMARK.json end_to_end", [] if listed == run.END_TO_END else
                  [f"{listed} != {run.END_TO_END}"], None))
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    cases.append(("BENCHMARK.json per_layer", [] if listed == run.per_layer_units() else
                  [f"per-layer metrics differ: {set(listed) ^ set(run.per_layer_units())}"],
                  None))

    ok = True
    for name, reasons, expect in cases:
        if expect is None:
            good = not reasons
        else:
            good = any(expect in r for r in reasons)
        ok &= good
        print(f"[{'ok' if good else 'FAIL'}] {name}: "
              f"{'; '.join(reasons[:2]) if reasons else 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
