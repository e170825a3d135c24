"""Command-line interface: sweeps, single-scenario dumps, boundary export,
and the validation suite.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
CSV output is byte-stable for a given seed: floats are written in their
shortest round-trip form and row order is fixed.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, SweepConfig, SweepRow, run_sweep, summarize
from .model import SystemParams, TrialSeed, sample_channels
from .pgr import (
    DIRECTION_SUPPRESS_PRIMARY,
    DIRECTION_SUPPRESS_PRIMARY_AND_EVE,
    boundary_beamformer,
    export_boundary,
    sample_simplex,
)
from .rates import jd_rate_bundle, peaceful_rate, no_leasing_secrecy
from .solver import brute_force_jd, brute_force_sd, solve_jd, solve_sd, unit_sweeps
from . import validate as validate_mod

__all__ = ["main", "parse_config", "emit_csv", "read_csv_rows"]

CSV_HEADER = (
    "decoder,snr_db,nt,alpha,trials,mean_secrecy_bits,ci95,"
    "mean_secondary_bits,no_leasing_bits,peaceful_bits,degenerate_resamples"
)

# config-file keys -> SweepConfig fields (list-valued keys may repeat or
# hold comma-separated values)
_LIST_KEYS = {"snr_db": float, "nt": int, "alpha": float}
_SCALAR_KEYS = {"decoder": str, "trials": int, "seed": int, "resolution": int,
                "baselines": str}


def _fmt(x: float) -> str:
    return repr(float(x))


def parse_config(path: str | None, overrides: dict) -> SweepConfig:
    """Build a SweepConfig from a key = value file plus flag overrides.

    File grammar: one `key = value` per line; blank lines and lines starting
    with # are ignored; repeated keys extend list values.  Flags override
    whatever the file says, key by key.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, _, rhs = line.partition("=")
            key = key.strip()
            rhs = rhs.strip()
            if key in _LIST_KEYS:
                conv = _LIST_KEYS[key]
                try:
                    items = [conv(tok.strip()) for tok in rhs.split(",") if tok.strip()]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
                values.setdefault(key, []).extend(items)
            elif key in _SCALAR_KEYS:
                try:
                    values[key] = _SCALAR_KEYS[key](rhs)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "alpha":
                bad = [a for a in values[key] if not 0.0 <= a <= 1.0]
                if bad:
                    raise ConfigError(
                        f"{path}:{lineno}: alpha must lie in [0, 1], got {bad[0]}"
                    )
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    kwargs = {}
    if "decoder" in values:
        kwargs["decoder"] = str(values["decoder"]).upper()
    if "snr_db" in values:
        kwargs["snr_db_list"] = tuple(values["snr_db"])
    if "nt" in values:
        kwargs["nt_list"] = tuple(values["nt"])
    if "alpha" in values:
        kwargs["alpha_list"] = tuple(values["alpha"])
    if "trials" in values:
        kwargs["trials"] = int(values["trials"])
    if "seed" in values:
        kwargs["master_seed"] = int(values["seed"])
    if "resolution" in values:
        kwargs["simplex_resolution"] = int(values["resolution"])
    if "baselines" in values:
        raw = str(values["baselines"]).strip().lower()
        if raw in ("true", "yes", "1", "on"):
            kwargs["include_baselines"] = True
        elif raw in ("false", "no", "0", "off"):
            kwargs["include_baselines"] = False
        else:
            raise ConfigError(f"baselines must be true/false, got {raw!r}")
    return SweepConfig(**kwargs)


def emit_csv(rows: list[SweepRow], stream) -> None:
    """Write sweep rows with a fixed header, order, and float format."""
    stream.write(CSV_HEADER + "\n")
    for r in rows:
        stream.write(
            ",".join(
                [
                    r.decoder,
                    _fmt(r.snr_db),
                    str(r.nt),
                    _fmt(r.alpha),
                    str(r.trials),
                    _fmt(r.mean_secrecy_bits),
                    _fmt(r.ci95_halfwidth),
                    _fmt(r.mean_secondary_bits),
                    _fmt(r.mean_no_leasing_bits),
                    _fmt(r.mean_peaceful_bits),
                    str(r.degenerate_resamples),
                ]
            )
            + "\n"
        )


def read_csv_rows(stream) -> list[SweepRow]:
    """Parse emit_csv output back into SweepRow records."""
    header = stream.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header!r}")
    rows = []
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split(",")
        rows.append(
            SweepRow(
                decoder=cells[0],
                snr_db=float(cells[1]),
                nt=int(cells[2]),
                alpha=float(cells[3]),
                trials=int(cells[4]),
                mean_secrecy_bits=float(cells[5]),
                ci95_halfwidth=float(cells[6]),
                mean_secondary_bits=float(cells[7]),
                mean_no_leasing_bits=float(cells[8]),
                mean_peaceful_bits=float(cells[9]),
                degenerate_resamples=int(cells[10]),
            )
        )
    return rows


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--decoder", choices=["SD", "JD", "BOTH"])
    sub.add_argument("--snr-db", type=float, nargs="+", dest="snr_db")
    sub.add_argument("--nt", type=int, nargs="+")
    sub.add_argument("--alpha", type=float, nargs="+")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--resolution", type=int)
    sub.add_argument("--baselines", choices=["true", "false"])
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", help="CSV path (default stdout)")
    sub.add_argument("--summary", action="store_true",
                     help="print the human-readable summary to stderr")


def _overrides(args) -> dict:
    return {
        "decoder": args.decoder,
        "snr_db": list(args.snr_db) if args.snr_db else None,
        "nt": list(args.nt) if args.nt else None,
        "alpha": list(args.alpha) if args.alpha else None,
        "trials": args.trials,
        "seed": args.seed,
        "resolution": args.resolution,
        "baselines": args.baselines,
    }


def _cmd_sweep(args, nt_default: tuple, snr_default: tuple) -> int:
    overrides = _overrides(args)
    if overrides["nt"] is None and args.config is None:
        overrides["nt"] = list(nt_default)
    if overrides["snr_db"] is None and args.config is None:
        overrides["snr_db"] = list(snr_default)
    cfg = parse_config(args.config, overrides)
    rows = run_sweep(cfg, workers=args.workers)
    stream, close = _out_stream(args.out)
    try:
        emit_csv(rows, stream)
    finally:
        if close:
            stream.close()
    if args.summary:
        sys.stderr.write(summarize(rows))
    return 0


def cmd_single(args) -> int:
    p = SystemParams.from_snr_db(args.snr_db, args.alpha, args.nt)
    ch = sample_channels(p, TrialSeed(args.seed, args.trial))
    out = sys.stdout
    out.write(f"seed {args.seed} trial {args.trial} nt {args.nt} "
              f"snr_db {_fmt(args.snr_db)} alpha {_fmt(args.alpha)}\n")
    out.write("channels:\n")
    for name in ("h_pp", "h_pe", "h_ps"):
        out.write(f"  {name} = {getattr(ch, name)!r}\n")
    for name in ("h_sp", "h_se", "h_ss"):
        vec = ", ".join(repr(complex(x)) for x in getattr(ch, name))
        out.write(f"  {name} = [{vec}]\n")
    out.write(f"peaceful_bits = {_fmt(peaceful_rate(ch, p))}\n")
    out.write(f"no_leasing_bits = {_fmt(no_leasing_secrecy(ch, p))}\n")
    sweeps = unit_sweeps(ch)
    for name, res in (("SD", solve_sd(ch, p, sweeps=sweeps)),
                      ("JD", solve_jd(ch, p, sweeps=sweeps))):
        out.write(f"{name} solution:\n")
        out.write(f"  w = [{', '.join(repr(complex(x)) for x in res.w)}]\n")
        out.write(f"  secrecy_bits = {_fmt(res.secrecy_bits)}\n")
        out.write(f"  secondary_bits = {_fmt(res.secondary_bits)}\n")
        out.write(f"  regime = {res.regime.value}\n")
        out.write(f"  candidate = {res.candidate}\n")
        out.write(f"  mu = {res.mu}\n")
        out.write(f"  power = {_fmt(res.power)}\n")
        bundle = jd_rate_bundle(res.w, ch, p)
        for field_name in ("r_pe_jd", "r_se_jd", "r_e_mac", "r_pe_sd",
                           "r_se_sd", "r_pp_sd"):
            out.write(f"  {field_name} = {_fmt(getattr(bundle, field_name))}\n")
    if args.nt == 2:
        osd = brute_force_sd(ch, p)
        ojd = brute_force_jd(ch, p)
        out.write("oracle comparison:\n")
        out.write(f"  brute_force_sd = {_fmt(osd.secrecy_bits)}\n")
        out.write(f"  brute_force_jd = {_fmt(ojd.secrecy_bits)}\n")
    return 0


def cmd_pgr_boundary(args) -> int:
    p = SystemParams.from_snr_db(args.snr_db, 0.0, args.nt)
    ch = sample_channels(p, TrialSeed(args.seed, args.trial))
    e = (DIRECTION_SUPPRESS_PRIMARY if args.direction == "e1"
         else DIRECTION_SUPPRESS_PRIMARY_AND_EVE)
    points = [
        boundary_beamformer(mu, e, ch, p.p_s_max)
        for mu in sample_simplex(3, args.resolution)
    ]
    stream, close = _out_stream(args.out)
    try:
        export_boundary(points, stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_validate(args) -> int:
    report = validate_mod.run_validation(
        quick=args.quick, seed=args.seed, instances=args.instances,
        inject=args.inject_fault,
    )
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leasesec",
        description=(
            "Secondary-transmitter beamforming for primary-link secrecy: "
            "solvers, Monte Carlo sweeps, and validation."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep_snr = subs.add_parser("sweep-snr", help="secrecy vs SNR sweep")
    _add_sweep_flags(sweep_snr)

    sweep_nt = subs.add_parser("sweep-nt", help="secrecy vs antenna-count sweep")
    _add_sweep_flags(sweep_nt)

    single = subs.add_parser("single", help="solve one seeded scenario and dump it")
    single.add_argument("--seed", type=int, default=1)
    single.add_argument("--trial", type=int, default=0)
    single.add_argument("--nt", type=int, default=2)
    single.add_argument("--snr-db", type=float, default=10.0, dest="snr_db")
    single.add_argument("--alpha", type=float, default=0.5)

    pgr_b = subs.add_parser("pgr-boundary", help="export power-gain boundary CSV")
    pgr_b.add_argument("--seed", type=int, default=1)
    pgr_b.add_argument("--trial", type=int, default=0)
    pgr_b.add_argument("--nt", type=int, default=2)
    pgr_b.add_argument("--snr-db", type=float, default=10.0, dest="snr_db")
    pgr_b.add_argument("--direction", choices=["e1", "e2"], default="e1")
    pgr_b.add_argument("--resolution", type=int, default=100)
    pgr_b.add_argument("--out", help="CSV path (default stdout)")

    val = subs.add_parser("validate", help="run the invariant and oracle suites")
    val.add_argument("--quick", action="store_true",
                     help="20-instance oracle set (about a minute)")
    val.add_argument("--seed", type=int, default=20260810)
    val.add_argument("--instances", type=int, default=None,
                     help="override the oracle instance count")
    val.add_argument("--inject-fault", choices=["flip-eve-sign"], default=None,
                     help=argparse.SUPPRESS)

    args = parser.parse_args(argv)
    try:
        if args.command == "sweep-snr":
            return _cmd_sweep(args, nt_default=(2, 3),
                              snr_default=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0))
        if args.command == "sweep-nt":
            return _cmd_sweep(args, nt_default=tuple(range(2, 11)),
                              snr_default=(20.0,))
        if args.command == "single":
            return cmd_single(args)
        if args.command == "pgr-boundary":
            return cmd_pgr_boundary(args)
        if args.command == "validate":
            return cmd_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
