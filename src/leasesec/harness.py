"""Seeded Monte Carlo experiment engine.

A sweep crosses decoders x SNR x antenna counts x QoS fractions, running the
same per-trial channel seeds in every cell (paired sampling) so curves can
be compared at matched randomness.  Results are deterministic for a given
master seed regardless of the worker count: each trial is a pure function
of its seed, and aggregation always runs in trial order.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, TrialSeed, sample_channels
from .rates import no_leasing_secrecy, peaceful_rate
from .solver import DEFAULT_RESOLUTION, solve_cell, unit_sweeps

__all__ = ["SweepConfig", "SweepRow", "ConfigError", "run_sweep", "summarize"]

DECODERS = ("SD", "JD", "BOTH")


class ConfigError(ValueError):
    """A sweep configuration field is missing, malformed, or out of range."""


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; see the config-file grammar in the CLI."""

    decoder: str = "BOTH"
    snr_db_list: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    nt_list: tuple = (2, 3)
    alpha_list: tuple = (0.0, 0.5, 0.8)
    trials: int = 2000
    master_seed: int = 1
    simplex_resolution: int = DEFAULT_RESOLUTION
    include_baselines: bool = True

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ConfigError(
                f"decoder must be one of {'/'.join(DECODERS)}, got {self.decoder!r}"
            )
        for name in ("snr_db_list", "nt_list", "alpha_list"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {tuple(values)}")
        if any(n < 2 for n in self.nt_list):
            raise ConfigError(f"antenna counts must be >= 2, got {self.nt_list}")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_list):
            raise ConfigError(f"alpha values must lie in [0, 1], got {self.alpha_list}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.simplex_resolution < 1:
            raise ConfigError(
                f"resolution must be >= 1, got {self.simplex_resolution}"
            )

    @property
    def decoders(self) -> tuple:
        return ("SD", "JD") if self.decoder == "BOTH" else (self.decoder,)


@dataclass(frozen=True)
class SweepRow:
    """Per-cell averages over the paired trials."""

    decoder: str
    snr_db: float
    nt: int
    alpha: float
    trials: int
    mean_secrecy_bits: float
    ci95_halfwidth: float
    mean_secondary_bits: float
    mean_no_leasing_bits: float
    mean_peaceful_bits: float
    degenerate_resamples: int


# One trial produces, for every (decoder, snr, alpha) cell of its nt:
# (secrecy, secondary, no_leasing, peaceful).
_N_OUT = 4


def _trial_values(cfg: SweepConfig, nt: int, trial_index: int) -> tuple:
    """All cell outputs for one (nt, trial): pure in (master_seed, index).

    The channel draw, the boundary sweeps, and (per SNR) the refinement
    batches are shared across every (decoder, alpha) cell; solve_cell folds
    the shared candidates into every cell so cross-cell orderings are exact.
    It always solves both decoders, so cfg.decoders picks the rows kept and
    never changes them.
    """
    base = SystemParams.from_snr_db(0.0, 0.0, nt)
    ch = sample_channels(base, TrialSeed(cfg.master_seed, trial_index))
    sweeps = unit_sweeps(ch, cfg.simplex_resolution)
    out = np.empty((len(cfg.decoders), len(cfg.snr_db_list), len(cfg.alpha_list), _N_OUT))
    for i_s, snr in enumerate(cfg.snr_db_list):
        cell = solve_cell(ch, SystemParams.from_snr_db(snr, 0.0, nt), cfg.alpha_list,
                          sweeps=sweeps)
        for i_a, alpha in enumerate(cfg.alpha_list):
            p = SystemParams.from_snr_db(snr, alpha, nt)
            for i_d, dec in enumerate(cfg.decoders):
                res = cell[(dec, alpha)]
                out[i_d, i_s, i_a] = (
                    res.secrecy_bits,
                    res.secondary_bits,
                    no_leasing_secrecy(ch, p),
                    peaceful_rate(ch, p),
                )
    return ch.resamples, out


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Run the whole sweep; rows come back in (decoder, nt, alpha, snr) order.

    workers > 1 distributes all (nt, trial) tasks over one process pool,
    about four chunks per worker; the output is identical for any worker
    count because trials are independent and the reduction runs in trial
    order.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    nts = [nt for nt in cfg.nt_list for _ in range(cfg.trials)]
    trial_ids = [t for _ in cfg.nt_list for t in range(cfg.trials)]
    task = functools.partial(_trial_values, cfg)
    if workers > 1:
        chunksize = max(1, len(nts) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(task, nts, trial_ids, chunksize=chunksize))
    else:
        outs = list(map(task, nts, trial_ids))
    results = {
        nt: outs[i * cfg.trials:(i + 1) * cfg.trials]
        for i, nt in enumerate(cfg.nt_list)
    }

    rows = []
    for dec in sorted(cfg.decoders):
        for nt in sorted(cfg.nt_list):
            per_trial = np.stack([out for _, out in results[nt]])  # (T, D, S, A, 4)
            resamples = int(sum(r for r, _ in results[nt]))
            i_d = cfg.decoders.index(dec)
            for alpha in sorted(cfg.alpha_list):
                i_a = cfg.alpha_list.index(alpha)
                for snr in sorted(cfg.snr_db_list):
                    i_s = cfg.snr_db_list.index(snr)
                    cell = per_trial[:, i_d, i_s, i_a, :]  # (T, 4)
                    means = cell.mean(axis=0)
                    sd = cell[:, 0].std(ddof=1) if cfg.trials > 1 else 0.0
                    ci = 1.96 * sd / math.sqrt(cfg.trials)
                    rows.append(
                        SweepRow(
                            decoder=dec,
                            snr_db=float(snr),
                            nt=int(nt),
                            alpha=float(alpha),
                            trials=cfg.trials,
                            mean_secrecy_bits=float(means[0]),
                            ci95_halfwidth=float(ci),
                            mean_secondary_bits=float(means[1]),
                            mean_no_leasing_bits=(
                                float(means[2]) if cfg.include_baselines else math.nan
                            ),
                            mean_peaceful_bits=(
                                float(means[3]) if cfg.include_baselines else math.nan
                            ),
                            degenerate_resamples=resamples,
                        )
                    )
    return rows


def summarize(rows: list[SweepRow]) -> str:
    """Human-readable table plus leasing-vs-silence verdicts per cell."""
    if not rows:
        return "no data\n"
    header = (
        f"{'decoder':>7} {'snr_db':>7} {'nt':>3} {'alpha':>6} {'secrecy':>9} "
        f"{'ci95':>8} {'secondary':>10} {'no_lease':>9} {'peaceful':>9}  verdict"
    )
    lines = [header, "-" * len(header)]
    flagged = 0
    for r in rows:
        gap = r.mean_secrecy_bits - r.mean_no_leasing_bits
        if math.isnan(gap):
            verdict = "-"
        elif gap < 0:
            verdict = f"LEASING<NO-LEASING ({gap:+.4f})"
            flagged += 1
        else:
            verdict = f"ok ({gap:+.4f})"
        lines.append(
            f"{r.decoder:>7} {r.snr_db:>7.1f} {r.nt:>3d} {r.alpha:>6.2f} "
            f"{r.mean_secrecy_bits:>9.4f} {r.ci95_halfwidth:>8.4f} "
            f"{r.mean_secondary_bits:>10.4f} {r.mean_no_leasing_bits:>9.4f} "
            f"{r.mean_peaceful_bits:>9.4f}  {verdict}"
        )
    lines.append(
        f"{len(rows)} cells, {flagged} with mean secrecy below the no-leasing baseline"
    )
    return "\n".join(lines) + "\n"
