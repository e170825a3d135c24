"""Seeded benchmark for leasesec: sweep throughput, single-solve latency and
oracle-checked accuracy, with per-module traced timings.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 40 --trace 0

With --trace 0 the run measures the end-to-end metrics for --seconds seconds.
With --trace 1 it runs the workload's first rounds once untraced and once
traced, and reports per-module metrics.  Both check every output.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; progress goes to standard error.  perfbench/README.md
describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace


def process_age() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# One BLAS/OpenMP thread in this process and its workers; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "trials_per_s": "1/s",
    "solve_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name, count in tracing.TARGETS.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if count is not None:
            units[f"{name}.{count}"] = "count"
    units["rates.points_per_cell"] = "points/cell"
    units["pgr.rows_per_trial"] = "rows/trial"
    units["solver.oracle_gap_sd.max_bits"] = "bit"
    units["solver.oracle_gap_jd.max_bits"] = "bit"
    units["solver.secrecy_bits"] = "bit"
    return units


def load_package() -> SimpleNamespace:
    """Import leasesec from the checkout's src/, never from elsewhere."""
    if not (SRC / "leasesec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no leasesec sources in {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{
        name: importlib.import_module(f"leasesec.{name}")
        for name in ("model", "solver", "cli")
    })
    if Path(lib.model.__file__).resolve().parent != SRC / "leasesec":
        sys.exit(f"perfbench: leasesec was imported from {lib.model.__file__}, not {SRC}")
    return lib


def round_seed(seed: int, r: int) -> int:
    """Master seed of round r; every round draws fresh channels."""
    return 1000 * seed + r


@dataclass(frozen=True)
class Round:
    """What one round of a workload produced."""

    wall_s: float  # wall time of the calls into the package
    trials: int  # channel draws solved
    text: str  # the rows it printed: the sweep CSV, or one line per instance
    solve_s: tuple  # latencies that solve_ms_p50 takes its median over
    secrecy: tuple  # solver secrecy of every answered cell, in bits
    cells: int  # solver answers, one per (trial, decoder, snr, alpha)
    # oracle_check: (channel index, alpha, sd, jd, brute sd, brute jd), the
    # oracle results None on the channels that are only solved
    results: tuple = ()


class SweepWorkload:
    """A sweep CLI command; each round is one sweep with a fresh master seed."""

    def __init__(self, lib, command: str, spec: checks.SweepSpec, workers: int,
                 trace_rounds: int):
        self.lib = lib
        self.command = command
        self.spec = spec
        self.workers = workers
        self.trace_rounds = trace_rounds
        self.ops = len(spec.keys())

    def inputs(self, seed: int, r: int):
        """(master seed, channel draws per n_t) of round r."""
        model = self.lib.model
        master = round_seed(seed, r)
        draws = {
            nt: [model.sample_channels(model.SystemParams.from_snr_db(0.0, 0.0, nt),
                                       model.TrialSeed(master, t))
                 for t in range(self.spec.trials)]
            for nt in self.spec.nts
        }
        return master, draws

    def first_draw(self, inputs):
        return inputs[1][self.spec.nts[0]][0]

    def run(self, inputs) -> Round:
        master, _ = inputs
        s = self.spec
        argv = [self.command, "--decoder", "BOTH",
                "--nt", *map(str, s.nts), "--snr-db", *map(str, s.snrs),
                "--alpha", *map(str, s.alphas), "--trials", str(s.trials),
                "--seed", str(master), "--workers", str(self.workers), "--out", "-"]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"leasesec {' '.join(argv)} exited with {code}")
        text = buf.getvalue()
        trials = s.trials * len(s.nts)
        try:
            secrecy = tuple(r.secrecy for r in checks.parse_csv(text))
        except ValueError:
            secrecy = ()  # check_sweep reports the malformed CSV
        return Round(wall, trials, text, (wall / trials,), secrecy, self.ops * s.trials)

    def check(self, inputs, rnd: Round) -> list:
        return checks.check_sweep(rnd.text, self.spec, inputs[1])

    def panel_check(self) -> list:
        return []  # the sweeps are not held to an oracle

    def expected_calls(self) -> dict:
        """Calls of traced functions in one round, to prove the trace complete."""
        draws = self.spec.trials * len(self.spec.nts)
        return {"harness.run_sweep": 1, "cli.emit_csv": 1,
                "model.sample_channels": draws, "solver.unit_sweeps": draws,
                "solver.solve_cell": draws * len(self.spec.snrs)}


class OracleWorkload:
    """Standalone solves of n_t = 2 instances, some checked by both oracles.

    A round solves SOLVED seeded channels at every alpha; the first is also
    checked by both oracles, the others give more latency samples.  On
    seeded instances an answer that misses its oracle by more than the
    tolerance is only noted on stderr: solve_sd falls short on about one
    instance in 200 and beats brute_force_sd on some others (CHANGES.md,
    FOUND), and the failed share of a run must not depend on the seed.  The
    oracle tolerance is held instead, both ways, on a fixed panel of
    channels, the same in every run (panel_check).
    """

    SNR_DB = 10.0
    ALPHAS = (0.0, 0.5)
    NT = 2
    SOLVED = 4
    # The panel: the oracle-checked channels of rounds 0..11 of --seed 11; JD
    # is held to its oracle on the first two only, as brute_force_jd takes 1 s.
    PANEL = tuple(round_seed(11, r) for r in range(12))
    PANEL_JD = 2
    # solve_sd's recorded shortfall on the panel (CHANGES.md, FOUND) is
    # exempt while it is no larger than recorded: 5.618e-2 bits.
    KNOWN_SHORT = {("sd", round_seed(11, 1), 0.5): 0.0562}

    def __init__(self, lib, trace_rounds: int):
        self.lib = lib
        self.trace_rounds = trace_rounds
        self.ops = self.SOLVED * len(self.ALPHAS)

    def inputs(self, seed: int, r: int):
        model = self.lib.model
        return [model.sample_channels(model.SystemParams.from_snr_db(self.SNR_DB, 0.0, self.NT),
                                      model.TrialSeed(round_seed(seed, r), t))
                for t in range(self.SOLVED)]

    def first_draw(self, inputs):
        return inputs[0]

    def run(self, chans) -> Round:
        solver, model = self.lib.solver, self.lib.model
        results, latencies = [], []
        start = time.perf_counter()
        for t, ch in enumerate(chans):
            for alpha in self.ALPHAS:
                p = model.SystemParams.from_snr_db(self.SNR_DB, alpha, self.NT)
                solve_start = time.perf_counter()
                sweeps = solver.unit_sweeps(ch)
                sd = solver.solve_sd(ch, p, sweeps=sweeps)
                jd = solver.solve_jd(ch, p, sweeps=sweeps)
                latencies.append(time.perf_counter() - solve_start)
                oracles = ((solver.brute_force_sd(ch, p), solver.brute_force_jd(ch, p))
                           if t == 0 else (None, None))
                results.append((t, alpha, sd, jd, *oracles))
        wall = time.perf_counter() - start
        lines = []
        for t, alpha, *answers in results:
            cells = [str(t), repr(alpha)]
            for a in filter(None, answers):
                cells += [repr(a.secrecy_bits), repr(a.secondary_bits), repr(a.power)]
                cells += [repr(complex(x)) for x in a.w]
            lines.append(",".join(cells) + "\n")
        secrecy = tuple(v for _, _, sd, jd, _, _ in results
                        for v in (sd.secrecy_bits, jd.secrecy_bits))
        return Round(wall, len(chans), "".join(lines), tuple(latencies), secrecy,
                     2 * len(results), tuple(results))

    def check(self, chans, rnd: Round) -> list:
        reasons = []
        for t, alpha, sd, jd, bsd, bjd in rnd.results:
            reasons.append(checks.check_instance(chans[t], self.SNR_DB, alpha, sd, jd, bsd, bjd))
            if bsd is None:
                continue
            for name, solved, brute, tol in (("sd", sd, bsd, checks.SD_ORACLE_TOL),
                                             ("jd", jd, bjd, checks.JD_ORACLE_TOL)):
                for miss in checks.check_oracle(solved, brute, tol, name)[0]:
                    print(f"perfbench: note: seeded, alpha {alpha}: {miss}", file=sys.stderr)
        return reasons

    def panel_check(self) -> list:
        """Reasons a panel answer misses its oracle, either way; untimed."""
        solver, model = self.lib.solver, self.lib.model
        reasons = []
        for i, master in enumerate(self.PANEL):
            ch = model.sample_channels(model.SystemParams.from_snr_db(self.SNR_DB, 0.0, self.NT),
                                       model.TrialSeed(master, 0))
            sweeps = solver.unit_sweeps(ch)
            for alpha in self.ALPHAS:
                p = model.SystemParams.from_snr_db(self.SNR_DB, alpha, self.NT)
                pairs = [("sd", solver.solve_sd(ch, p, sweeps=sweeps),
                          solver.brute_force_sd(ch, p), checks.SD_ORACLE_TOL)]
                if i < self.PANEL_JD:
                    pairs.append(("jd", solver.solve_jd(ch, p, sweeps=sweeps),
                                  solver.brute_force_jd(ch, p), checks.JD_ORACLE_TOL))
                where = f"panel TrialSeed({master}, 0), alpha {alpha}"
                for name, solved, brute, tol in pairs:
                    known = self.KNOWN_SHORT.get((name, master, alpha), 0.0)
                    wrong, notes = checks.check_oracle(solved, brute, tol, name, known)
                    reasons += [f"{where}: {r}" for r in wrong]
                    for note in notes:
                        print(f"perfbench: known fault: {where}: {note}, recorded {known}",
                              file=sys.stderr)
        return reasons

    def expected_calls(self) -> dict:
        n = len(self.ALPHAS)
        solves = self.SOLVED * n
        return {"solver.unit_sweeps": solves,
                "solver.solve_sd": solves, "solver.solve_jd": solves,
                "solver.brute_force_sd": n, "solver.brute_force_jd": n}


# Why each workload is shaped as it is: see perfbench/README.md.
WORKLOADS = {
    "snr_sweep": lambda lib: SweepWorkload(
        lib, "sweep-snr",
        checks.SweepSpec(("SD", "JD"), (2, 3), (0.0, 10.0, 20.0, 30.0), (0.0, 0.5, 0.8), 2),
        workers=1, trace_rounds=3),
    "nt_sweep": lambda lib: SweepWorkload(
        lib, "sweep-nt",
        checks.SweepSpec(("SD", "JD"), tuple(range(2, 11)), (20.0,), (0.0, 0.5, 0.8), 2),
        workers=2, trace_rounds=3),
    "oracle_check": lambda lib: OracleWorkload(lib, trace_rounds=6),
}


def first_trial_ready(workload, inputs) -> float:
    """Compute the first draw's unit sweeps once; return the set-up time."""
    workload.lib.solver.unit_sweeps(workload.first_draw(inputs))
    return process_age()


class RssSampler:
    """Peak resident memory of this process and its children, per round.

    A thread sums the resident set sizes (/proc/<pid>/statm) of this process
    and of its children (/proc/self/task/*/children) every INTERVAL_S.
    """

    INTERVAL_S = 0.02
    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self):
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @staticmethod
    def _read(path: str) -> str:
        """Contents of a /proc file, or "" once its process or thread is gone."""
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read()
        except (FileNotFoundError, ProcessLookupError):
            return ""

    def _resident(self) -> int:
        pids = ["self"]
        for task in os.listdir("/proc/self/task"):
            pids += self._read(f"/proc/self/task/{task}/children").split()
        pages = 0
        for pid in pids:
            fields = self._read(f"/proc/{pid}/statm").split()
            pages += int(fields[1]) if fields else 0
        return pages * self.PAGE

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            resident = self._resident()
            with self._lock:
                self._peak = max(self._peak, resident)

    def start_round(self) -> None:
        resident = self._resident()
        with self._lock:
            self._peak = resident

    def round_peak_mb(self) -> float:
        resident = self._resident()
        with self._lock:
            return max(self._peak, resident) / 1e6


def measured_run(workload, seed: int, seconds: float):
    """Whole rounds, fresh inputs each, for --seconds.

    A round starts only if a round of the mean length so far would still end
    within --seconds; the first round always runs.
    """
    inputs = workload.inputs(seed, 0)
    setup_s = first_trial_ready(workload, inputs)
    rounds, failures, peaks = [], [], []
    begin = time.perf_counter()
    with RssSampler() as rss:
        while True:
            rss.start_round()
            rnd = workload.run(inputs)
            peaks.append(rss.round_peak_mb())
            failures += workload.check(inputs, rnd)
            rounds.append(rnd)
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
            inputs = workload.inputs(seed, len(rounds))
    trials = sum(r.trials for r in rounds)
    wall = sum(r.wall_s for r in rounds)
    latencies = [s for r in rounds for s in r.solve_s]
    print(f"perfbench: {len(rounds)} rounds, {trials} trials in {wall:.2f} s; round "
          f"walls {' '.join(f'{r.wall_s:.2f}' for r in rounds)}; peaks MB "
          f"{' '.join(f'{p:.0f}' for p in peaks)}", file=sys.stderr)
    metrics = {
        "trials_per_s": trials / wall,
        "solve_ms_p50": 1000.0 * statistics.median(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(peaks),
    }
    return failures, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(workload, name: str, seed: int):
    """Rounds 0..trace_rounds-1 once untraced, then once traced."""
    inputs = [workload.inputs(seed, r) for r in range(workload.trace_rounds)]
    first_trial_ready(workload, inputs[0])
    reference = [workload.run(x) for x in inputs]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as spill:
        tracer = tracing.Tracer(Path(spill))
        tracer.install()
        try:
            rounds = [workload.run(x) for x in inputs]
        finally:
            tracer.uninstall()
        tracer.merge_workers()
    failures = []
    for x, ref, rnd in zip(inputs, reference, rounds):
        failures += workload.check(x, ref)
        same = checks.check_identical(ref.text, rnd.text, workload.ops)
        failures += [a + b for a, b in zip(workload.check(x, rnd), same)]

    totals = tracer.totals()
    for fn, per_round in workload.expected_calls().items():
        if totals[fn]["calls"] != per_round * len(rounds):
            raise RuntimeError(f"trace incomplete: {fn} recorded {totals[fn]['calls']} "
                               f"calls, expected {per_round * len(rounds)}")
    untraced = [r.wall_s for r in reference]
    traced = [r.wall_s for r in rounds]
    print(f"perfbench: {len(rounds)} rounds untraced {sum(untraced):.3f} s, traced "
          f"{sum(traced):.3f} s (overhead {sum(traced) - sum(untraced):+.3f} s); "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json", {
        "workload": name, "seed": seed,
        "untraced_round_wall_s": untraced, "traced_round_wall_s": traced,
    })

    units = per_layer_units()
    values = {}
    for fn, agg in totals.items():
        values[f"{fn}.calls"] = agg["calls"]
        values[f"{fn}.self_s"] = agg["self_s"]
        if tracing.TARGETS[fn] is not None:
            values[f"{fn}.{tracing.TARGETS[fn]}"] = agg["count"]
    points = sum(totals[fn]["count"] for fn in tracing.SCORING)
    values["rates.points_per_cell"] = points / sum(r.cells for r in rounds)
    values["pgr.rows_per_trial"] = (totals["pgr.boundary_sweep"]["count"]
                                    / sum(r.trials for r in rounds))
    results = [x for r in rounds for x in r.results if x[4] is not None]
    values["solver.oracle_gap_sd.max_bits"] = max(
        (abs(sd.secrecy_bits - bsd.secrecy_bits) for _, _, sd, _, bsd, _ in results), default=0.0)
    values["solver.oracle_gap_jd.max_bits"] = max(
        (abs(jd.secrecy_bits - bjd.secrecy_bits) for _, _, _, jd, _, bjd in results), default=0.0)
    secrecy = [v for r in rounds for v in r.secrecy]
    values["solver.secrecy_bits"] = statistics.fmean(secrecy) if secrecy else 0.0
    return failures, {k: (values[k], units[k]) for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    lib = load_package()
    workload = WORKLOADS[args.workload](lib)
    if args.trace:
        failures, metrics = traced_run(workload, args.workload, args.seed)
    else:
        failures, metrics = measured_run(workload, args.seed, args.seconds)
    failed = [reasons for reasons in failures if reasons]
    wrong = workload.panel_check()
    for reasons in failed[:5]:
        print("perfbench: FAILED: " + "; ".join(reasons), file=sys.stderr)
    for reason in wrong:
        print("perfbench: FAILED: " + reason, file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not wrong,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
