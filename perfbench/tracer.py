"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions named in TARGETS.  Each wrapper is
installed on every module attribute of the package that is bound to the
original function, so a call is recorded under whichever name its caller
looks up (``solver.boundary_sweep`` as well as ``pgr.boundary_sweep``).
Wrappers return every result untouched.

A span records its name, process, parent, start and end, its self time (its
duration minus the part its child spans in the same process cover) and a work
count.  Spans stay in memory.  Worker processes forked by a sweep inherit the
wrappers; each one appends its finished top-level spans to a file in the
spill directory, and the parent merges those files when the traced pass ends.

Scoring calls (the ``rates.*_from_gains`` functions) are counted under the
span that called them: inside an oracle their points are added to the
oracle's span, and inside a baseline or another scoring call they are not
counted again, so ``rates.*.points`` counts solver work only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


def _rows(args, result) -> int:
    return int(np.atleast_2d(np.asarray(args[0])).shape[0])


def _matrices(args, result) -> int:
    a = np.asarray(args[0])
    return 1 if a.ndim == 2 else int(a.shape[0])


def _points(args, result) -> int:
    value = result[0] if isinstance(result, tuple) else result
    return int(np.size(value))


ORACLES = ("solver.brute_force_sd", "solver.brute_force_jd")
BASELINES = ("rates.no_leasing_secrecy", "rates.peaceful_rate")
SCORING = (
    "rates.sd_secrecy_from_gains",
    "rates.jd_secrecy_from_gains",
    "rates.secondary_rate_from_gain",
)

# Traced functions and the name of the work count each one records.
TARGETS = {
    "model.sample_channels": None,
    "solver.unit_sweeps": None,
    "solver.solve_cell": None,
    "solver.solve_sd": None,
    "solver.solve_jd": None,
    "solver.brute_force_sd": "points",
    "solver.brute_force_jd": "points",
    "pgr.boundary_sweep": "rows",
    "numerics.jacobi_eigh": "matrices",
    "rates.sd_secrecy_from_gains": "points",
    "rates.jd_secrecy_from_gains": "points",
    "rates.secondary_rate_from_gain": "points",
    "rates.no_leasing_secrecy": None,
    "rates.peaceful_rate": None,
    "harness.run_sweep": None,
    "cli.emit_csv": None,
}
_COUNTERS = {"rows": _rows, "matrices": _matrices, "points": _points}

# Spans in which a scoring call is folded into the caller instead of
# opening its own span.
_ABSORBING = frozenset(ORACLES + BASELINES + SCORING)


class Tracer:
    """Collects spans from the installed wrappers; one per traced run."""

    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []  # (name, pid, id, parent, start, end, self_s, count)
        self._stack: list[list] = []  # open spans: [name, id, start, child_s, count]
        self._next_id = 0
        self._in_child = False
        self._spill_dir = spill_dir
        self._installed: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for name in TARGETS:
            mod_name, fn_name = name.split(".")
            originals[name] = getattr(importlib.import_module(f"leasesec.{mod_name}"), fn_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "leasesec" or name.startswith("leasesec.")]
        for name, count in TARGETS.items():
            original = originals[name]
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, count):
        tracer = self
        scoring = name in SCORING
        counter = _COUNTERS.get(count)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if scoring and stack and stack[-1][0] in _ABSORBING:
                result = fn(*args, **kwargs)
                if stack[-1][0] in ORACLES:
                    stack[-1][4] += _points(args, result)
                return result
            frame = [name, tracer._next_id, time.perf_counter(), 0.0, 0]
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    frame[4] += counter(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((name, os.getpid(), frame[1], parent, frame[2],
                                     end, duration - frame[3], frame[4]))
                if tracer._in_child and not stack:
                    tracer._spill()

        return wrapper

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        self._in_child = True

    def _spill(self) -> None:
        path = self._spill_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def merge_workers(self) -> None:
        """Move the spans that worker processes spilled into this tracer."""
        for path in sorted(self._spill_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    self.spans.extend(tuple(s) for s in json.loads(line))
            path.unlink()

    # ------------------------------------------------------------ results

    def totals(self) -> dict:
        """name -> {"calls", "self_s", "count"} over every recorded span."""
        out = {name: {"calls": 0, "self_s": 0.0, "count": 0} for name in TARGETS}
        for name, _pid, _id, _parent, _start, _end, self_s, count in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["count"] += count
        return out

    def dump(self, path: Path, meta: dict) -> None:
        names = list(TARGETS)
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta)
        doc["fields"] = ["name", "pid", "id", "parent", "start", "end", "self_s", "count"]
        doc["names"] = names
        doc["spans"] = [[index[s[0]], *s[1:]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
