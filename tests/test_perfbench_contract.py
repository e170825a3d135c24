"""The benchmark's tracer and self-test against the package as it is.

perfbench/tracer.py wraps the functions it names in TARGETS by looking them
up in leasesec; a renamed or removed function would break every traced
benchmark run, and only these tests would notice.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", sorted(load_tracer().TARGETS))
def test_traced_target_is_a_leasesec_callable(name):
    mod_name, fn_name = name.split(".")
    fn = getattr(importlib.import_module(f"leasesec.{mod_name}"), fn_name, None)
    assert callable(fn), f"perfbench traces {name}, which leasesec does not define"


def test_selftest_passes():
    res = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
