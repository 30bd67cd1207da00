"""The package imports on numpy alone: no sympy, scipy or mpmath at run time.

Also checks that the names the benchmark harness looks up still resolve.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinfp

HEAVY = ("sympy", "scipy", "mpmath")


@pytest.mark.parametrize("module", ["spinfp", "spinfp.scenarios.cli"])
def test_import_loads_no_heavy_dependency(module):
    env = dict(os.environ)
    source = str(Path(spinfp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    script = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# names the benchmark harness (perfbench/) looks up; a deletion that breaks
# one of them breaks the benchmark without failing anything else
BENCHMARK_NAMES = [
    ("spinfp.scenarios.cli", "main"),
    ("spinfp.scenarios.verify", "run_verification"),
    ("spinfp.scenarios.verify", "_CRITERIA"),
    ("spinfp.scenarios.verify", "run_sweep"),
    ("spinfp.scenarios.sweeps", "run_sweep"),
    ("spinfp.scenarios.sweeps", "render_csv"),
    ("spinfp.scenarios.sweeps", "write_csv"),
    ("spinfp.spin_algebra", "CoupledBasis.to_coupled"),
    ("spinfp.spin_algebra", "CoupledBasis.to_product"),
    ("spinfp.transfer_oracle", "oracle_scattering"),
    ("spinfp.transfer_oracle", "two_impurity_chain"),
    ("spinfp.closed_form", "DimensionlessParams"),
]


@pytest.mark.parametrize("module,name", BENCHMARK_NAMES)
def test_benchmark_names_resolve(module, name):
    obj = importlib.import_module(module)
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj) or isinstance(obj, tuple)


def test_verify_binds_run_sweep_at_module_level():
    from spinfp.scenarios import sweeps, verify

    assert verify.run_sweep is sweeps.run_sweep
    assert all(callable(criterion) for criterion in verify._CRITERIA)
    assert "stream" in inspect.signature(verify.run_verification).parameters
