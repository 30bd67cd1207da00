"""The package imports on numpy alone: no sympy, scipy or mpmath at run time,
and no lookup table is built at import.

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


def _run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter that imports this source tree."""
    env = dict(os.environ)
    source = str(Path(spinfp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["spinfp", "spinfp.scenarios.cli"])
def test_import_loads_no_heavy_dependency(module):
    script = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    )
    assert _run(script) == "[]"


def test_verify_and_figure_sweeps_load_no_heavy_dependency():
    # a heavy module imported inside a criterion or a sweep would pass the
    # import-time check above
    script = (
        "import io, sys\n"
        "from spinfp.scenarios.config import build_config\n"
        "from spinfp.scenarios.sweeps import render_csv, run_sweep\n"
        "from spinfp.scenarios.verify import run_verification\n"
        "assert run_verification(io.StringIO()) == 0\n"
        "for name in ('fig3b', 'fig4', 'fig7'):\n"
        "    render_csv(run_sweep(build_config({'scenario': name})))\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    )
    assert _run(script) == "[]"


def test_import_builds_no_format_table():
    # the formatter's 10^k, digit, last-digit and exponent tables cost set-up
    # time; they are built for the first rendered CSV, not at import
    script = (
        "import spinfp.scenarios.cli\n"
        "from spinfp.scenarios import _format as fmt\n"
        "tables = (fmt._powers, fmt._quads, fmt._ends, fmt._notations)\n"
        "print([t.cache_info().currsize for t in tables])"
    )
    assert _run(script) == "[0, 0, 0, 0]"


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


def test_benchmark_oracle_call_returns_8x8_blocks():
    # perfbench/checks.py multiplies the transmission block by one 8-vector
    from spinfp.closed_form import DimensionlessParams
    from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain

    p = DimensionlessParams(1.3, 2.1)
    assert oracle_scattering(two_impurity_chain(p)).transmission.shape == (8, 8)


def test_verify_binds_run_sweep_at_module_level():
    from spinfp.scenarios import sweeps, verify

    assert verify.run_sweep is sweeps.run_sweep
    assert all(callable(criterion) for criterion in verify._CRITERIA)
    assert "stream" in inspect.signature(verify.run_verification).parameters


def test_production_binds_the_closed_form_kernel():
    # one production path: the solver is evidence, called by verify and tests
    from spinfp import closed_form, observables
    from spinfp.scenarios import sweeps, verify

    kernel = closed_form.amplitudes
    assert sweeps.amplitudes is observables.amplitudes is spinfp.amplitudes is kernel
    assert verify.amplitudes is kernel and not hasattr(spinfp, "solver_amplitudes")
