"""The package imports on numpy alone: no sympy, scipy or mpmath at run time,
and no lookup table is built at import.

Also checks that the names the benchmark harness looks up still resolve,
and runs its tracer (perfbench/spans.py) on this tree.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinfp
from conftest import child_env

HEAVY = ("sympy", "scipy", "mpmath")


def _run(script: str) -> str:
    """stdout of ``script`` in a fresh interpreter that imports this source tree."""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True,
        check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["spinfp", "spinfp.scenarios.cli"])
def test_import_loads_no_heavy_dependency(module):
    script = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    )
    assert _run(script) == "[]"


def test_import_spinfp_loads_no_submodule():
    # the package re-exports nothing: each name is imported from the module
    # that defines it, so the package alone loads neither numpy nor a submodule
    script = (
        "import sys, spinfp\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
        " or m.startswith('spinfp.')))"
    )
    assert _run(script) == "[]"


def test_cli_loads_only_what_a_sweep_runs():
    # verify, the solver only it calls, and units load with the command that
    # runs them; the oracle stays, as symmetry_report's source
    script = (
        "import sys, spinfp.scenarios.cli\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'spinfp')))"
    )
    assert _run(script).split() == [
        "spinfp", "spinfp.closed_form", "spinfp.errors", "spinfp.observables",
        "spinfp.scenarios", "spinfp.scenarios._format", "spinfp.scenarios.cli",
        "spinfp.scenarios.config", "spinfp.scenarios.states", "spinfp.scenarios.sweeps",
        "spinfp.spin_algebra", "spinfp.transfer_oracle",
    ]


def test_verify_and_figure_sweeps_load_no_heavy_dependency():
    # a heavy module imported inside a criterion or a sweep would pass the
    # import-time check above
    script = (
        "import io, sys, tempfile\n"
        "from pathlib import Path\n"
        "from spinfp.scenarios.config import build_config\n"
        "from spinfp.scenarios.sweeps import run_sweep, write_csv\n"
        "from spinfp.scenarios.verify import run_verification\n"
        "assert run_verification(io.StringIO()) == 0\n"
        "with tempfile.TemporaryDirectory() as directory:\n"
        "    for name in ('fig3b', 'fig4', 'fig7'):\n"
        "        result = run_sweep(build_config({'scenario': name}))\n"
        "        write_csv(result, Path(directory) / 'f.csv')\n"
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
    assert sweeps.amplitudes is observables.amplitudes is kernel
    assert verify.amplitudes is kernel and not hasattr(spinfp, "solver_amplitudes")


def test_production_never_builds_the_diagonalised_basis(monkeypatch, tmp_path):
    # only the kernel knows the sector structure, through the exact sector
    # operators: every bound coupled_basis and both basis changes raise here
    from spinfp.closed_form import DimensionlessParams
    from spinfp.observables import fixed_point_subspace, scatter
    from spinfp.scenarios.config import build_config
    from spinfp.scenarios.sweeps import run_sweep, write_csv
    from spinfp.spin_algebra import CoupledBasis, compose_state

    def forbidden(*args, **kwargs):
        raise AssertionError("production touched the diagonalised coupled basis")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spinfp" and hasattr(module, "coupled_basis"):
            monkeypatch.setattr(module, "coupled_basis", forbidden)
    monkeypatch.setattr(CoupledBasis, "to_coupled", forbidden)
    monkeypatch.setattr(CoupledBasis, "to_product", forbidden)
    result = run_sweep(build_config({"scenario": "fig3b"}))
    assert write_csv(result, tmp_path / "f.csv").stat().st_size
    state = scatter(compose_state([1, 0], [0, 1, -1, 0]), DimensionlessParams(2.0, 3.0))
    assert 0.0 < state.transmittivity < 1.0
    assert fixed_point_subspace(DimensionlessParams(2.0, 3.0))[0] == 0


def test_benchmark_tracer_runs_on_this_tree(tmp_path, capsys):
    # the harness's tracer with its child's hooks: a small fig7 sweep through
    # the CLI and one acceptance criterion must each leave spans behind
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from spinfp.scenarios import cli, verify

    tracer = spans.Tracer()

    def count_rows(result):
        tracer.counters["scenarios.sweeps.rows"] += len(result.rows)

    def count_bytes(path):
        tracer.counters["scenarios.sweeps.bytes_written"] += os.path.getsize(path)

    config, output = tmp_path / "fig7.cfg", tmp_path / "fig7.csv"
    config.write_text(f"scenario = fig7\nu_steps = 7\noutput = {output}\n", encoding="utf-8")
    criteria = verify._CRITERIA
    tracer.install({"scenarios.sweeps.run_sweep": count_rows,
                    "scenarios.sweeps.write_csv": count_bytes})
    try:
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert verify._CRITERIA[2]().passed  # singlet transparency
    finally:
        tracer.uninstall()
    assert verify._CRITERIA is criteria
    assert capsys.readouterr().out.startswith("wrote 7 rows to ")
    assert tracer.counters["scenarios.sweeps.rows"] == 7
    assert tracer.counters["scenarios.sweeps.bytes_written"] == output.stat().st_size
    layers, names = tracer.totals()
    for layer in ("closed_form", "observables", "scenarios.sweeps", "scenarios.verify"):
        assert layers[layer]["calls"] > 0, layer
    assert names["scenarios.sweeps.write_csv"]["calls"] == 1
    assert names["scenarios.verify.criterion_singlet_transparency"]["calls"] == 1
