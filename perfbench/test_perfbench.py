"""Tests of the benchmark itself.  Run from the repository root:

  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SOURCE))
import checks  # noqa: E402  (needs spinfp from src/)

VALID = {
    "name": "valid", "kind": "theta", "electron": "u", "impurity": "psi-",
    "u_values": [2.0], "rows": 5,
    "config": "sweep = theta\ntheta_steps = 5\nu_list = 2.0\n"
              "electron_spin = u\nimpurity_state = psi-\n",
}
INVALID = {"name": "invalid", "kind": "theta", "rows": 5, "config": "theta_steps = -1\n"}


def test_seeded_inputs_repeat_and_keep_their_size():
    assert workloads.generate("sweep_theta", 3) == workloads.generate("sweep_theta", 3)
    assert workloads.generate("sweep_theta", 3) != workloads.generate("sweep_theta", 4)
    for name in ("sweep_theta", "sweep_family"):
        sizes = {sum(op["rows"] for op in workloads.generate(name, seed)) for seed in range(5)}
        assert len(sizes) == 1


def test_invalid_config_counts_as_failure_without_stopping_the_run():
    result, lines = run.run_workload("custom", seed=0, seconds=0, trace=False,
                                     ops=[INVALID, VALID])
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert any(line.startswith("# FAILED invalid: exit 1") for line in lines)
    assert any(line.startswith("# sha256 valid ") for line in lines)


def test_checker_rejects_a_wrong_transmission(tmp_path):
    from spinfp.scenarios.cli import main

    output = tmp_path / "valid.csv"
    config = tmp_path / "valid.cfg"
    config.write_text(VALID["config"] + f"output = {output}\n")
    assert main(["sweep", "--config", str(config)]) == 0
    assert checks.check_sweep(VALID, str(output), seed=0) == []

    lines = output.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)  # T
    lines[-1] = ",".join(fields)
    output.write_text("\n".join(lines) + "\n")
    problems = checks.check_sweep(VALID, str(output), seed=0)
    assert any("T_up + T_down - T" in p for p in problems)
    assert any("T + R - 1" in p for p in problems)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "b.inner", "b")

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap(body, "a.outer", "a")()
    layers, names = tracer.totals()
    assert (layers["a"]["calls"], layers["b"]["calls"]) == (1, 2)
    assert layers["a"]["self_s"] == pytest.approx(
        names["a.outer"]["total_s"] - names["b.inner"]["total_s"], abs=1e-12)
    assert layers["a"]["self_s"] >= 0.01 and layers["b"]["self_s"] >= 0.02


def test_install_patches_every_reference_and_restores_them():
    from spinfp.closed_form import DimensionlessParams
    from spinfp import observables
    from spinfp.scenarios import sweeps, verify
    from spinfp.spin_algebra import compose_state

    solver, criteria = observables.scattering_matrices, verify._CRITERIA
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert observables.scattering_matrices is not solver
        assert sweeps.scatter is observables.scatter
        assert verify._CRITERIA is not criteria
        sweeps.scatter(compose_state([1, 0], [0, 1, 0, 0]), DimensionlessParams(1.0, 2.0))
    finally:
        tracer.uninstall()
    assert observables.scattering_matrices is solver and verify._CRITERIA is criteria
    layers, _ = tracer.totals()
    assert layers["observables"]["calls"] == layers["waveguide_solver"]["calls"] == 1
    assert tracer.counters["waveguide_solver.linalg_solves"] == 3


def test_import_time_is_charged_to_the_package_that_caused_it():
    def line(own, level, name):
        return f"import time: {own:9d} | {own:10d} | {'  ' * level}{name}"

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        line(100, 2, "numpy.core"),
        line(50, 1, "numpy"),
        line(30, 2, "numpy.f2py"),  # pulled in by scipy
        line(20, 1, "scipy.constants"),
        line(10, 0, "spinfp"),
        line(7, 0, "site"),
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"numpy": 150e-6, "scipy": 50e-6, "sympy": 0.0, "spinfp": 10e-6})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""


def test_pass_seconds_rescales_each_repeat_and_takes_the_median():
    ref = run.REFERENCE_S

    def op(seconds, before, after, parts=()):
        return {"seconds": seconds, "probe_before": before, "probe_after": after,
                "parts": [list(part) for part in parts]}

    # a config timed at reference speed, at half speed, and with a slow probe
    passes = [{"ops": [op(1.0, ref, ref)]}, {"ops": [op(2.0, 2 * ref, 2 * ref)]},
              {"ops": [op(1.2, ref, ref)]}]
    assert run.pass_seconds(passes) == pytest.approx(1.0)
    assert run.pass_seconds(passes, calibrated=False) == pytest.approx(1.2)
    # verify: a criterion [seconds, probe after, probing] and the rest of the op
    nested = [{"ops": [op(3.5, ref, ref, parts=[(3.0, ref, 0.25)])]}]
    assert run.pass_seconds(nested) == pytest.approx(3.25)
