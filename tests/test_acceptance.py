"""Acceptance suite: every verification criterion at its stated tolerance.

Each test prints the measured one-line report, so ``pytest -s`` (or the
``spinfp verify`` command, which runs the same checks) shows the numbers.
"""

import subprocess
import sys

import pytest

from conftest import child_env
from spinfp.scenarios import verify
from spinfp.scenarios.verify import verify_figures


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in verify_figures()}


def _check(results, number):
    result = results[number]
    print(result.line())
    assert result.passed, result.details


def test_all_criteria_present(results):
    assert sorted(results) == list(range(1, 10))


def test_criterion_1_triple_pipeline_agreement(results):
    _check(results, 1)


def test_criterion_2_flux_conservation(results):
    _check(results, 2)


def test_criterion_3_singlet_transparency(results):
    _check(results, 3)


def test_criterion_4_transparent_subspace_uniqueness(results):
    _check(results, 4)


def test_criterion_5_conservation_laws(results):
    _check(results, 5)


def test_criterion_6_recoupling_values(results):
    _check(results, 6)


def test_criterion_7_entanglement_generation(results):
    _check(results, 7)


def test_criterion_8_figure_claims(results):
    _check(results, 8)


def test_criterion_9_units_sanity(results):
    _check(results, 9)


def test_verify_twice_in_child_processes_prints_the_same_bytes(tmp_path):
    """Two ``spinfp verify`` processes, with numpy's RuntimeWarnings as errors,
    each exit 0 and print the same report byte for byte: seeded draws and
    fixed sweeps give the same numbers in every process."""
    children = [subprocess.Popen(
        [sys.executable, "-m", "spinfp.scenarios.cli", "verify"], cwd=tmp_path, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    runs = [(*child.communicate(), child.returncode) for child in children]
    for out, err, code in runs:
        assert (code, err) == (0, b""), err.decode()
        assert out.endswith(b"\n9/9 criteria passed\n")
    assert runs[0][0] == runs[1][0]
    assert list(tmp_path.iterdir()) == []  # verify writes no file
