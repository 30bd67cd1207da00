"""Every stacked invariant fails closed: a nan is a located ``NumericError``.

The five invariants (the kernel's flux, the solver's residual, the row
builder's [0, 1] and T + R = 1 checks, the oracle's unitarity) all compare
through ``errors.check``; each case drives a nan into one of them and reads
the point and the bound back from the message.  The solver's singular-system
path has no bound, but it too names the point of a nan, without a warning.
"""

import math

import numpy as np
import pytest

from spinfp import observables
from spinfp.closed_form import DimensionlessParams, amplitudes
from spinfp.errors import NumericError, check
from spinfp.observables import scatter, symmetry_report
from spinfp.scenarios import sweeps
from spinfp.scenarios.config import build_config
from spinfp.scenarios.sweeps import run_sweep
from spinfp.spin_algebra import compose_state
from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain
from spinfp.waveguide_solver import _solve, _system, quartet_site_strengths


def _solve_with_a_nan_row(row):
    """The quartet solve at u = (1, 2), theta = (1, 1.5), one row of point 1 nan."""
    u, theta = np.array([1.0, 2.0]), np.array([1.0, 1.5])
    w1, w2 = quartet_site_strengths()
    matrix, rhs = _system(np.exp(-2j * theta), math.pi * u, np.array([[w1]]),
                          np.array([[w2]]))
    matrix[1, row] = np.nan
    _solve(matrix, rhs, u, theta, "quartet")


def _row_with(monkeypatch, part):
    """scatter at (2.0, 1.5) with a nan written into the kernel's t or r."""
    def poisoned(u, theta):
        t, r = amplitudes(u, theta)
        (t if part == "t" else r)[:] = np.nan
        return t, r

    monkeypatch.setattr(observables, "amplitudes", poisoned)
    scatter(compose_state([1, 0], [0, 1, 0, 0]), DimensionlessParams(2.0, 1.5))


def _family_sweep_with_a_nan_at_u2(monkeypatch):
    """A family sweep at u = 1, 2 with a nan written into t at u = 2."""
    def poisoned(u, theta, columns=slice(None)):
        t, r = amplitudes(u, theta, columns)
        t[np.asarray(u) == 2.0] = np.nan
        return t, r

    monkeypatch.setattr(sweeps, "amplitudes", poisoned)
    run_sweep(build_config({"scenario": "fig5", "vartheta_steps": "3", "phi_steps": "2",
                            "u_list": "1,2"})).rows  # the table is computed when it is read


BEYOND_THE_PHASE = DimensionlessParams(1.0, 1e308)  # 2 k x overflows in the oracle

CASES = {
    "flux": (lambda mp: amplitudes([1.0, 1e100], [1.0, 1.0]),
             ["doublet sector (incident channel 0) at u = 1e+100, theta = 1.0", "1e-09"]),
    "residual": (lambda mp: _solve_with_a_nan_row(3),  # the derivative jump at x0
                 ["quartet sector at u = 2.0, theta = 1.5", "nan > 1e-08"]),
    "rows": (lambda mp: _row_with(mp, "t"),
             ["T = nan outside [0, 1] by more than 1e-12 at u = 2.0, theta = 1.5"]),
    "balance": (lambda mp: _row_with(mp, "r"),
                ["T + R = nan differs from 1 by more than 1e-10 at u = 2.0, theta = 1.5"]),
    "family_rows": (_family_sweep_with_a_nan_at_u2,
                    [f"T = nan outside [0, 1] by more than 1e-12 at u = 2.0, "
                     f"theta = {math.pi!r}"]),
    "oracle": (lambda mp: oracle_scattering(two_impurity_chain(BEYOND_THE_PHASE)),
               ["wave number 1e+308: defect nan > 1e-10"]),
    "symmetry_report": (lambda mp: symmetry_report(BEYOND_THE_PHASE),
                        ["wave number 1e+308: defect nan > 1e-10"]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_nan_fails_every_check_at_its_point(case, monkeypatch):
    run, expected = CASES[case]
    with pytest.raises(NumericError) as info:
        run(monkeypatch)
    message = str(info.value)
    assert "nan" in message and "np.float64" not in message
    for part in expected:
        assert part in message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_in_a_singular_system_is_located_without_a_warning():
    # a nan first row makes np.linalg.solve report a singular system; locating
    # the point takes a determinant, which must not warn on the nan
    with pytest.raises(NumericError, match=r"^singular linear system in the "
                       r"quartet sector at u = 2\.0, theta = 1\.5$"):
        _solve_with_a_nan_row(0)


def test_check_names_the_first_failing_index_in_c_order():
    excess = np.array([[0.0, 2.0, np.nan], [3.0, 0.0, 0.0]])
    with pytest.raises(NumericError, match=r"^\(0, 1\)$"):
        check(excess, 1.0, lambda i: str(tuple(int(k) for k in i)))
    check(np.zeros((2, 3)), 1.0, lambda i: pytest.fail("message built on success"))
    with pytest.raises(NumericError, match=r"^one point: \(\)$"):
        check(math.nan, 1.0, lambda i: f"one point: {i}")
