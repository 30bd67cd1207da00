"""Physics-facing quantities: transmittivity, post-selection, symmetries.

``observable_table`` alone turns the closed-form kernel's product-basis
scattering matrices and product-basis incident states into observables;
sweeps, ``scatter`` and the acceptance harness all read it, one call per
stack of rows.  Sweeps hand it only the columns of t and r, and the entries
of the states, where some state is nonzero: the dropped terms are exact
zeros, so the rows keep the bits of the full product.
``OBSERVABLE_COLUMNS`` names its columns in the order it writes them, so the
sweep tables take their names from here.  tχ and rχ are ``np.einsum`` products; ``np.matmul`` would take
the bits of whichever BLAS kernel the CPU picks.  A config's states have at
most two nonzero amplitudes per S_z sector, so every order sums them alike.
The star-product oracle serves only the symmetry report, which needs both
incidence directions and takes a stack of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import DimensionlessParams, amplitudes
from .errors import DomainError, check
from .spin_algebra import SpinVector, spin_operators
from .transfer_oracle import oracle_scattering, two_impurity_chain

_PROB_TOL = 1e-12
_BALANCE_TOL = 1e-10
_ELECTRON_SLICES = {"up": slice(0, 4), "down": slice(4, 8)}
FIXED_POINT_TOL = 1e-8

_KETS = ("uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd")  # product-basis order
OBSERVABLE_COLUMNS = (
    "T", "T_up", "T_down",
    *(f"{part}_t_{ket}" for ket in _KETS for part in ("re", "im")),
    "R",
)
COLUMN_OF = {name: i for i, name in enumerate(OBSERVABLE_COLUMNS)}
# the transmitted product-basis state, (re, im) per ket; a row's slice views as complex
AMPLITUDE_COLUMNS = slice(COLUMN_OF["re_t_uuu"], COLUMN_OF["im_t_ddd"] + 1)


def _point(u, theta, rows: np.ndarray, i) -> str:
    """Names the (u, theta) point of row i, u and theta broadcast over the rows."""
    u_i, theta_i = np.broadcast_arrays(u, theta, rows)[:2]
    return f"u = {float(u_i[i])!r}, theta = {float(theta_i[i])!r}"


def observable_table(t, r, chi, u, theta) -> np.ndarray:
    """The ``OBSERVABLE_COLUMNS`` of each row, as an array (..., columns).

    T, T_up and T_down come first, then the 16 amplitude columns (the real
    and imaginary parts of the transmitted state) and R.  ``t`` and ``r``
    are the kernel's matrices (..., 8, m), all eight rows and m of the
    eight columns, and ``chi`` incident states (..., m), the same m
    product-basis entries; m = 8 is the full product, and fewer columns give
    its bits when every dropped entry of ``chi`` is +-0.  ``chi`` is made
    C-contiguous first: a strided one can change the order of the sums over
    the outgoing kets, and with it the last digits.  Any leading axes
    broadcast, so (P, 1, 8, m) matrices and (S, m) states give (P, S) rows,
    each with the bits of its own call.  T, T_up and T_down
    must lie in [0, 1] and T + R must equal 1; a failure names its
    (u, theta) point, ``u`` and ``theta`` broadcast to the rows.
    """
    chi = np.ascontiguousarray(chi)
    gamma = np.einsum("...ij,...j->...i", t, chi)
    rho = np.einsum("...ij,...j->...i", r, chi)
    weights = gamma.real ** 2 + gamma.imag ** 2
    t_total = np.sum(weights, axis=-1)
    t_up = np.sum(weights[..., :4], axis=-1)
    t_down = np.sum(weights[..., 4:], axis=-1)
    reflected = np.sum(rho.real ** 2 + rho.imag ** 2, axis=-1)
    # sums of squares: only the upper edge of [0, 1] can fail, and nan fails it
    for name, value in (("T", t_total), ("T_up", t_up), ("T_down", t_down)):
        check(value, 1.0 + _PROB_TOL, lambda i: (
            f"{name} = {float(value[i])!r} outside [0, 1] by more than {_PROB_TOL!r} "
            f"at {_point(u, theta, t_total, i)}"))
    check(np.abs(t_total + reflected - 1.0), _BALANCE_TOL, lambda i: (
        f"T + R = {float(t_total[i] + reflected[i])!r} differs from 1 by more than "
        f"{_BALANCE_TOL!r} at {_point(u, theta, t_total, i)}"))
    return np.concatenate((t_total[..., None], t_up[..., None], t_down[..., None],
                           np.ascontiguousarray(gamma).view(np.float64),
                           reflected[..., None]), axis=-1)


@dataclass(frozen=True)
class ScatteredState:
    """One ``observable_table`` row: transmitted product-basis state, T, T_up, T_down, R."""

    incident: SpinVector
    params: DimensionlessParams
    transmitted_product: np.ndarray
    transmittivity: float
    transmitted_up: float
    transmitted_down: float
    reflectivity: float


def _electron_slice(outcome: str) -> slice:
    try:
        return _ELECTRON_SLICES[outcome]
    except KeyError:
        raise DomainError(
            f"electron outcome must be 'up' or 'down', got {outcome!r}"
        ) from None


def scatter(chi: SpinVector, p: DimensionlessParams) -> ScatteredState:
    """Scatter an incident spin state, a unit ``SpinVector``, off the two-impurity wire."""
    t, r = amplitudes([p.u], [p.theta])
    row = observable_table(t, r, chi.amplitudes[None, :], p.u, p.theta)[0]
    scalars = row[[COLUMN_OF[name] for name in ("T", "T_up", "T_down", "R")]].tolist()
    return ScatteredState(chi, p, row[AMPLITUDE_COLUMNS].view(complex), *scalars)


@dataclass(frozen=True)
class PostSelectionResult:
    """Impurity state conditioned on a measured transmitted electron spin.

    ``probability`` is per injected electron, i.e. it includes the
    transmission factor.  When the outcome has no support the conditional
    state is undefined and ``has_support`` is False.
    """

    outcome: str
    probability: float
    has_support: bool
    impurity_state: np.ndarray | None
    concurrence: float | None


def postselect(state: ScatteredState, outcome: str) -> PostSelectionResult:
    """Project the transmitted wave on an electron spin outcome."""
    amps = state.transmitted_product[_electron_slice(outcome)]
    probability = state.transmitted_up if outcome == "up" else state.transmitted_down
    if probability < 1e-14:
        return PostSelectionResult(outcome, probability, False, None, None)
    conditional = amps / np.sqrt(probability)
    return PostSelectionResult(
        outcome=outcome,
        probability=probability,
        has_support=True,
        impurity_state=conditional,
        concurrence=concurrence(conditional),
    )


_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)  # (sigma_y x sigma_y), real in this basis


def concurrence(state: np.ndarray) -> float:
    """Two-qubit concurrence |<psi| sigma_y x sigma_y |psi*>| / <psi|psi> of a pure
    4-vector; for b|ud> + c|du> it is 2|b||c| / (|b|^2 + |c|^2)."""
    arr = np.asarray(state, dtype=complex)
    if arr.shape != (4,):
        raise DomainError(f"expected a 4-vector, got shape {arr.shape}")
    nrm2 = float(np.real(np.vdot(arr, arr)))
    if nrm2 <= 0:
        raise DomainError("zero state has no concurrence")
    return abs(complex(np.vdot(arr, _SPIN_FLIP @ arr.conj()))) / nrm2


def fixed_point_subspace(
    p: DimensionlessParams,
) -> tuple[int, np.ndarray] | tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvalue-1 subspace of the product-basis transmission matrix.

    Detected through singular values of (T - I) below ``FIXED_POINT_TOL``.
    For one point, returns the dimension and an 8 x dim array of orthonormal
    spanning vectors.  For a 1-D stack, one kernel call and one stacked SVD
    give an int array of dimensions and a list of those arrays, one per
    point (the dimensions differ, so the list is ragged).
    """
    t_mat, _ = amplitudes(np.atleast_1d(p.u), np.atleast_1d(p.theta))
    _, svals, vh = np.linalg.svd(t_mat - np.eye(8))
    hits = svals < FIXED_POINT_TOL
    dims = np.count_nonzero(hits, axis=-1)
    vectors = [v.conj().T[:, hit] for v, hit in zip(vh, hits)]
    return (int(dims[0]), vectors[0]) if np.ndim(p.u) == 0 else (dims, vectors)


@dataclass(frozen=True)
class SymmetryReport:
    """Frobenius norms of the commutators of the full scattering matrix.

    Floats for one point, arrays of the stack's shape for a stack.
    """

    total_spin_sq: float | np.ndarray
    total_sz: float | np.ndarray
    pair_spin_sq: float | np.ndarray
    electron_imp2_sq: float | np.ndarray


def symmetry_report(p: DimensionlessParams) -> SymmetryReport:
    """Commutator norms of the 16x16 scattering matrix with spin observables.

    Total spin squared and its z component commute for every parameter
    choice; the squared impurity pair spin commutes exactly when theta is a
    multiple of pi; the electron+impurity-2 pair spin generically does not.
    ``p`` may hold a stack of points; the 16x16 operators are formed one at a
    time, so the stack's temporaries are (N, 16, 16), not (N, 4, 16, 16).
    """
    s = oracle_scattering(two_impurity_chain(p)).s_matrix()
    ops = spin_operators()
    norms = []
    for op in (ops.total_spin_sq, ops.total_sz, ops.pair_spin_sq, ops.electron_imp2_sq):
        o16 = np.kron(np.eye(2), op)  # the field's 16x16 operator
        norms.append(np.linalg.norm(s @ o16 - o16 @ s, axis=(-2, -1)))
    return SymmetryReport(*norms)
