"""Physics-facing quantities: transmittivity, post-selection, symmetries.

Everything here is driven by the waveguide solver's coupled-basis scattering
matrices; the transfer-matrix oracle is used only for the symmetry report,
which needs both incidence directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import DimensionlessParams
from .errors import DomainError, NumericError
from .spin_algebra import SpinVector, coupled_basis, spin_operators
from .transfer_oracle import oracle_scattering, two_impurity_chain
from .waveguide_solver import amplitudes

_BALANCE_TOL = 1e-10
_ELECTRON_SLICES = {"up": slice(0, 4), "down": slice(4, 8)}
FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class ScatteredState:
    """Transmitted and reflected amplitudes for one incident spin state."""

    incident: SpinVector
    params: DimensionlessParams
    transmitted_coupled: np.ndarray
    transmitted_product: np.ndarray
    reflected_coupled: np.ndarray
    reflected_product: np.ndarray
    transmittivity: float
    reflectivity: float

    def __post_init__(self):
        if abs(self.transmittivity + self.reflectivity - 1.0) > _BALANCE_TOL:
            raise NumericError(
                f"T + R = {self.transmittivity + self.reflectivity!r} differs from 1 "
                f"by more than {_BALANCE_TOL!r} at u = {self.params.u!r}, "
                f"theta = {self.params.theta!r}"
            )

    @property
    def transmitted_up(self) -> float:
        """Transmission probability with the outgoing electron spin up."""
        amps = self.transmitted_product[_ELECTRON_SLICES["up"]]
        return float(np.real(np.vdot(amps, amps)))

    @property
    def transmitted_down(self) -> float:
        amps = self.transmitted_product[_ELECTRON_SLICES["down"]]
        return float(np.real(np.vdot(amps, amps)))


def _electron_slice(outcome: str) -> slice:
    try:
        return _ELECTRON_SLICES[outcome]
    except KeyError:
        raise DomainError(
            f"electron outcome must be 'up' or 'down', got {outcome!r}"
        ) from None


def scatter(chi: SpinVector, p: DimensionlessParams) -> ScatteredState:
    """Scatter a normalized incident spin state off the two-impurity wire."""
    if not chi.normalized:
        raise DomainError("incident state must be normalized")
    basis = coupled_basis()
    coeffs = basis.to_coupled(chi)
    t_mat, r_mat = amplitudes([p.u], [p.theta])
    gamma = t_mat[0] @ coeffs
    rho = r_mat[0] @ coeffs
    transmittivity = float(np.real(np.vdot(gamma, gamma)))
    reflectivity = float(np.real(np.vdot(rho, rho)))
    return ScatteredState(
        incident=chi,
        params=p,
        transmitted_coupled=gamma,
        transmitted_product=basis.to_product(gamma),
        reflected_coupled=rho,
        reflected_product=basis.to_product(rho),
        transmittivity=transmittivity,
        reflectivity=reflectivity,
    )


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

    def impurity_density(self) -> np.ndarray:
        if not self.has_support:
            raise DomainError("no support: conditional state undefined")
        return np.outer(self.impurity_state, self.impurity_state.conj())


def postselect(state: ScatteredState, outcome: str) -> PostSelectionResult:
    """Project the transmitted wave on an electron spin outcome."""
    amps = state.transmitted_product[_electron_slice(outcome)]
    probability = float(np.real(np.vdot(amps, amps)))
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
    """Two-qubit concurrence of a pure 4-vector or a 4x4 density matrix.

    Uses the standard spin-flip construction, which covers mixed states;
    for a pure state b|ud> + c|du> it reduces to 2|b||c| / (|b|^2 + |c|^2).
    """
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (4,):
        nrm2 = float(np.real(np.vdot(arr, arr)))
        if nrm2 <= 0:
            raise DomainError("zero state has no concurrence")
        flipped = _SPIN_FLIP @ arr.conj()
        return abs(complex(np.vdot(arr, flipped))) / nrm2
    if arr.shape == (4, 4):
        # singular values of sqrt(rho) Y conj(sqrt(rho)) equal the usual
        # square-rooted eigenvalues of rho rho~ but stay accurate for
        # near-pure states (no non-normal eigenproblem involved)
        w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        lams = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
        return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))
    raise DomainError(f"expected a 4-vector or 4x4 matrix, got shape {arr.shape}")


def fixed_point_subspace(p: DimensionlessParams) -> tuple[int, np.ndarray]:
    """Eigenvalue-1 subspace of the product-basis transmission matrix.

    Detected through singular values of (T - I) below ``FIXED_POINT_TOL``.
    Returns the dimension and an 8 x dim array of orthonormal spanning
    vectors.
    """
    basis = coupled_basis()
    t_mat, _ = amplitudes([p.u], [p.theta])
    t_prod = basis.matrix @ t_mat[0] @ basis.matrix.conj().T
    _, svals, vh = np.linalg.svd(t_prod - np.eye(8))
    hits = svals < FIXED_POINT_TOL
    vectors = vh.conj().T[:, hits]
    return int(np.count_nonzero(hits)), vectors


@dataclass(frozen=True)
class SymmetryReport:
    """Frobenius norms of the commutators of the full scattering matrix."""

    total_spin_sq: float
    total_sz: float
    pair_spin_sq: float
    electron_imp2_sq: float


def symmetry_report(p: DimensionlessParams) -> SymmetryReport:
    """Commutator norms of the 16x16 scattering matrix with spin observables.

    Total spin squared and its z component commute for every parameter
    choice; the squared impurity pair spin commutes exactly when theta is a
    multiple of pi; the electron+impurity-2 pair spin generically does not.
    """
    s = oracle_scattering(two_impurity_chain(p)).s_matrix()
    ops = spin_operators()

    def norm(op: np.ndarray) -> float:
        o16 = np.kron(np.eye(2), op)
        return float(np.linalg.norm(s @ o16 - o16 @ s))

    return SymmetryReport(
        total_spin_sq=norm(ops.total_spin_sq),
        total_sz=norm(ops.total_sz),
        pair_spin_sq=norm(ops.pair_spin_sq),
        electron_imp2_sq=norm(ops.electron_imp2_sq),
    )
