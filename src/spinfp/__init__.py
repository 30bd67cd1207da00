"""spinfp: exact spin-resolved electron transport through two magnetic impurities.

A 1D wire hosts two spin-1/2 impurities with contact exchange coupling.  The
package computes the exact stationary scattering states, channel amplitudes,
transmittivities for arbitrary incident spin states, conservation-law
diagnostics and the post-selected impurity entanglement, cross-validated by
an independent transfer-matrix oracle.
"""

from .closed_form import (
    DimensionlessParams,
    amplitudes,
    det_t_minus_identity,
    r_doublet,
    r_quartet,
    t_doublet,
    t_quartet,
)
from .errors import DomainError, NumericError
from .observables import (
    PostSelectionResult,
    ScatteredState,
    SymmetryReport,
    concurrence,
    fixed_point_subspace,
    postselect,
    scatter,
    symmetry_report,
)
from .spin_algebra import (
    COUPLED_LABELS,
    CoupledBasis,
    CoupledLabel,
    SpinOperatorSet,
    SpinVector,
    compose_state,
    coupled_basis,
    recoupling_matrix_elements,
    spin_operators,
    wigner_6j,
)
from .transfer_oracle import (
    FullScatteringMatrix,
    Impurity,
    ImpurityChain,
    oracle_scattering,
    two_impurity_chain,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionlessParams",
    "amplitudes",
    "det_t_minus_identity",
    "r_doublet",
    "r_quartet",
    "t_doublet",
    "t_quartet",
    "DomainError",
    "NumericError",
    "PostSelectionResult",
    "ScatteredState",
    "SymmetryReport",
    "concurrence",
    "fixed_point_subspace",
    "postselect",
    "scatter",
    "symmetry_report",
    "COUPLED_LABELS",
    "CoupledBasis",
    "CoupledLabel",
    "SpinOperatorSet",
    "SpinVector",
    "compose_state",
    "coupled_basis",
    "recoupling_matrix_elements",
    "spin_operators",
    "wigner_6j",
    "FullScatteringMatrix",
    "Impurity",
    "ImpurityChain",
    "oracle_scattering",
    "two_impurity_chain",
    "__version__",
]
