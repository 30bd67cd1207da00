"""Closed-form transmission amplitudes for the double spin-exchange scatterer.

Everything depends on exactly two dimensionless numbers: the coupling
u = rho(E) J (density of states per unit length times the exchange constant,
the quantity figure sweeps are labeled with) and the phase theta = k x0
accumulated between the two impurity sites.  Internally the formulas use
g = pi * u = 2 m* J / (hbar^2 k), which makes the quartet-sector amplitude
coincide with the textbook Fabry-Perot composition of two static delta
barriers of strength J/4.

These closed forms are one of three independent derivations and are never
trusted alone: the waveguide_solver kernel re-derives the same amplitudes
from the boundary-value problem, the transfer_oracle from transfer-matrix
products, and verify and the test suite keep all three in 1e-10 agreement.
Production sweeps read the solver kernel; the closed forms serve as
evidence and for det(t - I).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class DimensionlessParams:
    """Coupling u = rho(E) J >= 0 and phase theta = k x0 > 0 (radians)."""

    u: float
    theta: float

    def __post_init__(self):
        u = float(self.u)
        theta = float(self.theta)
        if not math.isfinite(u) or u < 0:
            raise DomainError(f"coupling u must be finite and >= 0, got {u}")
        if not math.isfinite(theta) or theta <= 0:
            raise DomainError(f"phase theta must be finite and > 0, got {theta}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", theta)

    @property
    def g(self) -> float:
        """Internal coupling g = pi * u."""
        return math.pi * self.u


def t_quartet(p: DimensionlessParams) -> complex:
    """Transmission amplitude in the total-spin-3/2 (quartet) sector.

    In this sector neither impurity can flip, so the wire acts as a
    Fabry-Perot cavity with two static J/4 barriers.
    """
    g = p.g
    ring = cmath.exp(2j * p.theta) - 1.0
    den = 64.0 + g * (16.0j + ring * g)
    if abs(den) == 0.0:  # impossible for real inputs; guards the division
        raise DomainError("vanishing quartet denominator")
    return 64.0 / den


def _doublet_denominator(g: float, phase: complex) -> complex:
    ring = phase - 1.0
    return 4096.0 + g * (
        -2048.0j + ring * g * (-128.0 + 96.0j * g + 9.0 * ring * g * g)
    )


def t_doublet(p: DimensionlessParams) -> np.ndarray:
    """2x2 transmission matrix in the total-spin-1/2 (doublet) sector.

    Rows are the outgoing electron+impurity-2 pair spin s_e2, columns the
    incident one; both channels share a common denominator.  Independent of
    m, so one matrix serves both m = +-1/2 blocks.
    """
    g = p.g
    phase = cmath.exp(2j * p.theta)
    den = _doublet_denominator(g, phase)
    root3 = math.sqrt(3.0)
    mat = np.empty((2, 2), dtype=complex)
    for inc in (0, 1):
        keep = 1 - inc
        mat[0, inc] = (
            -64.0 * phase * g * g * (2.0 * keep + root3 * inc)
            + 64.0 * (g - 8.0j) * (2.0 * (4.0j + g) * keep + root3 * g * inc)
        ) / den
        mat[1, inc] = (
            64.0
            * (root3 * g * (-8.0j + 3.0 * (phase - 1.0) * g) * keep
               + 8.0 * inc * (8.0 - 3.0j * g))
            / den
        )
    return mat


def det_t_minus_identity(p: DimensionlessParams) -> complex:
    """det(t - I) for the doublet block; zero exactly when theta = n pi.

    A vanishing determinant is the existence condition for a spin state
    transmitted identically to itself (perfect transparency) at a phase
    that does not depend on the coupling.
    """
    return complex(np.linalg.det(t_doublet(p) - np.eye(2)))
