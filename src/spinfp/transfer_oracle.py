"""Brute-force transfer-matrix scattering solver in the full product basis.

This is the repo's ground truth: it never uses the coupled-basis block
structure, closed-form amplitudes or sector decompositions.  Each impurity
site contributes a matrix-valued delta potential; the associated 16x16
transfer matrix (8 spin channels x {right mover, left mover}) implements
continuity and the derivative jump

    Delta psi'(x_j) = k * strength_j * 2 (sigma . S_i) psi(x_j),

so a two-site chain with per-site strength g/2 carries the same exchange
coupling as the waveguide solver at g = pi u.  Arbitrary site counts,
positions and strengths are supported; agreement with the main pipeline on
the two-impurity case is therefore strong evidence against shared bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import DimensionlessParams
from .errors import DomainError, NumericError
from .spin_algebra import spin_operators

_UNITARITY_TOL = 1e-10
_DIM = 8


@dataclass(frozen=True)
class Impurity:
    """One contact scatterer: position, strength and which spin it couples."""

    position: float
    strength: float
    spin_index: int  # 1 or 2

    def __post_init__(self):
        if not math.isfinite(self.position):
            raise DomainError("impurity position must be finite")
        if not math.isfinite(self.strength) or self.strength < 0:
            raise DomainError("impurity strength must be finite and >= 0")
        if self.spin_index not in (1, 2):
            raise DomainError("spin_index must be 1 or 2")


@dataclass(frozen=True)
class ImpurityChain:
    """Ordered impurities along the wire plus the electron wave number."""

    sites: tuple[Impurity, ...]
    wave_number: float

    def __post_init__(self):
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        if not math.isfinite(self.wave_number) or self.wave_number <= 0:
            raise DomainError("wave number must be finite and > 0")
        positions = [s.position for s in sites]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DomainError("impurity positions must be strictly increasing")


def two_impurity_chain(p: DimensionlessParams) -> ImpurityChain:
    """The standard equal-coupling pair at x = 0 and x = 1 with k = theta."""
    half = p.g / 2.0
    return ImpurityChain(
        sites=(Impurity(0.0, half, 1), Impurity(1.0, half, 2)),
        wave_number=p.theta,
    )


@dataclass(frozen=True)
class FullScatteringMatrix:
    """8x8 product-basis scattering blocks for both incidence directions."""

    transmission: np.ndarray        # left incidence
    reflection: np.ndarray
    transmission_right: np.ndarray
    reflection_right: np.ndarray

    def __post_init__(self):
        s = self.s_matrix()
        defect = np.max(np.abs(s.conj().T @ s - np.eye(2 * _DIM)))
        if defect > _UNITARITY_TOL:
            raise NumericError(f"scattering matrix not unitary (defect {defect:.3e})")

    def s_matrix(self) -> np.ndarray:
        """Combined 16x16 unitary, ordered (left in, right in) x (left out, right out)."""
        return np.block(
            [
                [self.reflection, self.transmission_right],
                [self.transmission, self.reflection_right],
            ]
        )


def _site_potential(site: Impurity) -> np.ndarray:
    ops = spin_operators()
    dot = ops.electron_dot_imp1 if site.spin_index == 1 else ops.electron_dot_imp2
    return site.strength * 2.0 * dot


def oracle_scattering(chain: ImpurityChain) -> FullScatteringMatrix:
    """Compose per-site transfer matrices into the full scattering matrix."""
    k = chain.wave_number
    eye = np.eye(_DIM, dtype=complex)
    total = np.eye(2 * _DIM, dtype=complex)
    for site in chain.sites:
        v = _site_potential(site).astype(complex)
        local = np.block(
            [[eye - 0.5j * v, -0.5j * v], [0.5j * v, eye + 0.5j * v]]
        )
        phase = np.exp(1j * k * site.position)
        d = np.concatenate([np.full(_DIM, phase), np.full(_DIM, 1.0 / phase)])
        # conjugate by the plane-wave phases at the site position
        total = ((local * d[None, :]) / d[:, None]) @ total

    m11 = total[:_DIM, :_DIM]
    m12 = total[:_DIM, _DIM:]
    m21 = total[_DIM:, :_DIM]
    m22 = total[_DIM:, _DIM:]
    try:
        back = np.linalg.solve(m22, m21)
        t_right = np.linalg.inv(m22)
    except np.linalg.LinAlgError as exc:  # cannot happen for finite real input
        raise NumericError(f"non-invertible transfer block: {exc}") from exc
    return FullScatteringMatrix(
        transmission=m11 - m12 @ back,
        reflection=-back,
        transmission_right=t_right,
        reflection_right=m12 @ t_right,
    )
