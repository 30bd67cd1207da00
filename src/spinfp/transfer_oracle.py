"""Brute-force scattering solver in the full product basis.

This is the repo's ground truth: it never uses the coupled-basis block
structure, closed-form amplitudes or sector decompositions.  Each impurity
site is a matrix-valued delta potential V = strength * 2 (sigma . S_i) with
the derivative jump Delta psi'(x_j) = k V psi(x_j), so a two-site chain with
per-site strength g/2 carries the same exchange coupling as the waveguide
solver at g = pi u.  A site scatters with t = (I + iV/2)^{-1}, r = t - I and
the phases e^{+-2ikx} of its position; the Redheffer star product composes
the sites in order, resumming the reflections between them without the
growing entries of a transfer-matrix product.  Arbitrary site counts,
positions and strengths are supported, and array strengths and wave
numbers broadcast to one stack of chains.  Agreement with the main pipeline
on the two-impurity case is strong evidence against shared bugs.
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
    strength: float | np.ndarray
    spin_index: int  # 1 or 2

    def __post_init__(self):
        if not math.isfinite(self.position):
            raise DomainError("impurity position must be finite")
        if not np.all(np.isfinite(self.strength) & (np.asarray(self.strength) >= 0)):
            raise DomainError("impurity strength must be finite and >= 0")
        if self.spin_index not in (1, 2):
            raise DomainError("spin_index must be 1 or 2")


@dataclass(frozen=True)
class ImpurityChain:
    """Ordered impurities along the wire plus the electron wave number."""

    sites: tuple[Impurity, ...]
    wave_number: float | np.ndarray

    def __post_init__(self):
        sites = tuple(self.sites)
        object.__setattr__(self, "sites", sites)
        if not np.all(np.isfinite(self.wave_number) & (np.asarray(self.wave_number) > 0)):
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
    """8x8 product-basis scattering blocks for both incidence directions.

    Blocks may carry leading stack axes; unitarity is checked on every
    stacked point, and a failure names its ``wave_number``.
    """

    transmission: np.ndarray        # left incidence
    reflection: np.ndarray
    transmission_right: np.ndarray
    reflection_right: np.ndarray
    wave_number: float | np.ndarray | None = None

    def __post_init__(self):
        s = self.s_matrix()
        gram = s.conj().swapaxes(-1, -2) @ s
        defect = np.max(np.abs(gram - np.eye(2 * _DIM)), axis=(-2, -1))
        if np.any(defect > _UNITARITY_TOL):
            i = np.unravel_index(np.argmax(defect), defect.shape)
            k = np.broadcast_to(np.asarray(self.wave_number, dtype=float), defect.shape)[i]
            raise NumericError(
                f"scattering matrix not unitary at wave number {float(k)!r}: defect "
                f"{float(defect[i]):.3e} > {_UNITARITY_TOL!r}"
            )

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
    return np.multiply.outer(site.strength, 2.0 * dot)


def _star(a, b):
    """Redheffer star product of blocks (t, r, t', r'): ``a`` left of ``b``."""
    t_a, r_a, tr_a, rr_a = a
    t_b, r_b, tr_b, rr_b = b
    eye = np.eye(_DIM)
    through = np.linalg.solve(eye - rr_a @ r_b, t_a)   # (I - r'_a r_b)^-1 t_a
    back = np.linalg.solve(eye - r_b @ rr_a, tr_b)     # (I - r_b r'_a)^-1 t'_b
    return t_b @ through, r_a + tr_a @ r_b @ through, tr_a @ back, rr_b + t_b @ rr_a @ back


def oracle_scattering(chain: ImpurityChain) -> FullScatteringMatrix:
    """Compose the sites' scattering matrices into the full scattering matrix."""
    k = np.asarray(chain.wave_number, dtype=float)[..., None, None]
    eye = np.eye(_DIM, dtype=complex)
    free = np.broadcast_to(eye, k.shape[:-2] + eye.shape)  # the empty wire, per chain
    blocks = (free, 0 * free, free, 0 * free)
    for site in chain.sites:
        t = np.linalg.inv(eye + 0.5j * _site_potential(site))
        r = t - eye
        phase = np.exp(2j * k * site.position)  # reflections at x pick up e^{+-2ikx}
        blocks = _star(blocks, (t, r * phase, t, r / phase))
    return FullScatteringMatrix(*blocks, wave_number=chain.wave_number)
