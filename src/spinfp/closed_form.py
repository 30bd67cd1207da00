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
from the boundary-value problem, the transfer_oracle from the star product
of per-site scattering matrices, and verify and the test suite keep all
three in 1e-10 agreement.  Production sweeps read the solver kernel; the
closed forms serve as evidence and for det(t - I).

Like the kernel, every function here takes a stack of points: the
parameters may hold arrays, and the amplitudes then carry their shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _validated(raw, valid, message: str) -> float | np.ndarray:
    """A Python float for one point, a read-only float64 array for a stack.

    ``valid`` tests the elements; a failure names the first bad one.
    """
    values = float(raw) if np.ndim(raw) == 0 else np.array(raw, dtype=float)
    ok = valid(values)
    if not np.all(ok):
        raise DomainError(f"{message}, got {float(np.asarray(values).flat[np.argmin(ok)])}")
    if isinstance(values, np.ndarray):
        values.flags.writeable = False
    return values


@dataclass(frozen=True)
class DimensionlessParams:
    """Coupling u = rho(E) J >= 0 and phase theta = k x0 > 0 (radians).

    One point holds two floats; a stack of points holds two float arrays of
    one shape, point i being (u[i], theta[i]).  Every element is validated.
    """

    u: float | np.ndarray
    theta: float | np.ndarray

    def __post_init__(self):
        u = _validated(self.u, lambda v: np.isfinite(v) & (v >= 0),
                       "coupling u must be finite and >= 0")
        theta = _validated(self.theta, lambda v: np.isfinite(v) & (v > 0),
                           "phase theta must be finite and > 0")
        if np.shape(u) != np.shape(theta):
            raise ValueError(
                f"u and theta must have one shape, got {np.shape(u)} and {np.shape(theta)}"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", theta)

    @property
    def g(self) -> float | np.ndarray:
        """Internal coupling g = pi * u."""
        return math.pi * self.u


def t_quartet(p: DimensionlessParams) -> complex | np.ndarray:
    """Transmission amplitude in the total-spin-3/2 (quartet) sector.

    In this sector neither impurity can flip, so the wire acts as a
    Fabry-Perot cavity with two static J/4 barriers.  The denominator does
    not vanish for real inputs.
    """
    g = p.g
    ring = np.exp(2j * p.theta) - 1.0
    return 64.0 / (64.0 + g * (16.0j + ring * g))


def t_doublet(p: DimensionlessParams) -> np.ndarray:
    """2x2 transmission matrices, shape (..., 2, 2), in the total-spin-1/2 (doublet) sector.

    Rows are the outgoing electron+impurity-2 pair spin s_e2, columns the
    incident one; both channels share a common denominator.  Independent of
    m, so one matrix serves both m = +-1/2 blocks.
    """
    g = p.g
    rg = (np.exp(2j * p.theta) - 1.0) * g  # (e^{2i theta} - 1) g
    den = 4096.0 + g * (-2048.0j + rg * (-128.0 + 96.0j * g + 9.0 * rg * g))
    root3 = math.sqrt(3.0)
    entries = [
        [128.0 * (32.0 - 4.0j * g - rg * g), -64.0 * root3 * g * (8.0j + rg)],
        [64.0 * root3 * g * (3.0 * rg - 8.0j), 512.0 * (8.0 - 3.0j * g)],
    ]
    return np.moveaxis(np.array(entries), (0, 1), (-2, -1)) / np.expand_dims(den, (-2, -1))


def det_t_minus_identity(p: DimensionlessParams) -> complex | np.ndarray:
    """det(t - I) for the doublet block; zero exactly when theta = n pi.

    A vanishing determinant is the existence condition for a spin state
    transmitted identically to itself (perfect transparency) at a phase
    that does not depend on the coupling.
    """
    return np.linalg.det(t_doublet(p) - np.eye(2))
