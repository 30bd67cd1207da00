"""Closed-form scattering amplitudes for the double spin-exchange scatterer.

Everything depends on exactly two dimensionless numbers: the coupling
u = rho(E) J (density of states per unit length times the exchange constant,
the quantity figure sweeps are labeled with) and the phase theta = k x0
accumulated between the two impurity sites.  Internally the formulas use
g = pi * u = 2 m* J / (hbar^2 k), which makes the quartet-sector amplitude
coincide with the textbook Fabry-Perot composition of two static delta
barriers of strength J/4.

Every amplitude is a rational function of g and the ring factor
e^{2i theta} - 1 (the round trip between the sites).  Near theta = n pi that
factor is small, and forming it as a difference loses its relative accuracy;
it is written 2i sin(theta) e^{i theta} instead, from one e^{-i theta}, so
the formulas keep full precision at any coupling and any finite phase.

These closed forms serve production: ``amplitudes`` evaluates them on a
stack of points and places them into the coupled-basis t and r matrices that
sweeps, ``scatter`` and verify read.  They are never trusted alone: the
waveguide_solver re-derives the same amplitudes from the boundary-value
problem, the transfer_oracle from the star product of per-site scattering
matrices, and verify and the test suite keep all three in 1e-10 agreement.

Every function here takes a stack of points: the parameters may hold
arrays, and the amplitudes then carry their shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

_FLUX_TOL = 1e-9

# doublet blocks of the coupled basis: labels 4, 6 share m = +1/2 and labels
# 5, 7 share m = -1/2; position c in a pair is the s_e2 = c channel
_DOUBLET_BLOCKS = (np.ix_((4, 6), (4, 6)), np.ix_((5, 7), (5, 7)))


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


def _ring(theta) -> complex | np.ndarray:
    """The ring factor e^{2i theta} - 1, computed as 2i sin(theta) e^{i theta}.

    One e^{-i theta} gives both factors, so nothing cancels near theta = n pi
    and no 2 theta is formed that could overflow.
    """
    e = np.exp(-1j * theta)
    return -2j * e.imag * e.conjugate()


def _quartet(g, ring):
    """(t, r) of the quartet sector."""
    den = 64.0 + g * (16.0j + ring * g)
    return 64.0 / den, -g * (ring * g + 8.0j * (ring + 2.0)) / den


def _doublet(g, ring):
    """(t, r) of the doublet sector, each (..., 2, 2) and indexed (out, in)."""
    rg = ring * g
    den = np.expand_dims(4096.0 + g * (-2048.0j + rg * (-128.0 + 96.0j * g + 9.0 * rg * g)),
                         (-2, -1))
    root3 = math.sqrt(3.0)
    mixed = -8.0j * root3 * g * (rg + 8.0j) * (3.0 * rg - 8.0j)
    t = [
        [128.0 * (32.0 - 4.0j * g - rg * g), -64.0 * root3 * g * (8.0j + rg)],
        [64.0 * root3 * g * (3.0 * rg - 8.0j), 512.0 * (8.0 - 3.0j * g)],
    ]
    r = [
        [-3.0 * g * (rg * (rg * (3.0 * g + 16.0j) + 32.0j * g - 64.0) - 512.0j * (ring + 1.0)),
         mixed],
        [mixed, -g * (rg * (9.0 * rg * g + 96.0j * g + 64.0) + 512.0j * (ring - 1.0))],
    ]
    return tuple(np.moveaxis(np.array(m), (0, 1), (-2, -1)) / den for m in (t, r))


def t_quartet(p: DimensionlessParams) -> complex | np.ndarray:
    """Transmission amplitude in the total-spin-3/2 (quartet) sector.

    In this sector neither impurity can flip, so the wire acts as a
    Fabry-Perot cavity with two static J/4 barriers.  The denominator does
    not vanish for real inputs.
    """
    return _quartet(p.g, _ring(p.theta))[0]


def r_quartet(p: DimensionlessParams) -> complex | np.ndarray:
    """Reflection amplitude in the quartet sector; |t|^2 + |r|^2 = 1."""
    return _quartet(p.g, _ring(p.theta))[1]


def t_doublet(p: DimensionlessParams) -> np.ndarray:
    """2x2 transmission matrices, shape (..., 2, 2), in the total-spin-1/2 (doublet) sector.

    Rows are the outgoing electron+impurity-2 pair spin s_e2, columns the
    incident one; both channels share a common denominator.  Independent of
    m, so one matrix serves both m = +-1/2 blocks.
    """
    return _doublet(p.g, _ring(p.theta))[0]


def r_doublet(p: DimensionlessParams) -> np.ndarray:
    """2x2 reflection matrices in the doublet sector, indexed like ``t_doublet``.

    Symmetric (r01 = r10), over the denominator of t.
    """
    return _doublet(p.g, _ring(p.theta))[1]


def det_t_minus_identity(p: DimensionlessParams) -> complex | np.ndarray:
    """det(t - I) for the doublet block; zero exactly when theta = n pi.

    A vanishing determinant is the existence condition for a spin state
    transmitted identically to itself (perfect transparency) at a phase
    that does not depend on the coupling.
    """
    return np.linalg.det(t_doublet(p) - np.eye(2))


def _stack(u, theta) -> DimensionlessParams:
    """The validated 1-D stack of points (u[i], theta[i])."""
    p = DimensionlessParams(u, theta)  # validates every point
    if np.ndim(p.u) != 1:
        raise ValueError(f"u and theta must be 1-D arrays, got shape {np.shape(p.u)}")
    return p


def _where(sector: str, u: np.ndarray, theta: np.ndarray, i, c=None) -> str:
    """Names point i, and in the doublet sector its incident channel c."""
    name = f"{sector} sector"
    if sector == "doublet" and c is not None:
        name += f" (incident channel {c})"
    return f"{name} at u = {float(u[i])!r}, theta = {float(theta[i])!r}"


def _check_flux(t: np.ndarray, r: np.ndarray, u, theta, sector: str) -> None:
    """|sum |t|^2 + |r|^2 - 1| <= 1e-9 for every point and incident channel.

    ``t`` and ``r`` are one sector's blocks (N, n, n), indexed (out, in).  A
    failure, nan included, names the first offending point.
    """
    flux = np.sum(np.abs(t) ** 2 + np.abs(r) ** 2, axis=1)
    ok = np.abs(flux - 1.0) <= _FLUX_TOL
    if not ok.all():
        i, c = np.argwhere(~ok)[0]
        raise NumericError(
            f"flux not conserved in the {_where(sector, u, theta, i, c)}: "
            f"sum |t|^2 + |r|^2 = {float(flux[i, c])!r}, tolerance |sum - 1| <= {_FLUX_TOL!r}"
        )


def _coupled(quartet: np.ndarray, doublet: np.ndarray) -> np.ndarray:
    """The (N, 8, 8) coupled-basis matrix of the sector blocks.

    ``quartet`` is (N, 1, 1) and ``doublet`` (N, 2, 2), indexed (out, in).
    The quartet amplitude sits on each |1; 3/2, m> channel, one copy of the
    doublet block on each m = +-1/2 pair, and every entry between different
    (s, m) sectors is exactly zero.
    """
    out = np.zeros((len(doublet), 8, 8), dtype=complex)
    diag = np.arange(4)  # quartet channels come first in the label order
    out[:, diag, diag] = quartet[:, 0]
    for rows, cols in _DOUBLET_BLOCKS:
        out[:, rows, cols] = doublet
    return out


def amplitudes(u, theta) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and reflection matrices, each (N, 8, 8), in the coupled basis.

    ``u`` and ``theta`` are arrays of length N; point i is (u[i], theta[i]).
    Every matrix is block diagonal: the quartet amplitude on each
    |1; 3/2, m> channel and one copy of the 2x2 doublet block, indexed
    (out, in), per m = +-1/2 pair; exactly zero between different (s, m)
    sectors.  Flux is checked on every point and incident channel; an
    overflow (g^4 exceeds the largest double from u of about 1e76) reaches
    that check as nan and is reported with its point.
    """
    p = _stack(u, theta)
    g, ring = p.g, _ring(p.theta)
    with np.errstate(over="ignore", invalid="ignore"):
        tq, rq = (a[:, None, None] for a in _quartet(g, ring))
        td, rd = _doublet(g, ring)
        _check_flux(tq, rq, p.u, p.theta, "quartet")
        _check_flux(td, rd, p.u, p.theta, "doublet")
    return _coupled(tq, td), _coupled(rq, rd)
