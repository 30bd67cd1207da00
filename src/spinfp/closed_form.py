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
stack of points and returns product-basis t and r, the matrices that sweeps,
``scatter`` and verify read, or only the columns of them that a caller's
incident states use: a sweep asks for those, so it builds no dense 8x8
matrix.  Total spin and S_z are conserved, so each matrix is the quartet
amplitude and the four doublet amplitudes times five constant operators,
``spin_algebra.sector_operators``, which are built exactly from the spin
operators.  ``_product`` sums them: one ``np.unique`` finds the 10
distinct nonzero entries, and one ``np.einsum`` forms each from 0.0 in
operator order, with no BLAS, no fused multiply-add (numpy's X86_V2
baseline) and no diagonalised basis.  The boundary-value solver shares it:
only this sum knows the sectors.  They are never trusted alone: the
waveguide_solver re-derives the same amplitudes from the boundary-value
problem, the transfer_oracle from the star product of per-site scattering
matrices, and verify and the test suite keep all three in 1e-10 agreement.

Every function here takes a stack of points: the parameters may hold
arrays, and the amplitudes then carry their shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check
from .spin_algebra import sector_operators

_FLUX_TOL = 1e-9


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
    """t and r of the doublet sector, shape (4, 2, ...): entry (out, in) of t and r
    at 2 out + in, the order of ``sector_operators``."""
    rg = ring * g
    den = 4096.0 + g * (-2048.0j + rg * (-128.0 + 96.0j * g + 9.0 * rg * g))
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
    return np.array([[t[out][in_], r[out][in_]] for out in (0, 1) for in_ in (0, 1)]) / den


def _block(doublet, which: int) -> np.ndarray:
    """t (which = 0) or r (1) of ``_doublet``'s array as (..., 2, 2) blocks, indexed (out, in)."""
    entries = doublet[:, which]
    return np.moveaxis(np.reshape(entries, (2, 2, *np.shape(entries)[1:])), (0, 1), (-2, -1))


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
    return _block(_doublet(p.g, _ring(p.theta)), 0)


def r_doublet(p: DimensionlessParams) -> np.ndarray:
    """2x2 reflection matrices in the doublet sector, indexed like ``t_doublet``.

    Symmetric (r01 = r10), over the denominator of t.
    """
    return _block(_doublet(p.g, _ring(p.theta)), 1)


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


def _check_flux(sectors: np.ndarray, u, theta) -> None:
    """|sum |t|^2 + |r|^2 - 1| <= 1e-9 for every point and incident channel.

    ``sectors`` holds the (5, 2, N) sector amplitudes in the order of
    ``sector_operators`` (q, D00, D01, D10, D11), t then r, per point.  The
    quartet sector is checked first, then the doublet; a failure, nan
    included, names the first offending point and channel.
    """
    squares = np.abs(sectors) ** 2
    weights = squares[:, 0] + squares[:, 1]  # |t|^2 + |r|^2, (5, N)
    # operator 1 + 2 out + in: incident channel c sums outgoing 0 (1 + c) and 1 (3 + c)
    for sector, flux in (("quartet", weights[0]), ("doublet", (weights[1:3] + weights[3:]).T)):
        check(np.abs(flux - 1.0), _FLUX_TOL, lambda i: (
            f"flux not conserved in the {_where(sector, u, theta, *i)}: "
            f"sum |t|^2 + |r|^2 = {float(flux[i])!r}, tolerance |sum - 1| <= {_FLUX_TOL!r}"))


@functools.lru_cache(maxsize=1)
def _sector_plan() -> tuple[np.ndarray, np.ndarray]:
    """How ``_product`` sums the ``sector_operators``: one ``np.unique``.

    Positions whose five operator weights are the same hold the same value:
    S_z conservation leaves 20 nonzero positions of 64, and the global spin
    flip i -> 7 - i pairs them into 10 columns.  Returns the distinct weight
    columns, (11, 5) with the all-zero one, and the column of each position.
    """
    weights, column = np.unique(sector_operators().reshape(5, 64).T, axis=0,
                                return_inverse=True)
    return weights, column.reshape(-1)  # numpy 2.0.0 returns the inverse 2-D


def _product(sectors: np.ndarray, columns=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Product-basis t and r, each (N, 8, m), from the (5, 2, N) sector amplitudes:
    the ``columns`` of the matrices, by default all eight (m = 8).

    Each matrix is q P + D00 M00 + D01 M01 + D10 M10 + D11 M11
    (``sector_operators``).  One ``np.einsum``, without ``optimize`` and so
    without BLAS, forms each distinct entry as 0.0 plus its five weighted
    terms in operator order, for the real and the imaginary part apart (a
    zero weight adds a zero, which moves no bit); its loop has no fused
    multiply-add at numpy's X86_V2 baseline.  One ``np.take`` of those
    values writes only the asked columns, so a column has the bits it has in
    the dense matrix.  A point's bits depend on that point alone, no entry
    is -0.0, and entries between different S_z sectors are exactly zero.
    """
    n = sectors.shape[-1]
    # (operator, t or r, point, re or im), and likewise (column, ...) for the values
    x = np.ascontiguousarray(sectors).view(np.float64).reshape(5, 4 * n)
    weights, column = _sector_plan()
    values = np.einsum("gk,kn->gn", weights, x)
    values = np.moveaxis(values.view(complex).reshape(len(values), 2, n), 0, -1)
    t, r = np.take(values, column.reshape(8, 8)[:, columns], axis=-1)
    return t, r


def amplitudes(u, theta, columns=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and reflection matrices, each (N, 8, 8), in the product basis,
    or their ``columns`` alone: ``t[..., columns]`` and ``r[..., columns]``.

    ``u`` and ``theta`` are arrays of length N; point i is (u[i], theta[i]).
    ``columns`` is a slice or an array of column indices, the incident
    product-basis kets a caller's states use.  Each matrix is ``_product``
    of the quartet amplitude and the 2x2 doublet block: it commutes with
    S^2, S_z and S_-, and entries between different S_z sectors are exactly
    zero.  Flux is checked on every point and incident channel, whichever
    columns are returned; an overflow (g^4 exceeds the largest double from
    u of about 1e76) reaches that check as nan and is reported with its
    point.
    """
    p = _stack(u, theta)
    g, ring = p.g, _ring(p.theta)
    with np.errstate(over="ignore", invalid="ignore"):
        sectors = np.concatenate(([_quartet(g, ring)], _doublet(g, ring)))
        _check_flux(sectors, p.u, p.theta)
    return _product(sectors, columns)
