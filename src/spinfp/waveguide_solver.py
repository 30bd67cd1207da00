"""First-principles scattering solver for the two-impurity exchange wire.

Works in natural units hbar^2 / (2 m*) = 1 with the impurity spacing set to
x0 = 1, so the wave number is k = theta and the exchange strength enters as
2 m* J / hbar^2 = g k with g = pi u.  Per total-spin sector the stationary
state is expanded in plane waves over the three regions x < 0, 0 < x < x0
and x > x0; continuity plus the derivative-jump conditions at the two sites
give a small dense linear system.

The site potentials are not pre-simplified: they are assembled from the
electron+impurity-1 pair-spin matrix elements (recoupling_matrix_elements),
so the derivation remains visible and can be perturbed by tests.

All points go through one batched kernel, ``amplitudes``: per sector it
assembles a stack of systems, one per (u, theta) point, and runs one stacked
solve.  The doublet matrix does not depend on the incident channel, so both
channels are two right-hand sides of one factorisation.  The residual and
flux checks run on every point and channel.  The per-point functions
(``solve_quartet``, ``solve_doublet``, ``doublet_matrices``,
``scattering_matrices``) read a stack of one point.
"""


from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .closed_form import DimensionlessParams
from .errors import DomainError, NumericError
from .spin_algebra import recoupling_matrix_elements

_RESIDUAL_RTOL = 1e-8
_FLUX_TOL = 1e-9

# In the quartet sector the electron+impurity-1 pair spin is pinned to 1,
# so (sigma + S_1)^2 = 2 identically and the same holds at the second site.
_QUARTET_PAIR_SQ = 2.0

# doublet blocks of the coupled basis: labels 4, 6 share m = +1/2 and labels
# 5, 7 share m = -1/2; position c in a pair is the s_e2 = c channel
_DOUBLET_BLOCKS = (np.ix_((4, 6), (4, 6)), np.ix_((5, 7), (5, 7)))


@dataclass(frozen=True)
class RegionCoefficients:
    """Plane-wave coefficients of one spin channel across the three regions."""

    a_left: complex   # incident amplitude, e^{+ikx} for x < 0
    b_left: complex   # reflected amplitude, e^{-ikx} for x < 0
    a_mid: complex
    b_mid: complex
    t: complex        # transmitted amplitude, e^{+ikx} for x > x0


@dataclass(frozen=True)
class SectorSolution:
    """Solved boundary-value problem for one sector and incident channel."""

    sector: str
    incident: int
    channels: dict[int, RegionCoefficients]
    residual: float

    def transmissions(self) -> dict[int, complex]:
        return {ch: rc.t for ch, rc in self.channels.items()}

    def reflections(self) -> dict[int, complex]:
        return {ch: rc.b_left for ch, rc in self.channels.items()}


def quartet_site_strengths() -> tuple[float, float]:
    """Delta strengths (units of J) at the two sites in the quartet sector."""
    w = 0.5 * (_QUARTET_PAIR_SQ - 1.5)
    return w, w


@functools.lru_cache(maxsize=1)
def doublet_site_matrices() -> tuple[np.ndarray, np.ndarray]:
    """2x2 delta-strength matrices (units of J) at the two sites, doublet sector.

    Site 1 is built from the recoupling matrix of (sigma + S_1)^2 in the
    s_e2 basis; site 2 is diagonal there with eigenvalues s_e2 (s_e2 + 1).
    """
    w1 = 0.5 * (recoupling_matrix_elements() - 1.5 * np.eye(2))
    w2 = 0.5 * (np.diag([0.0, 1.0 * 2.0]) - 1.5 * np.eye(2))
    w1.setflags(write=False)
    w2.setflags(write=False)
    return w1, w2


def _quartet_system(k: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked single-channel systems of the total-spin-3/2 sector, one per point.

    Unknowns [B_I, A_II, B_II, t] with unit incident amplitude; matching
    conditions are continuity at both sites plus the derivative jump
    Delta phi' = g k w phi with w the site strength in units of J.  Returns
    matrices (N, 4, 4) and right-hand sides (N, 4, 1).
    """
    w1, w2 = quartet_site_strengths()
    c1 = g * k * w1
    c2 = g * k * w2
    ep = np.exp(1j * k)   # e^{+i k x0} with x0 = 1
    em = np.exp(-1j * k)
    ik = 1j * k

    matrix = np.zeros((len(k), 4, 4), dtype=complex)
    matrix[:, 0, :3] = (1.0, -1.0, -1.0)
    matrix[:, 1, 1] = ep
    matrix[:, 1, 2] = em
    matrix[:, 1, 3] = -ep
    matrix[:, 2, 0] = ik - c1
    matrix[:, 2, 1] = ik
    matrix[:, 2, 2] = -ik
    matrix[:, 3, 1] = -ik * ep
    matrix[:, 3, 2] = ik * em
    matrix[:, 3, 3] = (ik - c2) * ep
    rhs = np.zeros((len(k), 4, 1), dtype=complex)
    rhs[:, 0, 0] = -1.0
    rhs[:, 2, 0] = ik + c1
    return matrix, rhs


def _doublet_system(
    k: np.ndarray,
    g: np.ndarray,
    site1: np.ndarray,
    site2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked two-channel systems of the total-spin-1/2 sector, one per point.

    Unknown ordering: [B_I, A_II, B_II, t] for channel 0 then channel 1.
    Returns matrices (N, 8, 8) and right-hand sides (N, 8, 2); column i of
    the right-hand side carries the unit incoming wave in channel i.
    """
    ep = np.exp(1j * k)
    em = np.exp(-1j * k)
    ik = 1j * k
    gk = g * k

    matrix = np.zeros((len(k), 8, 8), dtype=complex)
    rhs = np.zeros((len(k), 8, 2), dtype=complex)
    for c in (0, 1):
        row = 4 * c  # also the column of B_I in channel c; slots follow in order
        # continuity at x = 0
        matrix[:, row, row:row + 3] = (1.0, -1.0, -1.0)
        rhs[:, row, c] = -1.0
        # continuity at x = x0
        matrix[:, row + 1, row + 1] = ep
        matrix[:, row + 1, row + 2] = em
        matrix[:, row + 1, row + 3] = -ep
        # derivative jump at x = 0 couples the channels through site 1
        matrix[:, row + 2, row] = ik
        matrix[:, row + 2, row + 1] = ik
        matrix[:, row + 2, row + 2] = -ik
        rhs[:, row + 2, c] = ik
        for d in (0, 1):
            matrix[:, row + 2, 4 * d] -= gk * site1[c, d]
            rhs[:, row + 2, d] += gk * site1[c, d]
        # derivative jump at x = x0
        matrix[:, row + 3, row + 1] = -ik * ep
        matrix[:, row + 3, row + 2] = ik * em
        matrix[:, row + 3, row + 3] = ik * ep
        for d in (0, 1):
            matrix[:, row + 3, 4 * d + 3] -= gk * site2[c, d] * ep
    return matrix, rhs


def _points(u, theta) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if u.ndim != 1 or u.shape != theta.shape:
        raise ValueError(
            f"u and theta must be 1-D arrays of one length, got shapes {u.shape} "
            f"and {theta.shape}"
        )
    if not np.all(np.isfinite(u) & (u >= 0)):
        raise DomainError("coupling u must be finite and >= 0")
    if not np.all(np.isfinite(theta) & (theta > 0)):
        raise DomainError("phase theta must be finite and > 0")
    return u, theta


def _solve(
    matrix: np.ndarray, rhs: np.ndarray, u: np.ndarray, theta: np.ndarray, sector: str
) -> tuple[np.ndarray, np.ndarray]:
    """One stacked solve; residual and flux are checked on every point and column.

    Returns the solutions (N, n, channels) and the absolute residuals
    (N, channels).  A failure names the first offending point.
    """

    def where(i, c=None) -> str:
        name = f"{sector} sector"
        if sector == "doublet" and c is not None:
            name += f" (incident channel {c})"
        return f"{name} at u = {float(u[i])!r}, theta = {float(theta[i])!r}"

    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        i = int(np.argmin(np.abs(np.linalg.det(matrix))))
        raise NumericError(f"singular linear system in the {where(i)}") from None

    residual = np.linalg.norm(matrix @ x - rhs, axis=1)
    scale = (
        np.linalg.norm(matrix, axis=(1, 2))[:, None] * np.linalg.norm(x, axis=1)
        + np.linalg.norm(rhs, axis=1)
    )
    ok = residual <= _RESIDUAL_RTOL * scale
    if not ok.all():
        i, c = np.argwhere(~ok)[0]
        raise NumericError(
            f"large residual in the {where(i, c)}: |A x - b| / (|A| |x| + |b|) = "
            f"{float(residual[i, c] / scale[i, c])!r} > {_RESIDUAL_RTOL!r}"
        )

    # per channel block the reflected amplitude is slot 0 and the transmitted slot 3
    flux = np.sum(np.abs(x[:, 0::4]) ** 2 + np.abs(x[:, 3::4]) ** 2, axis=1)
    ok = np.abs(flux - 1.0) <= _FLUX_TOL
    if not ok.all():
        i, c = np.argwhere(~ok)[0]
        raise NumericError(
            f"flux not conserved in the {where(i, c)}: sum |t|^2 + |r|^2 = "
            f"{float(flux[i, c])!r}, tolerance |sum - 1| <= {_FLUX_TOL!r}"
        )
    return x, residual


def _quartet(u: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    matrix, rhs = _quartet_system(theta, np.pi * u)
    return _solve(matrix, rhs, u, theta, "quartet")


def _doublet(u: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    matrix, rhs = _doublet_system(theta, np.pi * u, *doublet_site_matrices())
    return _solve(matrix, rhs, u, theta, "doublet")


def amplitudes(u, theta) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and reflection matrices, each (N, 8, 8), in the coupled basis.

    ``u`` and ``theta`` are arrays of length N; point i is (u[i], theta[i]).
    Every matrix is block diagonal: the quartet amplitude on each
    |1; 3/2, m> channel and one copy of the 2x2 doublet block, indexed
    (out, in), per m = +-1/2 pair; exactly zero between different (s, m)
    sectors.
    """
    u, theta = _points(u, theta)
    quartet, _ = _quartet(u, theta)
    doublet, _ = _doublet(u, theta)

    t = np.zeros((len(u), 8, 8), dtype=complex)
    r = np.zeros((len(u), 8, 8), dtype=complex)
    diag = np.arange(4)  # quartet channels come first in the label order
    t[:, diag, diag] = quartet[:, 3]
    r[:, diag, diag] = quartet[:, 0]
    for rows, cols in _DOUBLET_BLOCKS:
        t[:, rows, cols] = doublet[:, 3::4]
        r[:, rows, cols] = doublet[:, 0::4]
    return t, r


def _one(p: DimensionlessParams) -> tuple[np.ndarray, np.ndarray]:
    return np.array([p.u]), np.array([p.theta])


def solve_quartet(p: DimensionlessParams) -> SectorSolution:
    """Solve the single-channel cavity of the total-spin-3/2 sector."""
    x, residual = _quartet(*_one(p))
    coeffs = RegionCoefficients(1.0, *x[0, :, 0])
    return SectorSolution(
        "quartet", incident=1, channels={1: coeffs}, residual=float(residual[0, 0])
    )


def solve_doublet(p: DimensionlessParams, incident: int) -> SectorSolution:
    """Solve the coupled two-channel cavity of the total-spin-1/2 sector.

    ``incident`` selects which electron+impurity-2 pair-spin channel (0 or 1)
    carries the unit incoming wave.
    """
    if incident not in (0, 1):
        raise ValueError(f"incident channel must be 0 or 1, got {incident}")
    x, residual = _doublet(*_one(p))
    channels = {
        c: RegionCoefficients(
            1.0 if c == incident else 0.0, *x[0, 4 * c:4 * c + 4, incident]
        )
        for c in (0, 1)
    }
    return SectorSolution(
        "doublet", incident=incident, channels=channels,
        residual=float(residual[0, incident]),
    )


def doublet_matrices(p: DimensionlessParams) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) 2x2 matrices of the doublet sector, indexed (out, in)."""
    x, _ = _doublet(*_one(p))
    return x[0, 3::4], x[0, 0::4]


def scattering_matrices(p: DimensionlessParams) -> tuple[np.ndarray, np.ndarray]:
    """8x8 transmission and reflection matrices in the coupled basis.

    The single-point reading of ``amplitudes``; see there for the layout.
    """
    t, r = amplitudes(*_one(p))
    return t[0], r[0]
