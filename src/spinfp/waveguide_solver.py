"""First-principles scattering solver for the two-impurity exchange wire.

Works in natural units hbar^2 / (2 m*) = 1 with the impurity spacing set to
x0 = 1, so the wave number is k = theta and the exchange strength enters as
2 m* J / hbar^2 = g k with g = pi u.  Per total-spin sector the stationary
state is expanded in plane waves over the three regions x < 0, 0 < x < x0
and x > x0; continuity plus the derivative-jump conditions at the two sites
give a small dense linear system.  Divided by k (the jumps) and by e^{i theta}
(both x0 conditions), it depends on g and e^{-2i theta} alone: k cancels.

Both sectors are the same cavity: the total-spin-3/2 (quartet) sector is a
one-channel Fabry-Perot with two static J/4 barriers, and the total-spin-1/2
(doublet) sector is its two-channel version, whose first site mixes the
electron+impurity-2 pair-spin channels.  One assembly, ``_system``, writes
the matching conditions for n channels given the n x n site-strength
matrices.  The site potentials are not pre-simplified: the doublet ones are
assembled from the electron+impurity-1 pair-spin matrix elements
(recoupling_matrix_elements), so the derivation remains visible and can be
perturbed by tests.

The solver is evidence, not production: sweeps read the closed forms
(closed_form.amplitudes), and only verify's criterion 1 and the tests call
``solver_amplitudes``.  Per sector it assembles a stack of systems, one per
(u, theta) point, and runs one stacked solve.  The system matrix does not
depend on the incident channel, so the n channels are n right-hand sides of
one factorisation.  The residual and flux checks run on every point and
channel, and the sector blocks become product-basis t and r through the
closed forms' own sum, ``closed_form._product``: one ``np.einsum`` over the
sector operators' distinct weight columns, with no BLAS.
"""


from __future__ import annotations

import functools

import numpy as np

from .closed_form import _check_flux, _product, _stack, _where
from .errors import NumericError, check
from .spin_algebra import recoupling_matrix_elements

_RESIDUAL_RTOL = 1e-8

# In the quartet sector the electron+impurity-1 pair spin is pinned to 1,
# so (sigma + S_1)^2 = 2 identically and the same holds at the second site.
_QUARTET_PAIR_SQ = 2.0


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


def _system(
    phase: np.ndarray,
    g: np.ndarray,
    site1: np.ndarray,
    site2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked n-channel systems of one sector, one per point.

    ``phase`` is e^{-2i theta} and ``g`` is pi u, one per point; ``site1``
    and ``site2`` are the n x n delta-strength matrices (units of J) at
    x = 0 and x = x0.  Unknown ordering: [B_I, A_II, B_II, t] for channel 0,
    then channel 1, and so on.  Rows are continuity at both sites and the
    jump Delta phi' = g k w phi divided by k, the x0 rows by e^{i theta}.
    Returns matrices (N, 4n, 4n) and right-hand sides (N, 4n, n); column i
    of the right-hand side carries the unit incoming wave in channel i.
    """
    n = len(site1)
    g = g[:, None]  # one column, broadcast over the n channels

    matrix = np.zeros((len(phase), 4 * n, 4 * n), dtype=complex)
    rhs = np.zeros((len(phase), 4 * n, n), dtype=complex)
    for c in range(n):
        row = 4 * c  # also the column of B_I in channel c; slots follow in order
        # continuity at x = 0
        matrix[:, row, row:row + 3] = (1.0, -1.0, -1.0)
        rhs[:, row, c] = -1.0
        # continuity at x = x0
        matrix[:, row + 1, row + 1] = 1.0
        matrix[:, row + 1, row + 2] = phase
        matrix[:, row + 1, row + 3] = -1.0
        # derivative jump at x = 0 couples the channels through site 1
        matrix[:, row + 2, row:row + 3] = (1j, 1j, -1j)
        rhs[:, row + 2, c] = 1j
        jump = g * site1[c]
        matrix[:, row + 2, 0::4] -= jump  # the B_I column of every channel
        rhs[:, row + 2] += jump
        # derivative jump at x = x0
        matrix[:, row + 3, row + 1] = -1j
        matrix[:, row + 3, row + 2] = 1j * phase
        matrix[:, row + 3, row + 3] = 1j
        matrix[:, row + 3, 3::4] -= g * site2[c]  # every t column
    return matrix, rhs


def _solve(
    matrix: np.ndarray, rhs: np.ndarray, u: np.ndarray, theta: np.ndarray, sector: str
) -> np.ndarray:
    """One stacked solve; the residual is checked on every point and column.

    Returns the solutions (N, 4n, n).  A failure names the first offending
    point.
    """
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):  # a nan entry must not leak a warning
            i = int(np.argmin(np.abs(np.linalg.det(matrix))))
        where = _where(sector, u, theta, i)
        raise NumericError(f"singular linear system in the {where}") from None

    residual = np.linalg.norm(matrix @ x - rhs, axis=1)
    scale = (
        np.linalg.norm(matrix, axis=(1, 2))[:, None] * np.linalg.norm(x, axis=1)
        + np.linalg.norm(rhs, axis=1)
    )
    check(residual, _RESIDUAL_RTOL * scale, lambda i: (
        f"large residual in the {_where(sector, u, theta, *i)}: "
        f"|A x - b| / (|A| |x| + |b|) = {float(residual[i] / scale[i])!r} > {_RESIDUAL_RTOL!r}"))

    return x


def solver_amplitudes(u, theta) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and reflection matrices, each (N, 8, 8), in the product basis.

    The same contract as closed_form.amplitudes, from the boundary-value
    problem: ``u`` and ``theta`` are arrays of length N, and point i is
    (u[i], theta[i]).
    """
    p = _stack(u, theta)
    u, theta = p.u, p.theta
    phase, g = np.exp(-2j * theta), p.g
    w1, w2 = quartet_site_strengths()  # the quartet is the n = 1 cavity
    quartet_system = _system(phase, g, np.array([[w1]]), np.array([[w2]]))
    quartet = _solve(*quartet_system, u, theta, "quartet")
    doublet = _solve(*_system(phase, g, *doublet_site_matrices()), u, theta, "doublet")
    # per channel block the reflected amplitude is slot 0 and the transmitted slot 3;
    # the doublet blocks (t or r, point, out, in) go to the order (2 out + in, t or r, point)
    blocks = np.array([doublet[:, 3::4], doublet[:, 0::4]]).transpose(2, 3, 0, 1)
    sectors = np.concatenate(([[quartet[:, 3, 0], quartet[:, 0, 0]]], blocks.reshape(4, 2, -1)))
    _check_flux(sectors, u, theta)
    return _product(sectors)
