"""Spin-space toolkit for one conduction electron and two spin-1/2 impurities.

The total spin Hilbert space is 8-dimensional, the product of the electron
spin with the two impurity spins.  Product-basis ordering is fixed once and
for all as

    index i = 4*e + 2*a + b,   e, a, b in {0 (up), 1 (down)},

where e, a, b are the projections of the electron, impurity 1 and impurity 2,
so the electron occupies the most significant bit.  All spin operators are
dimensionless (units of hbar).

Besides the operator set, this module builds the five sector operators
that carry a spin-conserving scattering matrix's quartet amplitude and
doublet block into the product basis, exactly and from the spin operators
alone; they are all that production knows of the spin sectors.  It also
builds the coupled basis |s_e2; s, m> of simultaneous eigenvectors of the
electron+impurity-2 pair spin squared, the total spin squared and its z
component, by simultaneous diagonalization plus ladder operators, not from
coefficient tables; that basis is evidence, read by verify criterion 6 and
the tests.  The 6j symbols behind the recoupling matrix elements come from
Racah's closed formula instead, so the two routes are independent: verify
criterion 6 checks the 6j matrix elements against operator sandwiches in the
diagonalized basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError

NORM_TOL = 1e-12

# Pauli matrices; spin-1/2 operators are pauli/2.
_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |up> -> |down>

_SLOTS = 3  # electron, impurity 1, impurity 2


def _embed(op: np.ndarray, slot: int) -> np.ndarray:
    """Embed a single-site 2x2 operator at the given slot (0 = electron)."""
    mats = [np.eye(2, dtype=complex)] * _SLOTS
    mats[slot] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _site_spin(slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(_embed(_PAULI[c] / 2.0, slot) for c in "xyz")


def _spin_dot(a, b) -> np.ndarray:
    return sum(ac @ bc for ac, bc in zip(a, b))


def _sq(components) -> np.ndarray:
    return sum(c @ c for c in components)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinOperatorSet:
    """8x8 matrices of the spin observables, in the product basis."""

    electron_dot_imp1: np.ndarray   # sigma . S_1
    electron_dot_imp2: np.ndarray   # sigma . S_2
    total_spin_sq: np.ndarray       # (sigma + S_1 + S_2)^2
    total_sz: np.ndarray
    pair_spin_sq: np.ndarray        # (S_1 + S_2)^2, impurities only
    electron_imp1_sq: np.ndarray    # (sigma + S_1)^2
    electron_imp2_sq: np.ndarray    # (sigma + S_2)^2


@functools.lru_cache(maxsize=1)
def spin_operators() -> SpinOperatorSet:
    """Build (once) the full operator set; all matrices are read-only."""
    electron = _site_spin(0)
    imp1 = _site_spin(1)
    imp2 = _site_spin(2)
    total = tuple(e + a + b for e, a, b in zip(electron, imp1, imp2))
    pair = tuple(a + b for a, b in zip(imp1, imp2))
    e1 = tuple(e + a for e, a in zip(electron, imp1))
    e2 = tuple(e + b for e, b in zip(electron, imp2))
    return SpinOperatorSet(
        electron_dot_imp1=_readonly(_spin_dot(electron, imp1)),
        electron_dot_imp2=_readonly(_spin_dot(electron, imp2)),
        total_spin_sq=_readonly(_sq(total)),
        total_sz=_readonly(total[2]),
        pair_spin_sq=_readonly(_sq(pair)),
        electron_imp1_sq=_readonly(_sq(e1)),
        electron_imp2_sq=_readonly(_sq(e2)),
    )


@functools.lru_cache(maxsize=1)
def sector_operators() -> np.ndarray:
    """The five real product-basis operators (P, M00, M01, M10, M11), shape (5, 8, 8).

    A scattering matrix that conserves total spin and S_z is
    q P + sum_ab D_ab M_ab, for the quartet amplitude q and the doublet block
    D indexed by the electron+impurity-2 pair spin (out, in):
    P = sum_m |1; 3/2, m><1; 3/2, m| and M_ab = sum_m |a; 1/2, m><b; 1/2, m|.
    Built from the spin operators alone, with no diagonalisation:

        P = (S^2 - 3/4) / 3,        Q1 = (sigma + S_2)^2 / 2,
        M00 = 1 - Q1,               M11 = Q1 - P,
        M01 = (2 / sqrt 3) M00 (sigma + S_1)^2 Q1,   M10 = M01^T.

    The phase of M01 is that of the 6j recoupling element
    <0; 1/2 | (sigma + S_1)^2 | 1; 1/2> = +sqrt(3)/2.  Every numerator is a
    sum of small dyadic rationals, so it is exact, and each operator is
    rounded once (M11 as (3 Q1 - (S^2 - 3/4)) / 3): every entry is its
    exact value (k/3, k/6, +-1/sqrt 3 or +-1/(2 sqrt 3)) correctly rounded.
    """
    ops = spin_operators()
    one = np.eye(8)
    shifted = ops.total_spin_sq.real - 0.75 * one   # 3 P, exact
    pair2 = ops.electron_imp2_sq.real                # 2 Q1, exact
    q1 = pair2 / 2.0
    m00 = one - q1
    m01 = _signed_sqrt(Fraction(4, 3)) * (m00 @ ops.electron_imp1_sq.real @ q1)
    stack = np.array([shifted / 3.0, m00, m01, m01.T, (1.5 * pair2 - shifted) / 3.0])
    return _readonly(stack + 0.0)  # + 0.0 turns any -0.0 into 0.0


@functools.lru_cache(maxsize=1)
def total_lowering() -> np.ndarray:
    """Total spin lowering operator S_- = S_x - i S_y (sum over all spins)."""
    return _readonly(sum(_embed(_LOWER, slot) for slot in range(_SLOTS)))


@dataclass(frozen=True)
class SpinVector:
    """Unit 8-component state over the product spin basis; any other norm is refused."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if arr.shape != (8,):
            raise DomainError(f"spin vector needs 8 amplitudes, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("spin vector amplitudes must be finite")
        if abs(np.vdot(arr, arr).real - 1.0) > NORM_TOL:
            raise DomainError("spin vector is not normalized at 1e-12")
        object.__setattr__(self, "amplitudes", _readonly(arr))


def _scaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that puts its largest real or imaginary part
    in [1, 2): exact, and a zero vector stays zero."""
    parts = v.view(np.float64)
    return np.ldexp(parts, 1 - math.frexp(float(np.max(np.abs(parts))))[1]).view(complex)


def compose_state(electron: Iterable[complex], impurities: Iterable[complex]) -> SpinVector:
    """Tensor an electron 2-vector with a two-impurity 4-vector, normalised; each factor
    is ``_scaled`` first, so no finite nonzero magnitude overflows or underflows."""
    el = np.asarray(list(electron), dtype=complex)
    imp = np.asarray(list(impurities), dtype=complex)
    if el.shape != (2,) or imp.shape != (4,):
        raise DomainError("need a 2-component electron and 4-component impurity state")
    amps = np.kron(_scaled(el), _scaled(imp))
    nrm = math.sqrt(math.fsum((amps.view(np.float64) ** 2).tolist()))
    if nrm == 0.0:
        raise DomainError("zero state")
    return SpinVector(amps / nrm)


class CoupledLabel(NamedTuple):
    s_e2: int
    s: float
    m: float


# Canonical ordering: the four s = 3/2 states (m descending), then the
# s_e2 = 0 doublet, then the s_e2 = 1 doublet.
COUPLED_LABELS: tuple[CoupledLabel, ...] = (
    CoupledLabel(1, 1.5, 1.5),
    CoupledLabel(1, 1.5, 0.5),
    CoupledLabel(1, 1.5, -0.5),
    CoupledLabel(1, 1.5, -1.5),
    CoupledLabel(0, 0.5, 0.5),
    CoupledLabel(0, 0.5, -0.5),
    CoupledLabel(1, 0.5, 0.5),
    CoupledLabel(1, 0.5, -0.5),
)


@dataclass(frozen=True)
class CoupledBasis:
    """Orthonormal coupled basis; column j of ``matrix`` is |labels[j]>."""

    labels: tuple[CoupledLabel, ...]
    matrix: np.ndarray

    def index(self, s_e2: int, s: float, m: float) -> int:
        return self.labels.index(CoupledLabel(int(s_e2), float(s), float(m)))

    def to_coupled(self, v) -> np.ndarray:
        """Coefficients <s_e2; s, m | v> in label order.

        ``v`` is one state (a ``SpinVector`` or 8 amplitudes) or a stack of
        product-basis states (..., 8); each state is converted on its own,
        so a stacked row has the bits of the single-state call.
        """
        amps = v.amplitudes if isinstance(v, SpinVector) else np.asarray(v, dtype=complex)
        return np.matmul(self.matrix.conj().T, amps[..., None])[..., 0]

    def to_product(self, coeffs) -> np.ndarray:
        """The product-basis state of coefficients in label order, the inverse of
        ``to_coupled``, for one state (8,) or a stack (..., 8)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        return np.matmul(self.matrix, coeffs[..., None])[..., 0]


def _first_sign_fixed(vec: np.ndarray) -> np.ndarray:
    """Flip the global sign so the first component above 1e-8 is positive."""
    for c in vec:
        if abs(c) > 1e-8:
            return vec if c.real > 0 else -vec
    raise AssertionError("zero eigenvector")


def _expect(op: np.ndarray, vec: np.ndarray) -> float:
    return float(np.real(np.vdot(vec, op @ vec)))


@functools.lru_cache(maxsize=1)
def coupled_basis() -> CoupledBasis:
    """Construct the coupled basis by simultaneous diagonalization.

    The three commuting observables are combined with incommensurate weights
    so a single Hermitian diagonalization splits all eight joint eigenspaces.
    Phases: the highest-m state of each multiplet has its first nonzero
    product-basis component real positive, and lower-m states follow by
    applying the total lowering operator, which reproduces the standard
    Condon-Shortley relative phases within each multiplet.
    """
    ops = spin_operators()
    combo = (
        100.0 * ops.electron_imp2_sq
        + 10.0 * ops.total_spin_sq
        + ops.total_sz
    ).real  # all three operators are real symmetric in the product basis
    _, vecs = np.linalg.eigh(combo)

    found: dict[CoupledLabel, np.ndarray] = {}
    for j in range(8):
        v = vecs[:, j].astype(complex)
        s_e2 = round((-1 + np.sqrt(1 + 4 * _expect(ops.electron_imp2_sq, v))) / 2)
        s2 = (-1 + np.sqrt(1 + 4 * _expect(ops.total_spin_sq, v))) / 2
        s = round(2 * s2) / 2
        m = round(2 * _expect(ops.total_sz, v)) / 2
        found[CoupledLabel(int(s_e2), s, m)] = v

    lower = total_lowering()
    columns: dict[CoupledLabel, np.ndarray] = {}
    for s_e2, s in ((1, 1.5), (0, 0.5), (1, 0.5)):
        vec = _first_sign_fixed(found[CoupledLabel(s_e2, s, s)])
        m = s
        columns[CoupledLabel(s_e2, s, m)] = vec
        while m > -s:
            vec = lower @ vec / np.sqrt(s * (s + 1) - m * (m - 1))
            m -= 1.0
            columns[CoupledLabel(s_e2, s, m)] = vec

    matrix = np.column_stack([columns[lab] for lab in COUPLED_LABELS])
    return CoupledBasis(labels=COUPLED_LABELS, matrix=_readonly(matrix))


def _doubled(value, name: str) -> int:
    """2j as an integer, for a j that must be an integer or a half-integer."""
    doubled = 2 * float(value)
    if not math.isfinite(doubled) or abs(doubled - round(doubled)) > 1e-9:
        raise DomainError(f"{name} must be integer or half-integer, got {value}")
    return int(round(doubled))


def _signed_sqrt(x: Fraction) -> float:
    """sign(x) sqrt(|x|), exact when |x| is a perfect square, else correctly
    rounded from an integer square root with 128 guard bits."""
    num, den = abs(x.numerator), x.denominator
    root_num, root_den = math.isqrt(num), math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        root_num, root_den = math.isqrt((num << 256) // den), 1 << 128
    return math.copysign(root_num / root_den, x)


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}; 0 if any triad is invalid.

    Racah's closed formula (Phys. Rev. 62, 438 (1942)) over exact rationals,
    in doubled angular momenta so every quantity is an integer.
    """
    return _signed_sqrt(_wigner_6j_signed_square(j1, j2, j3, j4, j5, j6))


def _wigner_6j_signed_square(j1, j2, j3, j4, j5, j6) -> Fraction:
    """sign(W) W^2 of the 6j symbol W, exactly."""
    js = [_doubled(j, f"j{i + 1}") for i, j in enumerate((j1, j2, j3, j4, j5, j6))]
    if any(j < 0 for j in js):
        raise DomainError("angular momenta must be nonnegative")
    a, b, c, d, e, f = js
    triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
    if any(x > y + z or y > z + x or z > x + y or (x + y + z) % 2 for x, y, z in triads):
        return Fraction(0)
    fact = math.factorial
    delta = math.prod(
        Fraction(
            fact((x + y - z) // 2) * fact((y + z - x) // 2) * fact((z + x - y) // 2),
            fact((x + y + z) // 2 + 1),
        )
        for x, y, z in triads
    )
    lows = [(x + y + z) // 2 for x, y, z in triads]
    highs = [(a + b + d + e) // 2, (b + c + e + f) // 2, (c + a + f + d) // 2]
    total = sum(
        Fraction(
            (-1) ** t * fact(t + 1),
            math.prod(fact(t - lo) for lo in lows) * math.prod(fact(hi - t) for hi in highs),
        )
        for t in range(max(lows), min(highs) + 1)
    )
    return total * abs(total) * delta


def _overlap_signed_square(s_e2: int, s_e1: int) -> Fraction:
    """sign(c) c^2 of the overlap c = ``coupling_scheme_overlap``, exactly."""
    if s_e2 not in (0, 1) or s_e1 not in (0, 1):
        raise DomainError("pair spins must be 0 or 1")
    reorder = (-1) ** (1 - s_e1)
    # the regrouping phase (-1)^(3/2 + s) is +1 at total spin s = 1/2
    return (
        reorder
        * (2 * s_e1 + 1)
        * (2 * s_e2 + 1)
        * _wigner_6j_signed_square(0.5, 0.5, s_e1, 0.5, 0.5, s_e2)
    )


def coupling_scheme_overlap(s_e2: int, s_e1: int) -> float:
    """Overlap between the two pairing schemes of the three spins, at total spin 1/2.

    Bra: impurity 1 coupled with the (electron, impurity 2) pair of spin
    s_e2 to total 1/2.  Ket: the (electron, impurity 1) pair of spin s_e1
    coupled with impurity 2 to the same total.  One phase undoes the
    reordering of the electron inside its pair; the phase of the standard
    regrouping identity for three angular momenta is +1 at total spin 1/2.
    """
    return _signed_sqrt(_overlap_signed_square(s_e2, s_e1))


@functools.lru_cache(maxsize=1)
def recoupling_matrix_elements() -> np.ndarray:
    """Matrix <s_e2' | (sigma + S_1)^2 | s_e2> in the total-spin-1/2 sector.

    Computed by expanding each s_e2 state over the electron+impurity-1
    pairing scheme (where the operator is diagonal with eigenvalues
    s_e1 (s_e1 + 1)) via 6j recoupling.  Independent of m by construction.
    Each term, an eigenvalue times two overlaps, is formed from the exact
    signed squares and rounded once, so rational entries come out exact.
    """

    def element(row: int, col: int) -> float:
        return sum(
            _signed_sqrt(
                (s_e1 * (s_e1 + 1)) ** 2
                * _overlap_signed_square(row, s_e1)
                * _overlap_signed_square(col, s_e1)
            )
            for s_e1 in (0, 1)
        )

    return _readonly(np.array([[element(row, col) for col in (0, 1)] for row in (0, 1)]))
