import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spinfp.errors import DomainError
from spinfp.spin_algebra import (
    COUPLED_LABELS,
    SpinVector,
    compose_state,
    coupled_basis,
    _signed_sqrt,
    coupling_scheme_overlap,
    recoupling_matrix_elements,
    sector_operators,
    spin_operators,
    wigner_6j,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def electron_up_impurity_singlet():
    return compose_state([1, 0], np.array([0, 1, -1, 0]) / SQ2)


class TestSpinVector:
    def test_normalized_flag_enforced(self):
        with pytest.raises(DomainError):
            SpinVector(np.ones(8))

    def test_norm_is_checked_at_1e_12(self):
        unit = np.eye(8)[3]
        assert SpinVector(unit * math.sqrt(1 + 0.9e-12)).amplitudes[3] != 1.0
        with pytest.raises(DomainError, match="not normalized at 1e-12"):
            SpinVector(unit * math.sqrt(1 + 1.1e-12))

    def test_shape_check(self):
        with pytest.raises(DomainError):
            SpinVector(np.ones(4))

    def test_finite_check(self):
        amps = np.zeros(8)
        amps[0] = np.inf
        with pytest.raises(DomainError):
            SpinVector(amps)

    def test_product_ket_index_convention(self):
        # index = 4*electron + 2*imp1 + imp2
        v = compose_state([1, 0], [0, 0, 1, 0])  # up, down, up
        assert v.amplitudes[0b010] == 1.0
        v = compose_state([0, 1], [0, 0, 1, 0])  # down, down, up
        assert v.amplitudes[0b110] == 1.0


class TestOperators:
    def test_hermitian(self):
        for name, mat in vars(spin_operators()).items():
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12, name

    def test_exchange_identity(self):
        # sigma . S_i = ((sigma + S_i)^2 - 3/2) / 2
        ops = spin_operators()
        for dot, sq in (
            (ops.electron_dot_imp1, ops.electron_imp1_sq),
            (ops.electron_dot_imp2, ops.electron_imp2_sq),
        ):
            np.testing.assert_allclose(dot, (sq - 1.5 * np.eye(8)) / 2, atol=1e-12)

    def test_pair_spins_do_not_commute(self):
        ops = spin_operators()
        comm = (
            ops.electron_imp1_sq @ ops.electron_imp2_sq
            - ops.electron_imp2_sq @ ops.electron_imp1_sq
        )
        assert np.max(np.abs(comm)) > 0.1

    def test_total_spin_commutes_with_sz(self):
        ops = spin_operators()
        comm = ops.total_spin_sq @ ops.total_sz - ops.total_sz @ ops.total_spin_sq
        assert np.max(np.abs(comm)) < 1e-12


class TestWigner6j:
    def test_wigner_6j_triangle(self):
        assert wigner_6j(0.5, 0.5, 5, 0.5, 0.5, 0) == 0.0
        with pytest.raises(DomainError):
            wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 0.4)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_invalid_j_rejected(self, bad):
        with pytest.raises(DomainError):
            wigner_6j(bad, 0.5, 1, 0.5, 0.5, 0)

    def test_spin_half_values(self):
        # {1/2 1/2 s_e1; 1/2 1/2 s_e2}, the four symbols behind the recoupling
        assert wigner_6j(0.5, 0.5, 0, 0.5, 0.5, 0) == -0.5
        assert wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 1) == 1 / 6
        assert wigner_6j(0.5, 0.5, 0, 0.5, 0.5, 1) == 0.5
        assert wigner_6j(0.5, 0.5, 1, 0.5, 0.5, 0) == 0.5

    def test_matches_sympy_exact_values(self):
        # every 6-tuple with all j in {0, 1/2, 1, 3/2, 2}: the Racah value must
        # be sympy's exact symbol rounded once to the nearest double.  sympy's
        # own float() rounds twice and is one ulp off for 36 of these tuples,
        # e.g. {0 1 1; 1 2 2} = sqrt(15)/15.
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import wigner_6j as sympy_6j

        for doubled in itertools.product(range(5), repeat=6):
            try:
                exact = sympy_6j(*(sympy.Rational(k, 2) for k in doubled))
            except ValueError:  # sympy rejects a triad with a half-integer sum
                exact = sympy.S.Zero
            expected = float(sympy.N(exact, 40))
            assert wigner_6j(*(k / 2 for k in doubled)) == expected, doubled


class TestCoupledBasis:
    def test_orthonormal(self):
        m = coupled_basis().matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(8), atol=1e-12)

    def test_simultaneous_eigenvectors(self):
        basis = coupled_basis()
        ops = spin_operators()
        for j, lab in enumerate(basis.labels):
            v = basis.matrix[:, j]
            for op, val in (
                (ops.electron_imp2_sq, lab.s_e2 * (lab.s_e2 + 1)),
                (ops.total_spin_sq, lab.s * (lab.s + 1)),
                (ops.total_sz, lab.m),
            ):
                assert np.linalg.norm(op @ v - val * v) < 1e-12

    def test_stretched_state(self):
        basis = coupled_basis()
        v = basis.matrix[:, basis.index(1, 1.5, 1.5)]
        np.testing.assert_allclose(v, np.eye(8)[0], atol=1e-12)  # |up, up, up>

    def test_singlet_combination_positive_coefficients(self):
        # 1/2 |0;1/2,1/2> + sqrt(3)/2 |1;1/2,1/2>  =  |up> (|ud> - |du>)/sqrt(2)
        basis = coupled_basis()
        for m, target in ((0.5, electron_up_impurity_singlet()),
                          (-0.5, compose_state([0, 1], np.array([0, 1, -1, 0]) / SQ2))):
            combo = 0.5 * basis.matrix[:, basis.index(0, 0.5, m)] + (
                SQ3 / 2
            ) * basis.matrix[:, basis.index(1, 0.5, m)]
            np.testing.assert_allclose(combo, target.amplitudes, atol=1e-12)

    def test_pair_spin_expectation_in_quartet(self):
        # the impurity pair carries spin 1 throughout the quartet
        basis = coupled_basis()
        ops = spin_operators()
        v = basis.matrix[:, basis.index(1, 1.5, -0.5)]
        assert np.vdot(v, ops.pair_spin_sq @ v).real == pytest.approx(2.0, abs=1e-12)

    def test_label_order(self):
        assert COUPLED_LABELS[0] == (1, 1.5, 1.5)
        assert COUPLED_LABELS[4] == (0, 0.5, 0.5)
        assert COUPLED_LABELS[7] == (1, 0.5, -0.5)


class TestBasisChange:
    def test_singlet_decomposition(self):
        basis = coupled_basis()
        coeffs = basis.to_coupled(electron_up_impurity_singlet())
        expected = np.zeros(8, dtype=complex)
        expected[basis.index(0, 0.5, 0.5)] = 0.5
        expected[basis.index(1, 0.5, 0.5)] = SQ3 / 2
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_stretched_decomposition(self):
        coeffs = coupled_basis().to_coupled(compose_state([1, 0], [1, 0, 0, 0]))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_electron_up_pair_down_support(self):
        # |up, down, down> has total m = -1/2: support only on m = -1/2 labels
        coeffs = coupled_basis().to_coupled(compose_state([1, 0], [0, 0, 0, 1]))
        for j, lab in enumerate(COUPLED_LABELS):
            if lab.m != -0.5:
                assert abs(coeffs[j]) < 1e-12

    def test_round_trip_and_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            coeffs = coupled_basis().to_coupled(raw)
            assert np.vdot(coeffs, coeffs).real == pytest.approx(
                np.vdot(raw, raw).real, abs=1e-12 * np.vdot(raw, raw).real
            )
            back = coupled_basis().to_product(coeffs)
            np.testing.assert_allclose(back, raw, atol=1e-12)

    def test_stack_matches_single_states_bit_for_bit(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((200, 8)) + 1j * rng.standard_normal((200, 8))
        basis = coupled_basis()
        stacked = basis.to_coupled(states)
        assert stacked.shape == (200, 8)
        assert np.array_equal(stacked, [basis.to_coupled(v) for v in states])
        assert np.array_equal(basis.to_coupled(states.reshape(20, 10, 8)),
                              stacked.reshape(20, 10, 8))


    @pytest.mark.parametrize("shape", [(), (8,), (3,), (2, 3)])
    def test_to_product_inverts_to_coupled(self, shape):
        rng = np.random.default_rng(12)
        states = rng.standard_normal((*shape, 8)) + 1j * rng.standard_normal((*shape, 8))
        basis = coupled_basis()
        back = basis.to_product(basis.to_coupled(states))
        assert back.shape == states.shape
        np.testing.assert_allclose(back, states, rtol=0, atol=1e-14)
        if shape:  # each state of a stack converts as it would alone
            assert np.array_equal(back[(0,) * len(shape)],
                                  basis.to_product(basis.to_coupled(states[(0,) * len(shape)])))


def exact_sector_operators():
    """(P, M00, M01, M10, M11) as exact rationals, with M01 and M10 over 2/sqrt(3).

    The spin operators' entries are small dyadic rationals, so Fraction
    holds them exactly.  Returns five 8x8 nested lists and, per operator,
    whether its entries carry the factor 2/sqrt(3).
    """
    ops = spin_operators()

    def exact(matrix):
        return [[Fraction(float(v.real)) for v in row] for row in matrix]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(8)) for j in range(8)] for i in range(8)]

    one = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    total, pair2, pair1 = (exact(m) for m in (ops.total_spin_sq, ops.electron_imp2_sq,
                                              ops.electron_imp1_sq))
    p = [[(total[i][j] - Fraction(3, 4) * one[i][j]) / 3 for j in range(8)] for i in range(8)]
    q1 = [[v / 2 for v in row] for row in pair2]
    m00 = [[one[i][j] - q1[i][j] for j in range(8)] for i in range(8)]
    m11 = [[q1[i][j] - p[i][j] for j in range(8)] for i in range(8)]
    m01 = mul(mul(m00, pair1), q1)  # times 2/sqrt(3)
    m10 = [list(col) for col in zip(*m01)]
    return (p, m00, m01, m10, m11), (False, False, True, True, False)


class TestSectorOperators:
    def test_entries_are_the_correctly_rounded_exact_values(self):
        exact, irrational = exact_sector_operators()
        expected = np.array([
            [[_signed_sqrt(Fraction(4, 3) * v * abs(v)) if root else float(v) for v in row]
             for row in matrix]
            for matrix, root in zip(exact, irrational)
        ])
        operators = sector_operators()
        assert operators.shape == (5, 8, 8) and not operators.flags.writeable
        assert operators.tobytes() == expected.tobytes()  # bit for bit, so no -0.0 either
        rationals = {v for matrix, root in zip(exact, irrational) if not root
                     for row in matrix for v in row}
        assert all(6 % v.denominator == 0 for v in rationals)  # k/3 and k/6
        roots = {abs(v) for v in operators[2:4].ravel() if v}
        assert roots == {_signed_sqrt(Fraction(1, 3)), _signed_sqrt(Fraction(1, 12))}

    def test_outer_products_of_the_diagonalised_basis(self):
        basis = coupled_basis()

        def block(s_e2_out, s_e2_in, s):
            return sum(np.outer(basis.matrix[:, basis.index(s_e2_out, s, m)],
                                basis.matrix[:, basis.index(s_e2_in, s, m)].conj())
                       for m in np.arange(s, -s - 1, -1))

        expected = [block(1, 1, 1.5), block(0, 0, 0.5), block(0, 1, 0.5), block(1, 0, 0.5),
                    block(1, 1, 0.5)]
        assert np.max(np.abs(sector_operators() - np.array(expected))) <= 2e-15

    def test_projector_identities_hold_exactly(self):
        p, m00, m01, m10, m11 = sector_operators()
        assert np.array_equal(p @ p, p)
        assert np.array_equal((p + m11) + m00, np.eye(8))  # P + M11 = Q1, Q1 + M00 = 1
        assert np.array_equal(m10, m01.T)


class TestRecoupling:
    def test_matrix_bytes_unchanged(self):
        # the exact values, bit for bit: 3/2 and 1/2, and sqrt(3)/2 correctly rounded
        assert recoupling_matrix_elements().tobytes().hex() == (
            "000000000000f83faa4c58e87ab6eb3faa4c58e87ab6eb3f000000000000e03f"
        )

    def test_matrix_values(self):
        expected = np.array([[1.5, SQ3 / 2], [SQ3 / 2, 0.5]])
        np.testing.assert_allclose(recoupling_matrix_elements(), expected, atol=1e-12)

    def test_symmetric(self):
        e = recoupling_matrix_elements()
        assert abs(e[0, 1] - e[1, 0]) < 1e-15

    def test_m_independent_via_sandwich(self):
        basis = coupled_basis()
        ops = spin_operators()
        tables = []
        for m in (0.5, -0.5):
            vecs = [basis.matrix[:, basis.index(se2, 0.5, m)] for se2 in (0, 1)]
            tables.append(
                np.array(
                    [[np.vdot(a, ops.electron_imp1_sq @ b).real for b in vecs]
                     for a in vecs]
                )
            )
        np.testing.assert_allclose(tables[0], tables[1], atol=1e-12)
        np.testing.assert_allclose(tables[0], recoupling_matrix_elements(), atol=1e-12)

    def test_scheme_overlap_is_orthogonal(self):
        r = np.array(
            [[coupling_scheme_overlap(a, b) for b in (0, 1)] for a in (0, 1)]
        )
        np.testing.assert_allclose(r @ r.T, np.eye(2), atol=1e-12)
