import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from spinfp.closed_form import (
    DimensionlessParams,
    amplitudes,
    det_t_minus_identity,
    r_doublet,
    r_quartet,
    t_doublet,
    t_quartet,
)
from spinfp.errors import DomainError, NumericError
from spinfp.spin_algebra import coupled_basis, sector_operators
from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain
from spinfp.waveguide_solver import (
    _system,
    doublet_site_matrices,
    quartet_site_strengths,
    solver_amplitudes,
)


def reference_determinant(p):
    """det(t - I) from its factorized form; kept independent of the package."""
    g = p.g
    ring = cmath.exp(2j * p.theta) - 1.0
    delta = 4096.0 + g * (-2048.0j + ring * g * (-128.0 + 96.0j * g + 9.0 * ring * g * g))
    return (3.0 / delta) * ring * g**3 * (3.0 * g * ring + 32.0j)


class TestParams:
    def test_g_is_pi_u(self):
        assert DimensionlessParams(2.0, 1.0).g == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize(
        "u,theta", [(-1.0, 1.0), (math.nan, 1.0), (1.0, 0.0), (1.0, -2.0), (1.0, math.inf)]
    )
    def test_rejects_bad_inputs(self, u, theta):
        with pytest.raises(DomainError):
            DimensionlessParams(u, theta)
        with pytest.raises(DomainError, match=f"got {u if u != 1.0 else theta}"):
            DimensionlessParams([1.0, 2.0, u], [1.0, 2.0, theta])  # any bad element

    def test_zero_coupling_allowed(self):
        assert DimensionlessParams(0.0, 1.0).u == 0.0

    def test_one_point_holds_python_floats(self):
        p = DimensionlessParams(np.float64(2.0), 1)
        assert type(p.u) is float and type(p.theta) is float
        assert repr(p) == "DimensionlessParams(u=2.0, theta=1.0)"

    def test_stack_holds_read_only_arrays(self):
        u = [1.0, 2.0]
        p = DimensionlessParams(u, np.array([0.5, 0.7]))
        assert p.u.shape == p.theta.shape == (2,)
        assert not p.u.flags.writeable
        np.testing.assert_array_equal(p.g, np.pi * np.array(u))

    @pytest.mark.parametrize("u,theta", [(np.ones(3), np.ones(4)), (1.0, np.ones(2)),
                                         (np.ones((2, 3)), np.ones(6))])
    def test_rejects_stacks_of_unequal_shape(self, u, theta):
        with pytest.raises(ValueError, match="one shape"):
            DimensionlessParams(u, theta)


class TestQuartet:
    def test_free_propagation(self):
        for theta in (0.3, 1.0, math.pi, 5.5):
            assert t_quartet(DimensionlessParams(0.0, theta)) == pytest.approx(1.0)

    def test_resonant_phase_value(self):
        # at theta = n pi the two barriers act as a single J/2 delta
        for n in (1, 2, 3):
            t = t_quartet(DimensionlessParams(1.0, n * math.pi))
            expected = 1.0 / (1.0 + 1j * math.pi / 4.0)
            assert t == pytest.approx(expected, abs=1e-12)
            assert abs(t) ** 2 == pytest.approx(0.6185, abs=5e-5)

    def test_single_impurity_limit(self):
        # coincident barriers: amplitude of one delta of doubled strength
        for u in (0.5, 2.0, 7.0):
            p = DimensionlessParams(u, 1e-9)
            expected = 1.0 / (1.0 + 1j * p.g / 4.0)
            assert t_quartet(p) == pytest.approx(expected, abs=1e-8)

    def test_periodicity_in_theta(self):
        p = DimensionlessParams(3.0, 1.234)
        for shift in (math.pi, 2 * math.pi):
            shifted = DimensionlessParams(3.0, 1.234 + shift)
            assert t_quartet(shifted) == pytest.approx(t_quartet(p), abs=1e-12)

    def test_subunitary(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = DimensionlessParams(rng.uniform(0, 50), rng.uniform(0.01, 7))
            assert abs(t_quartet(p)) <= 1.0 + 1e-12


class TestDoublet:
    def test_identity_at_zero_coupling(self):
        np.testing.assert_allclose(
            t_doublet(DimensionlessParams(0.0, 2.0)), np.eye(2), atol=1e-14
        )

    def test_transparency_eigenvector(self):
        # (1, sqrt(3))/2 is transmitted with eigenvalue exactly 1 at theta = n pi
        v = np.array([0.5, math.sqrt(3) / 2])
        for n in (1, 2):
            for u in (0.5, 1.0, 10.0, 100.0):
                t = t_doublet(DimensionlessParams(u, n * math.pi))
                np.testing.assert_allclose(t @ v, v, atol=1e-12)

    def test_periodicity_in_theta(self):
        a = t_doublet(DimensionlessParams(4.0, 0.9))
        b = t_doublet(DimensionlessParams(4.0, 0.9 + math.pi))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_solver_on_random_draws(self, rotated):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = DimensionlessParams(rng.uniform(1e-6, 20), rng.uniform(1e-6, 2 * math.pi))
            solver_t = solver_amplitudes([p.u], [p.theta])[0]
            expected = rotated([t_quartet(p)], t_doublet(p)[None])
            np.testing.assert_allclose(solver_t, expected, atol=1e-10)


class TestDeterminant:
    def test_zero_on_resonance(self):
        assert abs(det_t_minus_identity(DimensionlessParams(5.0, math.pi))) < 1e-12

    def test_nonzero_off_resonance(self):
        assert abs(det_t_minus_identity(DimensionlessParams(1.0, math.pi / 2))) > 1e-6

    def test_vanishes_with_coupling(self):
        assert abs(det_t_minus_identity(DimensionlessParams(1e-8, 1.1))) < 1e-12

    def test_matches_reference_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = DimensionlessParams(rng.uniform(0.01, 20), rng.uniform(0.01, 2 * math.pi))
            assert abs(det_t_minus_identity(p) - reference_determinant(p)) < 1e-10


class TestStacks:
    def test_stacked_closed_forms_equal_per_point_calls(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(0.0, 50.0, (4, 10))
        theta = rng.uniform(1e-6, 4 * math.pi, (4, 10))
        stacked = DimensionlessParams(u, theta)
        forms = ((t_quartet, ()), (t_doublet, (2, 2)), (det_t_minus_identity, ()))
        for form, shape in forms:
            values = form(stacked)
            assert values.shape == u.shape + shape
            for i in np.ndindex(u.shape):
                one = form(DimensionlessParams(u[i], theta[i]))
                assert np.max(np.abs(values[i] - one)) <= 1e-15


class TestChannelAmplitudes:
    def test_assembled_amplitudes_subunitary(self, rotated):
        # closed-form t together with the kernel's r, both in the product basis
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = DimensionlessParams(rng.uniform(0, 20), rng.uniform(0.01, 6))
            r = amplitudes([p.u], [p.theta])[1][0]
            tq = t_quartet(p)
            stacked = np.vstack([rotated([tq], t_doublet(p)[None])[0], r])
            largest = float(np.linalg.svd(stacked, compute_uv=False)[0])
            assert abs(tq) <= 1 + 1e-12
            assert largest <= 1 + 1e-12
            # flux conservation makes every singular value exactly one
            assert largest == pytest.approx(1.0, abs=1e-10)


def exact_blocks(g, ring, root3, i):
    """Quartet (t, r) and doublet (t, r) entries in g and ring = e^{2i theta} - 1.

    Written from the sympy solution of the matching conditions and kept
    independent of the package; generic over the number type, so one text
    serves sympy symbols and mpmath numbers.  Doublet blocks are nested
    lists indexed (out, in).
    """
    qden = g**2 * ring + 16 * i * g + 64
    quartet = (64 / qden, -g * (g * ring + 8 * i * ring + 16 * i) / qden)
    den = (9 * g**4 * ring**2 + 96 * i * g**3 * ring - 128 * g**2 * ring
           - 2048 * i * g + 4096)
    mixed = -8 * root3 * i * g * (g * ring + 8 * i) * (3 * g * ring - 8 * i) / den
    t = [[-128 * (g**2 * ring + 4 * i * g - 32) / den,
          -64 * root3 * g * (g * ring + 8 * i) / den],
         [64 * root3 * g * (3 * g * ring - 8 * i) / den,
          -512 * i * (3 * g + 8 * i) / den]]
    r = [[-3 * g * (3 * g**3 * ring**2 + 16 * i * g**2 * ring**2 + 32 * i * g**2 * ring
                    - 64 * g * ring - 512 * i * ring - 512 * i) / den, mixed],
         [mixed, -g * (9 * g**3 * ring**2 + 96 * i * g**2 * ring + 64 * g * ring
                       + 512 * i * ring - 512 * i) / den]]
    return quartet, (t, r)


class TestDerivation:
    def test_exact_blocks_solve_the_matching_conditions(self):
        # _system is affine in z = e^{-2i theta} and in g separately, so three
        # evaluations give its exact coefficients; with t and r from the
        # formulas, continuity and the jump at x = 0 fix A_II and B_II, and
        # the two conditions at x0 must then hold identically
        sp = pytest.importorskip("sympy")
        g, ring = sp.symbols("g ring")
        z = 1 / (1 + ring)
        root3 = sp.sqrt(3)

        def exact(value):
            parts = [sp.nsimplify(v, [root3]) for v in (value.real, value.imag)]
            assert complex(parts[0] + sp.I * parts[1]) == pytest.approx(value, abs=1e-15)
            return parts[0] + sp.I * parts[1]

        def symbolic(site1, site2):
            def at(phase, coupling):
                m, b = _system(np.array([phase], complex), np.array([coupling]), site1, site2)
                return m[0], b[0]
            (m0, b0), (mz, _), (mg, bg) = at(0, 0), at(1, 0), at(0, 1)
            m23, b23 = at(2, 3)
            assert np.array_equal(m23, m0 + 2 * (mz - m0) + 3 * (mg - m0))
            assert np.array_equal(b23, b0 + 3 * (bg - b0))
            to_sp = np.vectorize(exact, otypes=[object])
            matrix = (sp.Matrix(to_sp(m0)) + z * sp.Matrix(to_sp(mz - m0))
                      + g * sp.Matrix(to_sp(mg - m0)))
            return matrix, sp.Matrix(to_sp(b0)) + g * sp.Matrix(to_sp(bg - b0))

        quartet, doublet = exact_blocks(g, ring, root3, sp.I)
        w1, w2 = quartet_site_strengths()
        sectors = (
            (symbolic(np.array([[w1]]), np.array([[w2]])), ([[quartet[0]]], [[quartet[1]]])),
            (symbolic(*doublet_site_matrices()), doublet),
        )
        for (matrix, rhs), (t, r) in sectors:
            n = len(t)
            for c in range(n):  # incident channel
                inner = sp.symbols(f"a0:{n} b0:{n}")
                x = sp.Matrix([v for k in range(n)
                               for v in (r[k][c], inner[k], inner[n + k], t[k][c])])
                residual = matrix * x - rhs[:, c]
                fixed = sp.solve([residual[4 * k + j] for k in range(n) for j in (0, 2)],
                                 inner, dict=True)[0]
                for k in range(n):
                    for j in (1, 3):
                        assert sp.cancel(residual[4 * k + j].subs(fixed)) == 0

    def test_production_matches_50_digits_near_resonance(self):
        # theta = n pi + N(0, 1) / g^2 lies within the resonance width; the
        # reference evaluates the exact blocks at 50 digits at the same float
        # theta and rotates them to the product basis with the exact B
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        rng = np.random.default_rng(28)
        root3, i = mp.sqrt(3), mp.mpc(0, 1)
        terms = exact_rotation(mp)
        for u_value in (1e2, 1e4, 1e6, 1e8):
            g_float = math.pi * u_value
            theta = rng.integers(1, 1000, 25) * math.pi + rng.standard_normal(25) / g_float**2
            t, r = amplitudes(np.full(25, u_value), theta)
            for k in range(len(theta)):
                g = mp.pi * mp.mpf(u_value)
                quartet, doublet = exact_blocks(g, mp.expj(2 * mp.mpf(theta[k])) - 1, root3, i)
                for got, q, d in zip((t[k], r[k]), quartet, doublet):
                    coupled = {(a, a): q for a in range(4)}
                    for labels in ((4, 6), (5, 7)):
                        for a in (0, 1):
                            for b in (0, 1):
                                coupled[labels[a], labels[b]] = d[a][b]
                    worst = max(
                        abs(complex(got[row, col])
                            - mp.fsum(c * coupled[key] for c, key in terms[row, col]))
                        for row in range(8) for col in range(8))
                    assert worst <= 1e-15, (u_value, theta[k], worst)


def exact_rotation(mp):
    """B (.) B^T at the precision of ``mp``, for the exact coupled basis B.

    Each entry of the diagonalised basis is sign(b) sqrt(b^2), with b^2 a
    rational of denominator at most 6; returns, for each product-basis
    position (row, col), the terms (B[row, a] B[col, b], (a, b)) over the
    coupled-basis positions (a, b) that a kernel matrix can fill.
    """
    b = coupled_basis().matrix.real
    exact = [[mp.sign(v) * mp.sqrt(mp.mpf(f.numerator) / f.denominator)
              for v, f in ((v, Fraction(v * v).limit_denominator(12)) for v in row)]
             for row in b]
    filled = [(a, a) for a in range(4)]
    filled += [(x, y) for labels in ((4, 6), (5, 7)) for x in labels for y in labels]
    return {(row, col): [(exact[row][a] * exact[col][c], (a, c)) for a, c in filled
                         if exact[row][a] and exact[col][c]]
            for row in range(8) for col in range(8)}


def kernel_draws(n=500):
    """Seeded points with u in [1e-6, 20] and theta in (0, 4 pi], plus exact n pi."""
    rng = np.random.default_rng(29)
    u = rng.uniform(1e-6, 20.0, n)
    theta = 4 * math.pi - rng.uniform(0.0, 4 * math.pi, n)  # (0, 4 pi]
    resonant = np.arange(1, 5) * math.pi
    return np.concatenate([u, [0.5, 3.0, 20.0, 1e-6]]), np.concatenate([theta, resonant])


class TestAmplitudes:
    def test_matches_solver_and_oracle(self):
        u, theta = kernel_draws()
        t, r = amplitudes(u, theta)
        t_solver, r_solver = solver_amplitudes(u, theta)
        full = oracle_scattering(two_impurity_chain(DimensionlessParams(u, theta)))
        assert max(np.max(np.abs(t - t_solver)), np.max(np.abs(r - r_solver))) < 1e-13
        assert np.max(np.abs(full.transmission - t)) < 1e-13
        assert np.max(np.abs(full.reflection - r)) < 1e-13

    def test_blocks_are_the_closed_forms(self):
        # each entry is the sum, in operator order, of the closed forms times
        # the sector operators' nonzero weights, real and imaginary parts apart
        u, theta = kernel_draws(50)
        p = DimensionlessParams(u, theta)
        t, r = amplitudes(u, theta)
        operators = sector_operators()
        for matrix, quartet, doublet in ((t, t_quartet(p), t_doublet(p)),
                                         (r, r_quartet(p), r_doublet(p))):
            amps = [quartet, *(doublet[:, a, b] for a in (0, 1) for b in (0, 1))]
            expected = np.zeros_like(matrix)
            for row, col in np.ndindex(8, 8):
                terms = [(c, w[row, col]) for c, w in zip(amps, operators) if w[row, col]]
                for part, plane in ((np.real, expected.real), (np.imag, expected.imag)):
                    if terms:
                        first, *rest = (part(c) * w for c, w in terms)
                        plane[:, row, col] = sum(rest, first) + 0.0
            assert np.array_equal(matrix, expected)
            bits = matrix.view(np.float64)
            assert not np.any(np.signbit(bits) & (bits == 0.0))  # no -0.0

    def test_single_point_matches_batch(self):
        u, theta = kernel_draws(60)
        t, r = amplitudes(u, theta)
        for i in range(len(u)):
            t1, r1 = amplitudes(u[i:i + 1], theta[i:i + 1])
            assert np.array_equal(t1[0], t[i]) and np.array_equal(r1[0], r[i])

    def test_unitarity(self):
        u, theta = kernel_draws()
        t, r = amplitudes(u, theta)
        dagger = np.conj(np.swapaxes(t, 1, 2)), np.conj(np.swapaxes(r, 1, 2))
        defect = dagger[0] @ t + dagger[1] @ r - np.eye(8)
        assert np.max(np.linalg.norm(defect, axis=(1, 2))) <= 1e-13

    @pytest.mark.parametrize("theta", [1e307, 1e308, np.finfo(float).max])
    def test_every_finite_phase(self, theta):
        t, r = amplitudes([0.5, 10.0], [theta, theta])
        flux = np.sum(np.abs(t) ** 2 + np.abs(r) ** 2, axis=1)
        assert np.max(np.abs(flux - 1.0)) <= 1e-13

    def test_shape_and_domain_validation(self):
        assert amplitudes([], [])[0].shape == (0, 8, 8)
        with pytest.raises(ValueError):
            amplitudes([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="1-D"):
            amplitudes([[1.0]], [[1.0]])
        with pytest.raises(DomainError):
            amplitudes([-1.0], [1.0])
        with pytest.raises(DomainError):
            amplitudes([1.0], [0.0])

    def test_overflow_fails_the_flux_check_at_its_point(self):
        # g^4 overflows beyond u of about 1e76; no warning escapes, and the
        # nan is reported with its point, sector and bound
        with pytest.raises(NumericError) as info:
            amplitudes([1.0, 1e100], [1.0, math.pi])
        message = str(info.value)
        assert "doublet sector (incident channel 0)" in message
        assert "u = 1e+100" in message and f"theta = {math.pi!r}" in message
        assert "nan" in message and "1e-09" in message and "np.float64" not in message
