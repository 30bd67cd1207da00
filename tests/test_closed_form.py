import cmath
import math

import numpy as np
import pytest

from spinfp.closed_form import (
    DimensionlessParams,
    det_t_minus_identity,
    t_doublet,
    t_quartet,
)
from spinfp.errors import DomainError
from spinfp.waveguide_solver import amplitudes

DOUBLET = np.ix_((4, 6), (4, 6))  # the m = +1/2 block of the kernel's matrices


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

    def test_zero_coupling_allowed(self):
        assert DimensionlessParams(0.0, 1.0).u == 0.0


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

    def test_matches_solver_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = DimensionlessParams(rng.uniform(1e-6, 20), rng.uniform(1e-6, 2 * math.pi))
            solver_t = amplitudes([p.u], [p.theta])[0][0]
            np.testing.assert_allclose(t_doublet(p), solver_t[DOUBLET], atol=1e-10)
            assert abs(t_quartet(p) - solver_t[0, 0]) < 1e-10


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


class TestChannelAmplitudes:
    def test_assembled_amplitudes_subunitary(self):
        # closed-form t together with the kernel's r
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = DimensionlessParams(rng.uniform(0, 20), rng.uniform(0.01, 6))
            r = amplitudes([p.u], [p.theta])[1][0]
            tq = t_quartet(p)
            quartet = math.hypot(abs(tq), abs(r[0, 0]))
            stacked = np.vstack([t_doublet(p), r[DOUBLET]])
            largest = max(quartet, float(np.linalg.svd(stacked, compute_uv=False)[0]))
            assert abs(tq) <= 1 + 1e-12
            assert largest <= 1 + 1e-12
            # flux conservation makes every singular value exactly one
            assert largest == pytest.approx(1.0, abs=1e-10)
