import math

import numpy as np
import pytest

from spinfp.closed_form import DimensionlessParams, t_doublet, t_quartet
from spinfp.errors import DomainError, NumericError
from spinfp.spin_algebra import COUPLED_LABELS, coupled_basis
from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain
from spinfp.waveguide_solver import (
    _solve,
    _system,
    amplitudes,
    doublet_site_matrices,
    quartet_site_strengths,
)

SQ3 = math.sqrt(3.0)
DOUBLET = np.ix_((4, 6), (4, 6))  # the m = +1/2 block, indexed (out s_e2, in s_e2)


def random_params(rng, u_hi=20.0):
    return DimensionlessParams(rng.uniform(1e-6, u_hi), rng.uniform(1e-6, 2 * math.pi))


def point(p):
    """The kernel's (t, r) 8x8 matrices at one point."""
    t, r = amplitudes([p.u], [p.theta])
    return t[0], r[0]


class TestSiteMatrices:
    def test_quartet_strengths(self):
        assert quartet_site_strengths() == (0.25, 0.25)

    def test_doublet_site_one(self):
        w1, w2 = doublet_site_matrices()
        np.testing.assert_allclose(
            w1, np.array([[0.0, SQ3 / 4], [SQ3 / 4, -0.5]]), atol=1e-14
        )
        np.testing.assert_allclose(w2, np.diag([-0.75, 0.25]), atol=1e-14)


class TestQuartetSolve:
    def test_free_propagation(self):
        t, r = point(DimensionlessParams(0.0, 1.0))
        assert t[0, 0] == pytest.approx(1.0)
        assert r[0, 0] == pytest.approx(0.0)

    def test_flux_conservation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            t, r = point(random_params(rng))
            assert abs(t[0, 0]) ** 2 + abs(r[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = random_params(rng)
            assert abs(point(p)[0][0, 0] - t_quartet(p)) < 1e-10

    def test_residual_recorded(self):
        u, theta = np.array([10.0]), np.array([2.0])
        w1, w2 = quartet_site_strengths()
        phase = np.exp(-2j * theta)
        matrix, rhs = _system(phase, np.pi * u, np.array([[w1]]), np.array([[w2]]))
        x = _solve(matrix, rhs, u, theta, "quartet")
        assert np.linalg.norm(matrix @ x - rhs) < 1e-10


class TestDoubletSolve:
    def test_free_propagation_keeps_channel(self):
        t, _ = point(DimensionlessParams(0.0, 1.0))
        assert t[DOUBLET][1, 1] == pytest.approx(1.0)
        assert t[DOUBLET][0, 1] == pytest.approx(0.0)

    def test_flux_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t, r = point(random_params(rng))
            inc = int(rng.integers(0, 2))
            flux = np.sum(np.abs(t[DOUBLET][:, inc]) ** 2 + np.abs(r[DOUBLET][:, inc]) ** 2)
            assert flux == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_columns(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            p = random_params(rng)
            expected = t_doublet(p)
            t = point(p)[0][DOUBLET]
            for inc in (0, 1):
                assert abs(t[0, inc] - expected[0, inc]) < 1e-10
                assert abs(t[1, inc] - expected[1, inc]) < 1e-10

    def test_transparency_relation_on_resonance(self):
        # the (1, sqrt(3))/2 direction is transmitted with eigenvalue one
        v = np.array([0.5, SQ3 / 2])
        t = point(DimensionlessParams(4.0, math.pi))[0][DOUBLET]
        np.testing.assert_allclose(t @ v, v, atol=1e-12)

    def test_channel_coupling_comes_from_off_diagonal(self):
        # zeroing the site-1 off-diagonal element decouples the channels
        p = DimensionlessParams(2.0, 1.2)
        w1, w2 = doublet_site_matrices()
        w1_cut = np.array(w1)
        w1_cut[0, 1] = w1_cut[1, 0] = 0.0
        matrix, rhs = _system(np.exp([-2j * p.theta]), np.array([p.g]), w1_cut, w2)
        x = np.linalg.solve(matrix, rhs)[0, :, 1]  # incident channel 1
        assert abs(x[3]) < 1e-14   # t of channel 0 under incident channel 1
        assert abs(x[7]) > 0.1

    def test_one_percent_perturbation_breaks_oracle_agreement(self):
        p = DimensionlessParams(2.0, 1.2)
        w1, w2 = doublet_site_matrices()
        w1_bad = np.array(w1)
        w1_bad[0, 1] *= 1.01
        w1_bad[1, 0] *= 1.01
        matrix, rhs = _system(np.exp([-2j * p.theta]), np.array([p.g]), w1_bad, w2)
        x = np.linalg.solve(matrix, rhs)[0, :, 1]  # incident channel 1
        oracle = oracle_scattering(two_impurity_chain(p))
        b = coupled_basis().matrix
        t_oracle = b.conj().T @ oracle.transmission @ b
        # coupled labels 4 and 6 share m = +1/2; incident channel s_e2 = 1
        assert abs(x[3] - t_oracle[4, 6]) > 1e-6


class TestScatteringMatrices:
    def test_identity_at_zero_coupling(self):
        t, r = point(DimensionlessParams(0.0, 1.0))
        np.testing.assert_allclose(t, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(r, np.zeros((8, 8)), atol=1e-14)

    def test_block_structure(self):
        t, r = point(DimensionlessParams(5.0, 2.3))
        for i, li in enumerate(COUPLED_LABELS):
            for j, lj in enumerate(COUPLED_LABELS):
                if (li.s, li.m) != (lj.s, lj.m):
                    assert t[i, j] == 0.0
                    assert r[i, j] == 0.0

    def test_unitarity(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            t, r = point(random_params(rng))
            np.testing.assert_allclose(
                t.conj().T @ t + r.conj().T @ r, np.eye(8), atol=1e-10
            )

    def test_m_degenerate_blocks_identical(self):
        t, r = point(DimensionlessParams(3.0, 1.9))
        up = np.ix_((4, 6), (4, 6))
        down = np.ix_((5, 7), (5, 7))
        np.testing.assert_allclose(t[up], t[down], atol=1e-12)
        np.testing.assert_allclose(r[up], r[down], atol=1e-12)

    def test_unit_eigenvalue_multiplicity_on_resonance(self):
        for u in (0.5, 7.0, 40.0):
            t, _ = point(DimensionlessParams(u, math.pi))
            assert np.count_nonzero(np.abs(np.linalg.eigvals(t) - 1) < 1e-8) >= 2


def kernel_draws(n=500):
    """Seeded points with u in [1e-6, 20] and theta in (0, 4 pi], plus exact n pi."""
    rng = np.random.default_rng(26)
    u = rng.uniform(1e-6, 20.0, n)
    theta = 4 * math.pi - rng.uniform(0.0, 4 * math.pi, n)  # (0, 4 pi]
    resonant = np.arange(1, 5) * math.pi
    return np.concatenate([u, [0.5, 3.0, 20.0, 1e-6]]), np.concatenate([theta, resonant])


class TestAmplitudes:
    def test_matches_closed_form_and_oracle(self):
        u, theta = kernel_draws()
        p = DimensionlessParams(u, theta)
        t, r = amplitudes(u, theta)
        b = coupled_basis().matrix
        worst_closed = max(
            np.max(np.abs(t[:, 0, 0] - t_quartet(p))),
            np.max(np.abs(t[:, DOUBLET[0], DOUBLET[1]] - t_doublet(p))),
        )
        full = oracle_scattering(two_impurity_chain(p))
        worst_oracle = max(
            np.max(np.abs(b.conj().T @ full.transmission @ b - t)),
            np.max(np.abs(b.conj().T @ full.reflection @ b - r)),
        )
        assert worst_closed < 1e-13
        assert worst_oracle < 1e-13

    def test_matches_high_precision_closed_form_over_many_periods(self):
        # with k divided out of the matching conditions the error does not
        # grow with theta; the reference is the closed form at 40 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        rng = np.random.default_rng(27)
        u = np.full(400, 100.0)
        theta = rng.uniform(1.0, 1000 * math.pi, 400)
        t, _ = amplitudes(u, theta)
        worst = 0.0
        for i in range(len(u)):
            g = mp.pi * mp.mpf(u[i])
            rg = (mp.expj(2 * mp.mpf(theta[i])) - 1) * g
            quartet = 64 / (64 + g * (16j + rg))
            den = 4096 + g * (-2048j + rg * (-128 + 96j * g + 9 * rg * g))
            root3 = mp.sqrt(3)
            doublet = [
                [128 * (32 - 4j * g - rg * g), -64 * root3 * g * (8j + rg)],
                [64 * root3 * g * (3 * rg - 8j), 512 * (8 - 3j * g)],
            ]
            kernel = t[i][DOUBLET]
            worst = max(
                worst,
                abs(complex(t[i, 0, 0]) - quartet),
                *(abs(complex(kernel[a, b]) - doublet[a][b] / den)
                  for a in (0, 1) for b in (0, 1)),
            )
        assert worst < 1e-13

    def test_single_point_matches_batch(self):
        u, theta = kernel_draws(60)
        t, r = amplitudes(u, theta)
        for i in range(len(u)):
            t1, r1 = amplitudes(u[i:i + 1], theta[i:i + 1])
            assert np.max(np.abs(t1[0] - t[i])) <= 1e-15
            assert np.max(np.abs(r1[0] - r[i])) <= 1e-15

    def test_flux_defect(self):
        u, theta = kernel_draws()
        t, r = amplitudes(u, theta)
        dagger = np.conj(np.swapaxes(t, 1, 2)), np.conj(np.swapaxes(r, 1, 2))
        defect = dagger[0] @ t + dagger[1] @ r - np.eye(8)
        assert np.max(np.linalg.norm(defect, axis=(1, 2))) <= 1e-10

    def test_shape_and_domain_validation(self):
        assert amplitudes([], [])[0].shape == (0, 8, 8)
        with pytest.raises(ValueError):
            amplitudes([1.0, 2.0], [1.0])
        with pytest.raises(DomainError):
            amplitudes([-1.0], [1.0])
        with pytest.raises(DomainError):
            amplitudes([1.0], [0.0])

    def test_flux_failure_names_point_sector_and_bound(self):
        # strong coupling at a resonance breaks the doublet flux check
        with pytest.raises(NumericError) as info:
            amplitudes([1e6], [math.pi])
        message = str(info.value)
        assert "doublet sector (incident channel" in message
        assert "u = 1000000.0" in message and f"theta = {math.pi!r}" in message
        assert "1e-09" in message and "np.float64" not in message
