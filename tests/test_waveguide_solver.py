import math

import numpy as np
import pytest

from spinfp.closed_form import DimensionlessParams, t_doublet, t_quartet
from spinfp.errors import DomainError, NumericError
from spinfp.spin_algebra import COUPLED_LABELS, coupled_basis
from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain
from spinfp.waveguide_solver import (
    _doublet_system,
    amplitudes,
    doublet_matrices,
    doublet_site_matrices,
    quartet_site_strengths,
    scattering_matrices,
    solve_doublet,
    solve_quartet,
)

SQ3 = math.sqrt(3.0)


def random_params(rng, u_hi=20.0):
    return DimensionlessParams(rng.uniform(1e-6, u_hi), rng.uniform(1e-6, 2 * math.pi))


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
        sol = solve_quartet(DimensionlessParams(0.0, 1.0))
        assert sol.channels[1].t == pytest.approx(1.0)
        assert sol.channels[1].b_left == pytest.approx(0.0)

    def test_flux_conservation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            sol = solve_quartet(random_params(rng))
            c = sol.channels[1]
            assert abs(c.t) ** 2 + abs(c.b_left) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = random_params(rng)
            assert abs(solve_quartet(p).channels[1].t - t_quartet(p)) < 1e-10

    def test_residual_recorded(self):
        sol = solve_quartet(DimensionlessParams(10.0, 2.0))
        assert sol.residual < 1e-10


class TestDoubletSolve:
    def test_free_propagation_keeps_channel(self):
        sol = solve_doublet(DimensionlessParams(0.0, 1.0), incident=1)
        assert sol.channels[1].t == pytest.approx(1.0)
        assert sol.channels[0].t == pytest.approx(0.0)

    def test_flux_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            sol = solve_doublet(random_params(rng), incident=int(rng.integers(0, 2)))
            flux = sum(
                abs(c.t) ** 2 + abs(c.b_left) ** 2 for c in sol.channels.values()
            )
            assert flux == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_columns(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            p = random_params(rng)
            expected = t_doublet(p)
            for inc in (0, 1):
                sol = solve_doublet(p, incident=inc)
                assert abs(sol.channels[0].t - expected[0, inc]) < 1e-10
                assert abs(sol.channels[1].t - expected[1, inc]) < 1e-10

    def test_transparency_relation_on_resonance(self):
        # the (1, sqrt(3))/2 direction is transmitted with eigenvalue one
        v = np.array([0.5, SQ3 / 2])
        t, _ = doublet_matrices(DimensionlessParams(4.0, math.pi))
        np.testing.assert_allclose(t @ v, v, atol=1e-12)

    def test_incident_validation(self):
        with pytest.raises(ValueError):
            solve_doublet(DimensionlessParams(1.0, 1.0), incident=2)

    def test_channel_coupling_comes_from_off_diagonal(self):
        # zeroing the site-1 off-diagonal element decouples the channels
        p = DimensionlessParams(2.0, 1.2)
        w1, w2 = doublet_site_matrices()
        w1_cut = np.array(w1)
        w1_cut[0, 1] = w1_cut[1, 0] = 0.0
        matrix, rhs = _doublet_system(np.array([p.theta]), np.array([p.g]), w1_cut, w2)
        x = np.linalg.solve(matrix, rhs)[0, :, 1]  # incident channel 1
        assert abs(x[3]) < 1e-14   # t of channel 0 under incident channel 1
        assert abs(x[7]) > 0.1

    def test_one_percent_perturbation_breaks_oracle_agreement(self):
        p = DimensionlessParams(2.0, 1.2)
        w1, w2 = doublet_site_matrices()
        w1_bad = np.array(w1)
        w1_bad[0, 1] *= 1.01
        w1_bad[1, 0] *= 1.01
        matrix, rhs = _doublet_system(np.array([p.theta]), np.array([p.g]), w1_bad, w2)
        x = np.linalg.solve(matrix, rhs)[0, :, 1]  # incident channel 1
        oracle = oracle_scattering(two_impurity_chain(p))
        b = coupled_basis().matrix
        t_oracle = b.conj().T @ oracle.transmission @ b
        # coupled labels 4 and 6 share m = +1/2; incident channel s_e2 = 1
        assert abs(x[3] - t_oracle[4, 6]) > 1e-6


class TestScatteringMatrices:
    def test_identity_at_zero_coupling(self):
        t, r = scattering_matrices(DimensionlessParams(0.0, 1.0))
        np.testing.assert_allclose(t, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(r, np.zeros((8, 8)), atol=1e-14)

    def test_block_structure(self):
        t, r = scattering_matrices(DimensionlessParams(5.0, 2.3))
        for i, li in enumerate(COUPLED_LABELS):
            for j, lj in enumerate(COUPLED_LABELS):
                if (li.s, li.m) != (lj.s, lj.m):
                    assert t[i, j] == 0.0
                    assert r[i, j] == 0.0

    def test_unitarity(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            t, r = scattering_matrices(random_params(rng))
            np.testing.assert_allclose(
                t.conj().T @ t + r.conj().T @ r, np.eye(8), atol=1e-10
            )

    def test_m_degenerate_blocks_identical(self):
        t, r = scattering_matrices(DimensionlessParams(3.0, 1.9))
        up = np.ix_((4, 6), (4, 6))
        down = np.ix_((5, 7), (5, 7))
        np.testing.assert_allclose(t[up], t[down], atol=1e-12)
        np.testing.assert_allclose(r[up], r[down], atol=1e-12)

    def test_unit_eigenvalue_multiplicity_on_resonance(self):
        for u in (0.5, 7.0, 40.0):
            t, _ = scattering_matrices(DimensionlessParams(u, math.pi))
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
        t, r = amplitudes(u, theta)
        b = coupled_basis().matrix
        doublet = np.ix_((4, 6), (4, 6))
        worst_closed = worst_oracle = 0.0
        for i in range(len(u)):
            p = DimensionlessParams(u[i], theta[i])
            worst_closed = max(
                worst_closed,
                abs(t[i, 0, 0] - t_quartet(p)),
                np.max(np.abs(t[i][doublet] - t_doublet(p))),
            )
            full = oracle_scattering(two_impurity_chain(p))
            worst_oracle = max(
                worst_oracle,
                np.max(np.abs(b.conj().T @ full.transmission @ b - t[i])),
                np.max(np.abs(b.conj().T @ full.reflection @ b - r[i])),
            )
        assert worst_closed < 1e-13
        # the transfer-matrix products lose accuracy roughly as u^2: about
        # 1.4e-13 at u = 20, against 5e-14 for the closed form
        assert worst_oracle < 1e-12

    def test_single_point_matches_batch(self):
        u, theta = kernel_draws(60)
        t, r = amplitudes(u, theta)
        for i in range(len(u)):
            t1, r1 = scattering_matrices(DimensionlessParams(u[i], theta[i]))
            assert np.max(np.abs(t1 - t[i])) <= 1e-15
            assert np.max(np.abs(r1 - r[i])) <= 1e-15

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
            amplitudes([1e4], [math.pi])
        message = str(info.value)
        assert "doublet sector (incident channel" in message
        assert "u = 10000.0" in message and f"theta = {math.pi!r}" in message
        assert "1e-09" in message and "np.float64" not in message
