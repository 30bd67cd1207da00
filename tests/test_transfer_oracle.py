import math

import numpy as np
import pytest

from spinfp.closed_form import DimensionlessParams, t_quartet
from spinfp.errors import DomainError
from spinfp.spin_algebra import (
    compose_state,
    coupled_basis,
    spin_operators,
)
from spinfp.transfer_oracle import (
    FullScatteringMatrix,
    Impurity,
    ImpurityChain,
    oracle_scattering,
    two_impurity_chain,
)
from spinfp.waveguide_solver import solver_amplitudes


def random_chain(rng, n_sites):
    positions = np.sort(rng.uniform(0, 5, n_sites))
    while np.any(np.diff(positions) < 1e-3):
        positions = np.sort(rng.uniform(0, 5, n_sites))
    sites = tuple(
        Impurity(float(x), float(rng.uniform(0, 10)), int(rng.integers(1, 3)))
        for x in positions
    )
    return ImpurityChain(sites=sites, wave_number=float(rng.uniform(0.2, 6)))


class TestChainValidation:
    def test_positions_must_increase(self):
        with pytest.raises(DomainError):
            ImpurityChain(
                sites=(Impurity(1.0, 1.0, 1), Impurity(0.5, 1.0, 2)), wave_number=1.0
            )

    def test_wave_number_positive(self):
        with pytest.raises(DomainError):
            ImpurityChain(sites=(), wave_number=0.0)

    def test_strength_nonnegative(self):
        with pytest.raises(DomainError):
            Impurity(0.0, -1.0, 1)

    def test_spin_index(self):
        with pytest.raises(DomainError):
            Impurity(0.0, 1.0, 3)


class TestOracleScattering:
    def test_empty_chain_is_transparent(self):
        fsm = oracle_scattering(ImpurityChain(sites=(), wave_number=2.0))
        np.testing.assert_allclose(fsm.transmission, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(fsm.reflection, np.zeros((8, 8)), atol=1e-14)

    def test_unitarity_random_chains(self):
        rng = np.random.default_rng(31)
        for n_sites in (1, 2, 3):
            for _ in range(20):
                s = oracle_scattering(random_chain(rng, n_sites)).s_matrix()
                np.testing.assert_allclose(
                    s.conj().T @ s, np.eye(16), atol=1e-10
                )

    def test_single_impurity_channel_decomposition(self):
        # one scatterer: exact amplitudes per eigenchannel of its potential
        strength, k = 1.7, 0.9
        chain = ImpurityChain(sites=(Impurity(0.0, strength, 1),), wave_number=k)
        fsm = oracle_scattering(chain)
        v = strength * 2.0 * spin_operators().electron_dot_imp1
        lam, vecs = np.linalg.eigh(v)
        t_expected = vecs @ np.diag(1.0 / (1.0 + 0.5j * lam)) @ vecs.conj().T
        np.testing.assert_allclose(fsm.transmission, t_expected, atol=1e-10)

    def test_quartet_block_matches_closed_form(self):
        p = DimensionlessParams(3.0, 2.4)
        fsm = oracle_scattering(two_impurity_chain(p))
        b = coupled_basis().matrix
        t_coupled = b.conj().T @ fsm.transmission @ b
        np.testing.assert_allclose(
            t_coupled[:4, :4], t_quartet(p) * np.eye(4), atol=1e-10
        )

    def test_agrees_with_solver_pipeline(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = DimensionlessParams(rng.uniform(1e-6, 20), rng.uniform(1e-6, 2 * math.pi))
            fsm = oracle_scattering(two_impurity_chain(p))
            t_solver, r_solver = solver_amplitudes([p.u], [p.theta])
            np.testing.assert_allclose(fsm.transmission, t_solver[0], atol=1e-10)
            np.testing.assert_allclose(fsm.reflection, r_solver[0], atol=1e-10)

    def test_reciprocity(self):
        rng = np.random.default_rng(33)
        for n_sites in (1, 2, 3):
            fsm = oracle_scattering(random_chain(rng, n_sites))
            np.testing.assert_allclose(
                fsm.transmission_right, fsm.transmission.T, atol=1e-10
            )
            assert np.trace(
                fsm.transmission.conj().T @ fsm.transmission
            ).real == pytest.approx(
                np.trace(
                    fsm.transmission_right.conj().T @ fsm.transmission_right
                ).real,
                abs=1e-10,
            )

    def test_composition_of_separated_scatterers(self):
        # multiple-scattering series between the two sub-chains, resummed
        k = 1.3
        left = ImpurityChain(sites=(Impurity(0.0, 2.0, 1),), wave_number=k)
        right = ImpurityChain(sites=(Impurity(7.3, 0.8, 2),), wave_number=k)
        both = ImpurityChain(
            sites=left.sites + right.sites, wave_number=k
        )
        sa = oracle_scattering(left)
        sb = oracle_scattering(right)
        eye = np.eye(8)
        cavity = np.linalg.inv(eye - sa.reflection_right @ sb.reflection)
        t_total = sb.transmission @ cavity @ sa.transmission
        r_total = sa.reflection + sa.transmission_right @ sb.reflection @ cavity @ sa.transmission
        fsm = oracle_scattering(both)
        np.testing.assert_allclose(fsm.transmission, t_total, atol=1e-10)
        np.testing.assert_allclose(fsm.reflection, r_total, atol=1e-10)

    def test_pair_spin_conservation_only_on_resonance(self):
        ops = spin_operators()
        pair16 = np.kron(np.eye(2), ops.pair_spin_sq)

        def commutator(p):
            s = oracle_scattering(two_impurity_chain(p)).s_matrix()
            return np.linalg.norm(s @ pair16 - pair16 @ s)

        assert commutator(DimensionlessParams(10.0, math.pi)) < 1e-10
        assert commutator(DimensionlessParams(10.0, 2.0)) > 1e-3


class TestStacks:
    def test_stacked_oracle_equals_per_point_calls(self):
        rng = np.random.default_rng(35)
        u = rng.uniform(1e-6, 20.0, (5, 8))
        theta = rng.uniform(1e-6, 2 * math.pi, (5, 8))
        stacked = oracle_scattering(two_impurity_chain(DimensionlessParams(u, theta)))
        names = ("transmission", "reflection", "transmission_right", "reflection_right")
        for i in np.ndindex(u.shape):
            one = oracle_scattering(two_impurity_chain(DimensionlessParams(u[i], theta[i])))
            for name in names:
                block = getattr(stacked, name)
                assert block.shape == u.shape + (8, 8)
                assert np.max(np.abs(block[i] - getattr(one, name))) <= 1e-15

    def test_array_strengths_and_wave_number_broadcast(self):
        strengths = np.array([[0.5], [2.0], [7.0]])  # (3, 1) against k of shape (4,)
        k = np.array([0.3, 1.0, 2.5, 4.0])
        chain = ImpurityChain(
            sites=(Impurity(0.0, strengths, 1), Impurity(1.4, 2.0, 2)), wave_number=k
        )
        stacked = oracle_scattering(chain)
        assert stacked.transmission.shape == (3, 4, 8, 8)
        for i, j in np.ndindex(3, 4):
            one = ImpurityChain(
                sites=(Impurity(0.0, float(strengths[i, 0]), 1), Impurity(1.4, 2.0, 2)),
                wave_number=float(k[j]),
            )
            one_reflection = oracle_scattering(one).reflection
            assert np.max(np.abs(stacked.reflection[i, j] - one_reflection)) <= 1e-15

    def test_stacked_chain_validated_per_element(self):
        with pytest.raises(DomainError):
            Impurity(0.0, np.array([1.0, -1.0]), 1)
        with pytest.raises(DomainError):
            ImpurityChain(sites=(), wave_number=np.array([1.0, np.nan]))

    @pytest.mark.parametrize("u", [1e3, 1e4, 1e6])
    def test_unitary_at_strong_coupling(self, u):
        # the scattering-matrix check runs inside every call; the defect is
        # measured again here against a bound far below it
        for theta in np.random.default_rng(36).uniform(1e-6, 2 * math.pi, 40):
            chain = two_impurity_chain(DimensionlessParams(u, theta))
            s = oracle_scattering(chain).s_matrix()
            assert np.max(np.abs(s.conj().T @ s - np.eye(16))) < 1e-14


class TestOracleTransmittivity:
    def test_free_chain(self):
        chain = ImpurityChain(sites=(), wave_number=1.0)
        chi = compose_state([1, 0], [0, 1, 0, 0])
        amps = oracle_scattering(chain).transmission @ chi.amplitudes
        assert np.vdot(amps, amps).real == pytest.approx(1.0)

    def test_singlet_family_transparency(self):
        rng = np.random.default_rng(34)
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        for u in (1.0, 2.0, 10.0):
            chain = two_impurity_chain(DimensionlessParams(u, math.pi))
            for _ in range(5):
                raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                chi = compose_state(raw / np.linalg.norm(raw), singlet)
                amps = oracle_scattering(chain).transmission @ chi.amplitudes
                assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-10)

    def test_matches_pipeline_for_product_state(self):
        from spinfp.observables import scatter

        p = DimensionlessParams(1.0, math.pi / 2)
        chi = compose_state([1, 0], [0, 1, 0, 0])  # up, up, down
        amps = oracle_scattering(two_impurity_chain(p)).transmission @ chi.amplitudes
        state = scatter(chi, p)
        assert np.vdot(amps, amps).real == pytest.approx(state.transmittivity, abs=1e-10)
        np.testing.assert_allclose(amps, state.transmitted_product, atol=1e-10)


class TestFullScatteringMatrix:
    def test_unitarity_enforced_at_construction(self):
        from spinfp.errors import NumericError

        eye = np.eye(8)
        with pytest.raises(NumericError):
            FullScatteringMatrix(
                transmission=1.1 * eye,
                reflection=np.zeros((8, 8)),
                transmission_right=1.1 * eye,
                reflection_right=np.zeros((8, 8)),
            )

    def test_unitarity_failure_names_wave_number_defect_and_bound(self):
        from spinfp.errors import NumericError

        blocks = np.broadcast_to(np.eye(8), (3, 8, 8)).copy()
        blocks[1] *= 1.1
        zero = np.zeros((3, 8, 8))
        k = np.array([1.0, 2.5, 3.0])
        with pytest.raises(NumericError) as info:
            FullScatteringMatrix(blocks, zero, blocks, zero, wave_number=k)
        message = str(info.value)
        assert "wave number 2.5" in message and "2.100e-01" in message and "1e-10" in message
