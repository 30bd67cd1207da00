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
                wave_number=1.0,
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

    NAMES = ("transmission", "reflection", "transmission_right", "reflection_right")

    @pytest.fixture(scope="class")
    def unitary_stack(self):
        """The oracle's blocks on criterion 1's 1000 points, and their wave numbers."""
        from spinfp.scenarios.verify import _SEED, _random_points

        u, theta = _random_points(np.random.default_rng(_SEED), 1000).T
        fsm = oracle_scattering(two_impurity_chain(DimensionlessParams(u, theta)))
        return {name: np.array(getattr(fsm, name)) for name in self.NAMES}, theta

    @staticmethod
    def broken_blocks(blocks, point):
        """Which blocks of S^H S - I exceed the tolerance at ``point``: (row, column)
        pairs, 0 for left incidence and 1 for right."""
        b = {name: block[point] for name, block in blocks.items()}
        s = np.block([[b["reflection"], b["transmission_right"]],
                      [b["transmission"], b["reflection_right"]]])
        gram = s.conj().T @ s - np.eye(16)
        return {(i, j) for i in (0, 1) for j in (0, 1)
                if np.max(np.abs(gram[8 * i:8 * i + 8, 8 * j:8 * j + 8])) > 1e-10}

    def assert_refused_at(self, blocks, theta, point):
        from spinfp.errors import NumericError

        with pytest.raises(NumericError) as info:
            FullScatteringMatrix(*(blocks[name] for name in self.NAMES), wave_number=theta)
        assert f"not unitary at wave number {float(theta[point])!r}: defect " in str(info.value)

    def test_unperturbed_stack_passes(self, unitary_stack):
        blocks, theta = unitary_stack
        FullScatteringMatrix(*(blocks[name] for name in self.NAMES), wave_number=theta)

    @pytest.mark.parametrize("name", NAMES)
    def test_one_entry_off_by_1e_9_is_refused(self, unitary_stack, name):
        # 1e-9 i on one entry moves that column and row of S^H S by 1e-9 times
        # a row of S, whose largest modulus is at least 1/4: a defect >= 2.5e-10
        blocks, theta = unitary_stack
        blocks, point = dict(blocks), 617
        blocks[name] = blocks[name].copy()
        blocks[name][point, 2, 1] += 1e-9j
        assert self.broken_blocks(blocks, point)
        self.assert_refused_at(blocks, theta, point)

    @pytest.mark.parametrize("names, scale, broken", [
        # a column of S scaled: only its diagonal block of S^H S breaks
        (("reflection", "transmission"), 1 + 1e-9, {(0, 0)}),
        (("transmission_right", "reflection_right"), 1 + 1e-9, {(1, 1)}),
        # one block of a column turned by a phase: only the off-diagonal blocks
        (("transmission",), np.exp(1e-3j), {(0, 1), (1, 0)}),
        (("reflection",), np.exp(1e-3j), {(0, 1), (1, 0)}),
        (("transmission_right",), np.exp(1e-3j), {(0, 1), (1, 0)}),
        (("reflection_right",), np.exp(1e-3j), {(0, 1), (1, 0)}),
    ])
    def test_each_block_of_the_gram_matrix_is_checked(self, unitary_stack, names, scale,
                                                      broken):
        blocks, theta = unitary_stack
        blocks, point = dict(blocks), 383
        for name in names:
            blocks[name] = blocks[name].copy()
            blocks[name][point] *= scale
        assert self.broken_blocks(blocks, point) == broken
        self.assert_refused_at(blocks, theta, point)

    def test_check_holds_no_full_size_stack(self):
        """``oracle_scattering`` on criterion 1's first 256 points: the tracemalloc
        peak stays below 16 stacks of (256, 8, 8) complex, 4.19 MB.  A check that
        builds the 16x16 S, S^H S, S^H S - I and its modulus peaked at 4.72 MB;
        the blockwise check reads 3.42 MB with numpy 2.4 on x86-64, a margin of
        0.77 MB."""
        import tracemalloc

        from spinfp.scenarios.verify import _SEED, _random_points

        u, theta = _random_points(np.random.default_rng(_SEED), 256).T
        chain = two_impurity_chain(DimensionlessParams(u, theta))
        oracle_scattering(chain)  # warm caches
        tracemalloc.start()
        try:
            oracle_scattering(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 256 * 8 * 8 * 16


def empty_wire_composition(chain):
    """The sites starred in order onto the empty wire, the star product's
    identity: the composition before the oracle started from its first site."""
    from spinfp.transfer_oracle import _star

    ops = spin_operators()
    k = np.asarray(chain.wave_number, dtype=float)[..., None, None]
    eye = np.eye(8, dtype=complex)
    free = np.broadcast_to(eye, k.shape[:-2] + eye.shape)
    blocks = (free, 0 * free, free, 0 * free)
    with np.errstate(over="ignore", invalid="ignore"):
        for site in chain.sites:
            dot = ops.electron_dot_imp1 if site.spin_index == 1 else ops.electron_dot_imp2
            t = np.linalg.inv(eye + 0.5j * np.multiply.outer(site.strength, 2.0 * dot))
            r = t - eye
            phase = np.exp(2j * k * site.position)
            blocks = _star(blocks, (t, r * phase, t, r / phase))
    return blocks


class TestFirstSiteComposition:
    """Starting from the first site's blocks gives the empty-wire composition
    exactly; only the signs of some zeros may differ."""

    @staticmethod
    def assert_same_blocks(chain):
        fsm = oracle_scattering(chain)
        names = ("transmission", "reflection", "transmission_right", "reflection_right")
        for name, expected in zip(names, empty_wire_composition(chain)):
            block = getattr(fsm, name)
            assert block.shape == expected.shape
            assert np.max(np.abs(block - expected)) == 0.0

    def test_on_criterion_1_points(self):
        from spinfp.scenarios.verify import _SEED, _random_points

        u, theta = _random_points(np.random.default_rng(_SEED), 1000).T
        for s in (slice(0, 256), slice(256, 512), slice(512, 768), slice(768, 1000)):
            self.assert_same_blocks(two_impurity_chain(DimensionlessParams(u[s], theta[s])))

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    def test_on_random_chains(self, n_sites):
        rng = np.random.default_rng(40 + n_sites)
        for _ in range(20):
            self.assert_same_blocks(random_chain(rng, n_sites))

    def test_one_site_broadcasts_strengths_and_wave_numbers(self):
        strengths = np.array([[0.5], [2.0], [7.0]])
        for k in (1.3, np.array([0.3, 1.0, 2.5, 4.0])):
            for strength in (2.0, strengths):
                chain = ImpurityChain(sites=(Impurity(0.4, strength, 1),), wave_number=k)
                self.assert_same_blocks(chain)
