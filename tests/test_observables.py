import math

import numpy as np
import pytest

from spinfp.closed_form import DimensionlessParams, amplitudes, t_doublet, t_quartet
from spinfp import observables
from spinfp.errors import DomainError, NumericError
from spinfp.observables import (
    concurrence,
    fixed_point_subspace,
    observable_table,
    postselect,
    scatter,
    symmetry_report,
)
from spinfp.spin_algebra import (
    SpinVector,
    compose_state,
    coupled_basis,
)
from spinfp.scenarios.config import build_config
from spinfp.scenarios.states import electron_state, incident_state, one_up_family
from spinfp.scenarios.sweeps import run_sweep

SQ2 = math.sqrt(2.0)
SINGLET = np.array([0, 1, -1, 0]) / SQ2
TRIPLET = np.array([0, 1, 1, 0]) / SQ2


def random_state(rng):
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return SpinVector(raw / np.linalg.norm(raw))


class TestScatter:
    def test_singlet_transmitted_unchanged(self):
        chi = compose_state([1, 0], SINGLET)
        state = scatter(chi, DimensionlessParams(10.0, math.pi))
        assert state.transmittivity == pytest.approx(1.0, abs=1e-10)
        fid = abs(np.vdot(chi.amplitudes, state.transmitted_product)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_triplet_support_on_resonance(self):
        # transmitted wave stays in span{|up>|triplet>, |down>|uu>}
        chi = compose_state([1, 0], TRIPLET)
        state = scatter(chi, DimensionlessParams(10.0, math.pi))
        kets = [np.kron([1, 0], TRIPLET), np.kron([0, 1], [1, 0, 0, 0])]
        inside = sum(np.vdot(k, state.transmitted_product) * np.asarray(k) for k in kets)
        assert np.linalg.norm(state.transmitted_product - inside) < 1e-10

    def test_aligned_state_is_single_channel(self):
        p = DimensionlessParams(6.0, 0.9)
        chi = compose_state([1, 0], [1, 0, 0, 0])
        state = scatter(chi, p)
        assert state.transmittivity == pytest.approx(abs(t_quartet(p)) ** 2, abs=1e-12)
        # no spin-flip: transmitted state parallel to the incident one
        overlap = abs(np.vdot(chi.amplitudes, state.transmitted_product))
        assert overlap == pytest.approx(abs(t_quartet(p)), abs=1e-12)

    def test_probability_balance(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = DimensionlessParams(rng.uniform(1e-6, 20), rng.uniform(1e-6, 2 * math.pi))
            state = scatter(random_state(rng), p)
            assert state.transmittivity + state.reflectivity == pytest.approx(
                1.0, abs=1e-10
            )

    def test_balance_failure_is_located(self, monkeypatch):
        def unbalanced(u, theta):
            t, r = amplitudes(u, theta)
            return t, 1.001 * r

        monkeypatch.setattr(observables, "amplitudes", unbalanced)
        with pytest.raises(NumericError) as info:
            scatter(compose_state([1, 0], [0, 1, 0, 0]), DimensionlessParams(2.0, 1.5))
        message = str(info.value)
        assert "u = 2.0, theta = 1.5" in message and "1e-10" in message

    def test_matches_sweep_rows_bit_for_bit(self):
        # scatter is one row of the sweep's row builder, not a second derivation
        cfg = build_config({"scenario": "fig2a", "impurity_state": "psi+",
                            "electron_spin": "0.6,0.8j", "theta_steps": "40",
                            "u_list": "0.5,7"})
        chi = incident_state(cfg.electron_spin, cfg.impurity_state)
        rows = run_sweep(cfg).rows
        for row in rows[::9]:
            theta, u, t_total, t_up, t_down, *amps, r_total = row
            state = scatter(chi, DimensionlessParams(u, theta))
            assert (state.transmittivity, state.transmitted_up, state.transmitted_down,
                    state.reflectivity) == (t_total, t_up, t_down, r_total)
            assert state.transmitted_product.view(np.float64).tolist() == amps

    def test_transmitted_coefficients_follow_channel_amplitudes(self):
        # per-channel composition: gamma = t^(in; s) <in; s, m | chi>
        p = DimensionlessParams(3.0, 2.0)
        chi = random_state(np.random.default_rng(42))
        basis = coupled_basis()
        coeffs = basis.to_coupled(chi)
        t2 = t_doublet(p)
        tq = t_quartet(p)
        state = scatter(chi, p)
        transmitted = basis.to_coupled(state.transmitted_product)
        for j, lab in enumerate(basis.labels):
            if lab.s == 1.5:
                expected = tq * coeffs[j]
            else:
                row = lab.s_e2
                expected = sum(
                    t2[row, inc] * coeffs[basis.index(inc, 0.5, lab.m)]
                    for inc in (0, 1)
                )
            assert abs(transmitted[j] - expected) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            scatter(SpinVector(np.ones(8)), DimensionlessParams(1, 1))


class TestObservableTable:
    def test_broadcast_grid_matches_single_row_calls(self):
        # matrices (P, 1, 8, 8) by states (S, 8): a (P, S) grid, bit for bit
        rng = np.random.default_rng(7)
        u, theta = rng.uniform(0.01, 20, 5), rng.uniform(0.1, 4 * math.pi, 5)
        t, r = amplitudes(u, theta)
        coeffs = coupled_basis().to_coupled([random_state(rng).amplitudes for _ in range(3)])
        grid = observable_table(t[:, None], r[:, None], coeffs, u[:, None], theta[:, None])
        assert grid.shape == (5, 3, len(observables.OBSERVABLE_COLUMNS))
        for p in range(5):
            for s in range(3):
                row = observable_table(t[p:p + 1], r[p:p + 1], coeffs[s:s + 1], u[p], theta[p])
                assert row[0].tobytes() == grid[p, s].tobytes()

    def test_fortran_ordered_states_give_the_c_ordered_bytes(self):
        # a family grid on four columns (a complex electron times family2 pairs):
        # the strided states of a Fortran-ordered copy would sum the outgoing
        # kets in another order, and change some cells' last bits
        vartheta, phi = np.meshgrid(np.linspace(0, math.pi / 2, 21),
                                    np.linspace(0, 2 * math.pi, 11), indexing="ij")
        electron = electron_state("0.6+0.1j,0.8")
        chi = np.kron([electron], one_up_family(vartheta.ravel(), phi.ravel()))
        used = np.flatnonzero(np.any(chi, axis=0))
        assert len(used) == 4
        chi = chi.take(used, axis=-1)
        u, theta = np.array([2.0]), np.array([math.pi])
        t, r = amplitudes(u, theta, used)
        c_ordered = observable_table(t, r, chi, u, theta)
        fortran = observable_table(t, r, np.asfortranarray(chi), u, theta)
        assert fortran.tobytes() == c_ordered.tobytes()


class TestPolarized:
    def test_zero_coupling_keeps_electron_spin(self):
        chi = compose_state([1, 0], [0, 0, 1, 0])
        p = DimensionlessParams(0.0, 1.0)
        state = scatter(chi, p)
        assert state.transmitted_up == pytest.approx(1.0)
        assert state.transmitted_down == pytest.approx(0.0)

    def test_up_down_split_total(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = DimensionlessParams(rng.uniform(0, 20), rng.uniform(0.01, 6))
            chi = random_state(rng)
            state = scatter(chi, p)
            assert state.transmitted_up + state.transmitted_down == pytest.approx(
                state.transmittivity, abs=1e-12
            )

    def test_spin_flip_probability_exceeds_20_percent(self):
        chi = compose_state([1, 0], [0, 0, 0, 1])
        t_down = scatter(chi, DimensionlessParams(1.0, math.pi)).transmitted_down
        assert t_down > 0.2

    def test_spin_flip_probability_closed_form(self):
        # resonant analytic answer: 8 g^2 / ((16 + g^2)(4 + g^2))
        chi = compose_state([1, 0], [0, 0, 0, 1])
        for u in (0.3, 0.9, 2.0, 5.0):
            g = math.pi * u
            expected = 8 * g * g / ((16 + g * g) * (4 + g * g))
            t_down = scatter(chi, DimensionlessParams(u, math.pi)).transmitted_down
            assert t_down == pytest.approx(expected, abs=1e-12)

    def test_filtered_below_total_for_triplet(self):
        chi = compose_state([1, 0], TRIPLET)
        p = DimensionlessParams(2.0, math.pi)
        state = scatter(chi, p)
        assert state.transmitted_up < state.transmittivity

    def test_outcome_validation(self):
        chi = compose_state([1, 0], [1, 0, 0, 0])
        with pytest.raises(DomainError):
            postselect(scatter(chi, DimensionlessParams(1, 1)), "sideways")


class TestPostselect:
    def test_projects_impurities_on_triplet(self):
        chi = compose_state([1, 0], [0, 0, 0, 1])
        for u in (0.5, 1.0, 4.0):
            state = scatter(chi, DimensionlessParams(u, math.pi))
            res = postselect(state, "down")
            assert res.has_support
            assert res.concurrence == pytest.approx(1.0, abs=1e-10)
            fid = abs(np.vdot(TRIPLET, res.impurity_state)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-10)
            assert res.probability == pytest.approx(state.transmitted_down, abs=1e-14)

    def test_outcome_probabilities_sum_to_transmittivity(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = DimensionlessParams(rng.uniform(0, 20), rng.uniform(0.01, 6))
            state = scatter(random_state(rng), p)
            total = (
                postselect(state, "up").probability
                + postselect(state, "down").probability
            )
            assert total == pytest.approx(state.transmittivity, abs=1e-12)

    def test_no_support_flag(self):
        state = scatter(compose_state([1, 0], [1, 0, 0, 0]), DimensionlessParams(1.0, math.pi))
        res = postselect(state, "down")
        assert not res.has_support
        assert res.probability == pytest.approx(0.0, abs=1e-14)
        assert res.impurity_state is None

    def test_off_resonance_is_not_maximally_entangled(self):
        chi = compose_state([1, 0], [0, 0, 0, 1])
        state = scatter(chi, DimensionlessParams(1.0, 1.0))
        res = postselect(state, "down")
        assert res.has_support
        assert res.concurrence < 1.0 - 1e-6


class TestConcurrence:
    def test_product_state(self):
        assert concurrence(np.array([1, 0, 0, 0], dtype=complex)) == pytest.approx(0.0)

    def test_bell_state(self):
        assert concurrence(TRIPLET.astype(complex)) == pytest.approx(1.0)

    def test_two_amplitude_form(self):
        b, c = 0.8, 0.6 * 1j
        state = np.array([0, b, c, 0])
        expected = 2 * abs(b) * abs(c) / (abs(b) ** 2 + abs(c) ** 2)
        assert concurrence(state) == pytest.approx(expected, abs=1e-12)

    def test_shape_validation(self):
        for shape in ((3,), (4, 4)):  # a pure 4-vector only: a density matrix is refused
            with pytest.raises(DomainError):
                concurrence(np.ones(shape))


class TestFixedPointSubspace:
    def test_resonant_dimension_and_span(self):
        subspace_angles = pytest.importorskip("scipy.linalg").subspace_angles

        dim, vecs = fixed_point_subspace(DimensionlessParams(7.0, math.pi))
        assert dim == 2
        target = np.column_stack([np.kron([1, 0], SINGLET), np.kron([0, 1], SINGLET)])
        assert np.max(subspace_angles(vecs, target)) < 1e-6

    def test_generic_phase_has_none(self):
        assert fixed_point_subspace(DimensionlessParams(7.0, 2.0))[0] == 0

    def test_free_wire_is_fully_transparent(self):
        assert fixed_point_subspace(DimensionlessParams(0.0, 1.0))[0] == 8

    def test_stack_equals_per_point_calls(self):
        rng = np.random.default_rng(17)
        n, u = np.meshgrid([1, 2, 3], [0.5, 3.0, 40.0], indexing="ij")
        u = np.concatenate([u.ravel(), rng.uniform(0.5, 20.0, 10)])
        theta = np.concatenate([n.ravel() * math.pi, rng.uniform(0.05, math.pi - 0.05, 10)])
        dims, vecs = fixed_point_subspace(DimensionlessParams(u, theta))
        assert dims.dtype.kind == "i" and dims.tolist() == [2] * 9 + [0] * 10
        assert len(vecs) == len(u) and vecs[-1].shape == (8, 0)
        for i in range(len(u)):
            dim, v = fixed_point_subspace(DimensionlessParams(float(u[i]), float(theta[i])))
            assert isinstance(dim, int) and dim == dims[i]
            assert vecs[i].shape == v.shape == (8, dim)
            np.testing.assert_allclose(
                vecs[i] @ vecs[i].conj().T, v @ v.conj().T, rtol=0, atol=1e-13
            )


class TestSymmetryReport:
    def test_always_conserved(self):
        rep = symmetry_report(DimensionlessParams(10.0, 2.0))
        assert rep.total_spin_sq < 1e-10
        assert rep.total_sz < 1e-12

    def test_pair_spin_on_and_off_resonance(self):
        assert symmetry_report(DimensionlessParams(10.0, math.pi)).pair_spin_sq < 1e-10
        assert symmetry_report(DimensionlessParams(10.0, 2.0)).pair_spin_sq > 1e-3

    def test_pair_channel_spin_generally_broken(self):
        assert symmetry_report(DimensionlessParams(10.0, 2.0)).electron_imp2_sq > 1e-3


class TestTransparencyProperties:
    def test_coupling_independent_transparency(self):
        chi = compose_state([1, 0], SINGLET)
        for u in (0.1, 1.0, 2.0, 10.0, 100.0):
            state = scatter(chi, DimensionlessParams(u, math.pi))
            assert state.transmittivity == pytest.approx(1.0, abs=1e-10)

    def test_one_excitation_family_bounded_by_bell_states(self):
        # on resonance every family state is a mixture of the two Bell points
        p = DimensionlessParams(3.0, math.pi)
        t_plus = scatter(compose_state([1, 0], TRIPLET), p).transmittivity
        t_minus = scatter(compose_state([1, 0], SINGLET), p).transmittivity
        rng = np.random.default_rng(46)
        for _ in range(25):
            mix, phase = rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)
            pair = np.zeros(4, dtype=complex)
            pair[1] = math.cos(mix)
            pair[2] = math.sin(mix) * np.exp(1j * phase)
            t_val = scatter(compose_state([1, 0], pair), p).transmittivity
            assert min(t_plus, t_minus) - 1e-12 <= t_val <= max(t_plus, t_minus) + 1e-12

    def test_resonant_family_map_ignores_electron_spin(self):
        # at theta = n pi the impurity pair spin is conserved, so the
        # one-excitation-family transmittivity cannot depend on the
        # electron spin direction; off resonance it does
        rng = np.random.default_rng(47)
        on_res = DimensionlessParams(10.0, math.pi)
        off_res = DimensionlessParams(10.0, 2.0)
        dependence = {on_res: 0.0, off_res: 0.0}
        for _ in range(20):
            pair = np.zeros(4, dtype=complex)
            mix = rng.uniform(0, 2 * math.pi)
            pair[1] = math.cos(mix)
            pair[2] = math.sin(mix) * np.exp(1j * rng.uniform(0, math.pi))
            electron = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for p in (on_res, off_res):
                t_up = scatter(compose_state([1, 0], pair), p).transmittivity
                t_any = scatter(compose_state(electron, pair), p).transmittivity
                dependence[p] = max(dependence[p], abs(t_up - t_any))
        assert dependence[on_res] < 1e-12
        assert dependence[off_res] > 1e-6

    def test_aligned_family_phase_free_mixture(self):
        p = DimensionlessParams(2.0, 2.6)
        t_uu = scatter(compose_state([1, 0], [1, 0, 0, 0]), p).transmittivity
        t_dd = scatter(compose_state([1, 0], [0, 0, 0, 1]), p).transmittivity
        mix = 0.7
        values = []
        for phase in (0.0, 1.0, math.pi):
            pair = np.zeros(4, dtype=complex)
            pair[0] = math.cos(mix)
            pair[3] = math.sin(mix) * np.exp(1j * phase)
            values.append(scatter(compose_state([1, 0], pair), p).transmittivity)
        assert max(values) - min(values) < 1e-12
        expected = math.cos(mix) ** 2 * t_uu + math.sin(mix) ** 2 * t_dd
        assert values[0] == pytest.approx(expected, abs=1e-12)
