"""Acceptance harness: numbered verification criteria with measured values.

Each criterion evaluates one falsifiable claim of the model at a fixed
tolerance and reports the measured quantity, so a failure is directly
actionable.  Everything is deterministic (seeded random draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..closed_form import DimensionlessParams, det_t_minus_identity, t_doublet, t_quartet
from ..observables import (
    fixed_point_subspace,
    observable_table,
    postselect,
    scatter,
    symmetry_report,
)
from ..spin_algebra import (
    SpinVector,
    compose_state,
    coupled_basis,
    recoupling_matrix_elements,
    spin_operators,
)
from ..transfer_oracle import oracle_scattering, two_impurity_chain
from ..waveguide_solver import amplitudes
from .config import build_config
from .states import bell_pair, incident_state
from .sweeps import run_sweep
from .units import PhysicalParams, convert_units, spacing_for_phase

_SEED = 20240817


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number}. {self.name}: {self.details}"


def _random_params(rng, n, u_hi=20.0):
    for _ in range(n):
        yield DimensionlessParams(rng.uniform(1e-6, u_hi), rng.uniform(1e-6, 2 * math.pi))


def _kernel(params: list[DimensionlessParams]) -> tuple[np.ndarray, np.ndarray]:
    """One batched kernel call over the drawn points."""
    return amplitudes([p.u for p in params], [p.theta for p in params])


def _random_state(rng) -> SpinVector:
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return SpinVector(raw / np.linalg.norm(raw))


def _coupled_sandwich(matrix: np.ndarray) -> np.ndarray:
    b = coupled_basis().matrix
    return b.conj().T @ matrix @ b


def criterion_triple_agreement() -> CriterionResult:
    rng = np.random.default_rng(_SEED)
    params = list(_random_params(rng, 1000))
    doublet = np.ix_((4, 6), (4, 6))  # the m = +1/2 doublet block, channels s_e2 = 0, 1
    worst_closed = 0.0
    worst_oracle = 0.0
    for p, t_solver, r_solver in zip(params, *_kernel(params)):
        worst_closed = max(
            worst_closed,
            abs(t_quartet(p) - t_solver[0, 0]),
            float(np.max(np.abs(t_doublet(p) - t_solver[doublet]))),
        )
        full = oracle_scattering(two_impurity_chain(p))
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(_coupled_sandwich(full.transmission) - t_solver))),
            float(np.max(np.abs(_coupled_sandwich(full.reflection) - r_solver))),
        )
    passed = worst_closed < 1e-10 and worst_oracle < 1e-10
    return CriterionResult(
        1, "triple-pipeline agreement", passed,
        f"max |closed - solver| = {worst_closed:.3e}, "
        f"max |solver - oracle| = {worst_oracle:.3e} (limit 1e-10)",
    )


def criterion_flux_conservation() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 1)
    params, states = [], []
    for p in _random_params(rng, 1000):  # draw order: point, then its state
        params.append(p)
        states.append(_random_state(rng).amplitudes)
    t, r = _kernel(params)
    coeffs = np.asarray(states) @ coupled_basis().matrix.conj()  # rows B^dagger chi
    gamma = np.matmul(t, coeffs[..., None])
    rho = np.matmul(r, coeffs[..., None])
    flux = np.sum(np.abs(gamma) ** 2 + np.abs(rho) ** 2, axis=(1, 2))
    worst = float(np.max(np.abs(flux - 1.0)))
    return CriterionResult(
        2, "unitarity / flux conservation", worst < 1e-10,
        f"max |T + R - 1| = {worst:.3e} over 1000 random states (limit 1e-10)",
    )


def criterion_singlet_transparency() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 2)
    points = [(u, n * math.pi) for n in (1, 2, 3) for u in (0.5, 1.0, 2.0, 10.0, 100.0)]
    u, theta = np.repeat(points, 20, axis=0).T  # 20 electron spins per point
    states = []
    for _ in u:
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(compose_state(raw / np.linalg.norm(raw), bell_pair(-1)).amplitudes)
    chi = np.asarray(states)
    t, r = amplitudes(u, theta)
    table = observable_table(t, r, chi @ coupled_basis().matrix.conj(), u, theta)
    transmitted = table[:, 3:19].view(complex)  # the amplitude columns
    fid = np.abs(np.sum(chi.conj() * transmitted, axis=1)) ** 2
    worst_t = float(np.min(table[:, 0]))
    worst_fid = float(np.min(fid))
    passed = worst_t > 1.0 - 1e-10 and worst_fid > 1.0 - 1e-10
    return CriterionResult(
        3, "singlet transparency", passed,
        f"min T = {worst_t:.15f}, min fidelity = {worst_fid:.15f} "
        "(both > 1 - 1e-10)",
    )


def _independent_determinant(p: DimensionlessParams) -> complex:
    """det(t - I) evaluated from its factorized closed form."""
    g = p.g
    ring = complex(math.cos(2 * p.theta) - 1.0, math.sin(2 * p.theta))
    delta = 4096.0 + g * (
        -2048.0j + ring * g * (-128.0 + 96.0j * g + 9.0 * ring * g * g)
    )
    return (3.0 / delta) * ring * g**3 * (3.0 * g * ring + 32.0j)


def criterion_transparency_uniqueness() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 3)
    singlet = bell_pair(-1)
    target = np.column_stack(
        [np.kron([1.0, 0.0], singlet), np.kron([0.0, 1.0], singlet)]
    )
    max_angle = 0.0
    for n in (1, 2, 3):
        for u in (0.5, 3.0, 40.0):
            dim, vecs = fixed_point_subspace(DimensionlessParams(u, n * math.pi))
            if dim != 2:
                return CriterionResult(
                    4, "transparent-subspace uniqueness", False,
                    f"dimension {dim} != 2 at theta = {n} pi, u = {u}",
                )
            overlap = target.conj().T @ vecs
            angles = np.arccos(np.clip(np.linalg.svd(overlap, compute_uv=False), -1, 1))
            max_angle = max(max_angle, float(np.max(angles)))
    off_count = 0
    min_det = math.inf
    max_det_err = 0.0
    for _ in range(100):
        theta = rng.uniform(0.05, math.pi - 0.05) + rng.integers(0, 2) * math.pi
        u = rng.uniform(0.5, 20.0)
        p = DimensionlessParams(u, theta)
        dim, _ = fixed_point_subspace(p)
        off_count += dim == 0
        det = det_t_minus_identity(p)
        min_det = min(min_det, abs(det))
        max_det_err = max(max_det_err, abs(det - _independent_determinant(p)))
    det_at_pi = max(
        abs(det_t_minus_identity(DimensionlessParams(5.0, n * math.pi)))
        for n in (1, 2, 3)
    )
    passed = (
        max_angle < 1e-6
        and off_count == 100
        and max_det_err < 1e-10
        and det_at_pi < 1e-12
        and min_det > 1e-8
    )
    return CriterionResult(
        4, "transparent-subspace uniqueness", passed,
        f"subspace angle <= {max_angle:.3e} rad, off-resonance dim-0 count "
        f"{off_count}/100, det formula error {max_det_err:.3e}, "
        f"|det| at n pi {det_at_pi:.3e}, min |det| off resonance {min_det:.3e}",
    )


def criterion_conservation_laws() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 4)
    worst_total = 0.0
    for p in _random_params(rng, 25):
        rep = symmetry_report(p)
        worst_total = max(worst_total, rep.total_spin_sq, rep.total_sz)
    pair_resonant = max(
        symmetry_report(DimensionlessParams(10.0, n * math.pi)).pair_spin_sq
        for n in (1, 2, 3)
    )
    pair_generic = symmetry_report(DimensionlessParams(10.0, 2.0)).pair_spin_sq
    passed = worst_total < 1e-10 and pair_resonant < 1e-10 and pair_generic > 1e-3
    return CriterionResult(
        5, "conservation laws", passed,
        f"[S_total^2, S] and [S_z, S] <= {worst_total:.3e}; pair-spin "
        f"commutator {pair_resonant:.3e} at n pi vs {pair_generic:.3e} at theta = 2",
    )


def criterion_recoupling_values() -> CriterionResult:
    computed = recoupling_matrix_elements()
    expected = np.array(
        [[1.5, math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, 0.5]]
    )
    err_table = float(np.max(np.abs(computed - expected)))
    basis = coupled_basis()
    ops = spin_operators()
    err_m = 0.0
    for m in (0.5, -0.5):
        vecs = [basis.matrix[:, basis.index(se2, 0.5, m)] for se2 in (0, 1)]
        sandwich = np.array(
            [[np.vdot(a, ops.electron_imp1_sq @ b).real for b in vecs] for a in vecs]
        )
        err_m = max(err_m, float(np.max(np.abs(sandwich - computed))))
    passed = err_table < 1e-12 and err_m < 1e-12
    return CriterionResult(
        6, "recoupling matrix elements", passed,
        f"6j route vs expected values {err_table:.3e}, vs operator sandwich "
        f"(m = +-1/2) {err_m:.3e} (limit 1e-12)",
    )


def criterion_entanglement_generation() -> CriterionResult:
    chi = compose_state([1.0, 0.0], [0.0, 0.0, 0.0, 1.0])  # electron up, pair down-down
    u = np.linspace(0.01, 10.0, 1000)
    t_down = _scan(chi, u, np.full(len(u), math.pi))[:, 2]  # columns T, T_up, T_down, ...
    best = int(np.argmax(t_down))  # the first of equal maxima
    best_t = float(t_down[best])
    best_u = float(u[best])
    state = scatter(chi, DimensionlessParams(best_u, math.pi))
    res = postselect(state, "down")
    fid = abs(np.vdot(bell_pair(+1), res.impurity_state)) ** 2
    passed = (
        best_t > 0.20
        and 0.5 <= best_u <= 2.0
        and res.concurrence > 1.0 - 1e-10
        and fid > 1.0 - 1e-10
    )
    return CriterionResult(
        7, "entanglement generation", passed,
        f"max T_down = {best_t:.4f} at u = {best_u:.3f} (need > 0.20 in "
        f"[0.5, 2]); conditional state: concurrence = {res.concurrence:.12f}, "
        f"triplet fidelity = {fid:.12f}",
    )


def _sweep_rows(scenario: str) -> tuple[float, np.ndarray]:
    cfg = build_config({"scenario": scenario})
    if cfg.kind == "theta":
        step = cfg.theta_values[1] - cfg.theta_values[0]
    else:
        step = 0.0
    return step, run_sweep(cfg).rows


def _peak_offsets(scenario: str) -> tuple[float, list[float]]:
    """Grid step and the distance of each u's argmax of T from the nearest n pi."""
    step, rows = _sweep_rows(scenario)
    offsets = []
    for u in (1.0, 2.0, 10.0):
        sel = rows[rows[:, 1] == u]
        peak = sel[np.argmax(sel[:, 2]), 0]
        offsets.append(abs(peak - math.pi * round(peak / math.pi)))
    return step, offsets


def _scan(chi: SpinVector, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Sweep columns T, T_up, T_down, ... of one incident state, one kernel call."""
    t, r = amplitudes(u, theta)
    return observable_table(t, r, coupled_basis().to_coupled(chi)[None, :], u, theta)


def _curve(impurity_spec: str, thetas, u: float) -> np.ndarray:
    """T over the phases ``thetas`` at coupling u, electron up."""
    theta = np.asarray(thetas, dtype=float)
    return _scan(incident_state("u", impurity_spec), np.full(len(theta), u), theta)[:, 0]


def criterion_figure_claims() -> CriterionResult:  # noqa: C901
    problems: list[str] = []
    notes: list[str] = []

    # one-excitation product states: peak locations over theta
    _, offsets_a = _peak_offsets("fig2a")
    if not offsets_a[0] > offsets_a[1] > offsets_a[2]:
        problems.append(f"fig2a offsets not decreasing: {offsets_a}")
    notes.append("fig2a |argmax - n pi| = " + ", ".join(f"{o:.4f}" for o in offsets_a))

    # swapped product state: the strong-coupling peak pins to n pi exactly
    step, offsets_b = _peak_offsets("fig2b")
    if offsets_b[2] > step:
        problems.append(
            f"fig2b argmax at u = 10 off n pi by {offsets_b[2]:.4f} > step {step:.4f}"
        )
    if not offsets_b[0] > offsets_b[1] > offsets_b[2]:
        problems.append(f"fig2b offsets not decreasing: {offsets_b}")
    notes.append("fig2b |argmax - n pi| = " + ", ".join(f"{o:.4f}" for o in offsets_b))

    # singlet curves: unit peaks exactly at n pi that narrow with coupling
    step, rows = _sweep_rows("fig3b")
    widths = []
    for u in (1.0, 2.0, 10.0):
        sel = rows[rows[:, 1] == u]
        thetas = sel[:, 0]
        t_vals = sel[:, 2]
        window = (thetas >= math.pi / 2) & (thetas <= 3 * math.pi / 2)
        widths.append(float(np.count_nonzero(t_vals[window] >= 0.5) * step))
        # the 2001-point grid straddles pi, so probe the resonance directly
        for theta in (math.pi, 2 * math.pi):
            t_res = _curve("psi-", (theta,), u)[0]
            if t_res < 1.0 - 1e-10:
                problems.append(f"fig3b T({theta}) = {t_res!r} < 1 for u = {u}")
    if not widths[0] > widths[1] > widths[2]:
        problems.append(f"fig3b widths not decreasing: {widths}")
    notes.append("fig3b half-height widths = " + ", ".join(f"{w:.4f}" for w in widths))

    # entanglement-controlled map over the one-excitation family
    _, rows = _sweep_rows("fig4")
    vt, ph, t_tot = rows[:, 0], rows[:, 1], rows[:, 3]

    def at_point(a: float, b: float) -> float:
        mask = (np.abs(vt - a) < 1e-12) & (np.abs(ph - b) < 1e-12)
        return float(t_tot[mask][0])

    t_singlet = at_point(math.pi / 4, math.pi)
    t_triplet = at_point(math.pi / 4, 0.0)
    if abs(t_singlet - 1.0) > 1e-10:
        problems.append(f"fig4 singlet point T = {t_singlet!r} != 1")
    if t_singlet < np.max(t_tot) - 1e-12:
        problems.append("fig4 singlet point is not a global maximum")
    if t_triplet > np.min(t_tot) + 1e-12:
        problems.append("fig4 triplet point is not a global minimum")
    notes.append(f"fig4 T(singlet) = {t_singlet:.12f}, T(triplet) = {t_triplet:.6f}")

    # spin-filtered map: T_up <= T with equality on the singlet
    _, rows = _sweep_rows("fig5")
    vt, ph, t_tot, t_up = rows[:, 0], rows[:, 1], rows[:, 3], rows[:, 4]
    gap = float(np.max(t_up - t_tot))
    if gap > 1e-12:
        problems.append(f"fig5 T_up exceeds T by {gap:.3e}")
    singlet_row = (np.abs(vt - math.pi / 4) < 1e-12) & (np.abs(ph - math.pi) < 1e-12)
    eq_gap = float(abs(t_tot[singlet_row][0] - t_up[singlet_row][0]))
    if eq_gap > 1e-10:
        problems.append(f"fig5 singlet point: T - T_up = {eq_gap:.3e}")
    notes.append(f"fig5 max(T_up - T) = {gap:.2e}, singlet gap = {eq_gap:.2e}")

    # aligned family: no interference, the relative phase plays no role
    thetas = tuple(float(t) for t in np.linspace(0.3, 2 * math.pi, 41))
    uu = _curve("uu", thetas, 2.0)
    dd = _curve("dd", thetas, 2.0)
    worst_phase = 0.0
    worst_mix = 0.0
    for mix in (math.pi / 4, 0.3, 1.1):
        reference = None
        for phi in (0.0, 0.7, 2.2, math.pi):
            spec = f"uu_dd theta={mix!r} phi={phi!r}"
            curve = _curve(spec, thetas, 2.0)
            if reference is None:
                reference = curve
            worst_phase = max(worst_phase, float(np.max(np.abs(curve - reference))))
        expected = math.cos(mix) ** 2 * uu + math.sin(mix) ** 2 * dd
        worst_mix = max(worst_mix, float(np.max(np.abs(reference - expected))))
    if worst_phase > 1e-12:
        problems.append(f"fig6c phase dependence {worst_phase:.3e}")
    if worst_mix > 1e-12:
        problems.append(f"fig6c mixture identity off by {worst_mix:.3e}")
    notes.append(f"fig6c phase dep = {worst_phase:.2e}, mixture err = {worst_mix:.2e}")

    details = "; ".join(problems if problems else notes)
    return CriterionResult(8, "figure-level claims", not problems, details)


def criterion_units() -> CriterionResult:
    phys = PhysicalParams(
        effective_mass=0.067,
        energy_mev=2.0,
        coupling_ev_angstrom=1.0,
        spacing_nm=50.0,
    )
    params = convert_units(phys)
    x0 = spacing_for_phase(0.067, 2.0, math.pi)
    passed = 0.8 <= params.u <= 1.2 and 40.0 <= x0 <= 70.0
    return CriterionResult(
        9, "units sanity", passed,
        f"u = {params.u:.4f} for (0.067 m0, 2 meV, 1 eV*Angstrom) "
        f"(need [0.8, 1.2]); x0(theta = pi) = {x0:.2f} nm (need [40, 70])",
    )


_CRITERIA = (
    criterion_triple_agreement,
    criterion_flux_conservation,
    criterion_singlet_transparency,
    criterion_transparency_uniqueness,
    criterion_conservation_laws,
    criterion_recoupling_values,
    criterion_entanglement_generation,
    criterion_figure_claims,
    criterion_units,
)


def verify_figures() -> list[CriterionResult]:
    """Run every acceptance criterion and return the per-criterion results."""
    return [check() for check in _CRITERIA]


def run_verification(stream=None) -> int:
    """Print one line per criterion; exit status 0 iff everything passed."""
    import sys

    stream = stream or sys.stdout
    results = verify_figures()
    for res in results:
        print(res.line(), file=stream)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed", file=stream)
    return 0 if not failed else 3
