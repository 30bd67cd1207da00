"""Acceptance harness: numbered verification criteria with measured values.

Each criterion evaluates one falsifiable claim of the model at a fixed
tolerance and reports the measured quantity, so a failure is directly
actionable.  Everything is deterministic: seeded draws, taken as arrays in
a fixed order, with every random state normalised at once.

Every check runs on stacks of points: the production kernel (the closed
forms), the solver, the oracle and ``fixed_point_subspace`` take all of a
criterion's points in one call (criterion 1 in chunks of ``sweeps.CHUNK``);
the solver serves criterion 1 alone, as evidence.  Criterion 1 drops a
chunk's closed forms before the oracle runs, and the whole chunk before the
next; its oracle call, the star product of 256 points, sets verify's peak
memory.  Criteria 7 and 8 read only the columns they use of the fig4, fig5
and fig7 presets, by name, from the sweeps' blocks; fig2a, fig2b and fig3b
share one grid, so criterion 8 reads their T from one grid-builder call over
their three states, keeping T alone of each block: no whole table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..closed_form import DimensionlessParams, amplitudes, det_t_minus_identity
from ..observables import (
    AMPLITUDE_COLUMNS,
    COLUMN_OF,
    fixed_point_subspace,
    observable_table,
    postselect,
    scatter,
    symmetry_report,
)
from ..spin_algebra import (
    compose_state,
    coupled_basis,
    recoupling_matrix_elements,
    spin_operators,
)
from ..transfer_oracle import oracle_scattering, two_impurity_chain
from ..waveguide_solver import solver_amplitudes
from .config import build_config
from .states import bell_pair, incident_state
from .sweeps import CHUNK, _blocks, run_sweep
from .units import PhysicalParams, convert_units, spacing_for_phase

EXIT_VERIFY = 3  # run_verification's status, and the CLI's, when a criterion fails
_SEED = 20240817
_LOW, _HIGH = np.array([1e-6, 1e-6]), np.array([20.0, 2 * math.pi])  # of (u, theta) draws


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number}. {self.name}: {self.details}"


def _random_points(rng, n) -> np.ndarray:
    """Rows (u, theta) of n points: u in [1e-6, 20), theta in [1e-6, 2 pi), by the
    map ``rng.uniform`` applies (the same bits and stream), without its per-call cost."""
    return _LOW + (_HIGH - _LOW) * rng.random((n, 2))


def _unit_rows(normals: np.ndarray) -> np.ndarray:
    """Unit complex rows from rows of normals: the real parts, then the imaginary."""
    norm = np.sqrt(np.sum(normals**2, axis=1, keepdims=True))
    rows = np.empty((len(normals), normals.shape[1] // 2), dtype=complex)
    rows.real, rows.imag = np.split(normals / norm, 2, axis=1)
    return rows


def _chunk_gaps(p: DimensionlessParams) -> tuple[float, float]:
    """max |closed - solver| and max |solver - oracle| over one stack of points.
    The closed forms are dropped before the oracle runs, and every stack of
    the chunk when it returns."""
    t, r = amplitudes(p.u, p.theta)  # production: the closed forms
    t_solver, r_solver = solver_amplitudes(p.u, p.theta)
    closed = max(float(np.max(np.abs(t - t_solver))), float(np.max(np.abs(r - r_solver))))
    del t, r
    full = oracle_scattering(two_impurity_chain(p))
    return closed, max(float(np.max(np.abs(full.transmission - t_solver))),
                       float(np.max(np.abs(full.reflection - r_solver))))


def criterion_triple_agreement() -> CriterionResult:
    u, theta = _random_points(np.random.default_rng(_SEED), 1000).T
    gaps = [  # one stack per derivation and chunk
        _chunk_gaps(DimensionlessParams(u[start:start + CHUNK], theta[start:start + CHUNK]))
        for start in range(0, len(u), CHUNK)
    ]
    worst_closed, worst_oracle = np.max(gaps, axis=0).tolist()  # nan propagates
    passed = worst_closed < 1e-10 and worst_oracle < 1e-10
    return CriterionResult(
        1, "triple-pipeline agreement", passed,
        f"max |closed - solver| = {worst_closed:.3e}, "
        f"max |solver - oracle| = {worst_oracle:.3e} (limit 1e-10)",
    )


def criterion_flux_conservation() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 1)
    # draw order: a point, then its state's 8 real and 8 imaginary parts
    draws = [(rng.random(2), rng.standard_normal(16)) for _ in range(1000)]
    unit, normals = map(np.array, zip(*draws))
    points = _LOW + (_HIGH - _LOW) * unit  # _random_points' map, once for all 1000
    t, r = amplitudes(*points.T)
    chi = _unit_rows(normals)[..., None]
    flux = np.sum(np.abs(t @ chi) ** 2 + np.abs(r @ chi) ** 2, axis=(1, 2))
    worst = float(np.max(np.abs(flux - 1.0)))
    return CriterionResult(
        2, "unitarity / flux conservation", worst < 1e-10,
        f"max |T + R - 1| = {worst:.3e} over 1000 random states (limit 1e-10)",
    )


def criterion_singlet_transparency() -> CriterionResult:
    rng = np.random.default_rng(_SEED + 2)
    points = [(u, n * math.pi) for n in (1, 2, 3) for u in (0.5, 1.0, 2.0, 10.0, 100.0)]
    u, theta = np.repeat(points, 20, axis=0).T  # 20 electron spins per point
    # per state, the electron's 2 real then 2 imaginary parts, times the singlet
    chi = np.kron(_unit_rows(rng.standard_normal((len(u), 4))), [bell_pair(-1)])
    table = observable_table(*amplitudes(u, theta), chi, u, theta)
    transmitted = table[:, AMPLITUDE_COLUMNS].view(complex)
    fid = np.abs(np.sum(chi.conj() * transmitted, axis=1)) ** 2
    worst_t = float(np.min(table[:, COLUMN_OF["T"]]))
    worst_fid = float(np.min(fid))
    passed = worst_t > 1.0 - 1e-10 and worst_fid > 1.0 - 1e-10
    return CriterionResult(
        3, "singlet transparency", passed,
        f"min T = {worst_t:.15f}, min fidelity = {worst_fid:.15f} "
        "(both > 1 - 1e-10)",
    )


def _resonances(u: float) -> DimensionlessParams:
    """The points theta = n pi, n = 1, 2, 3, at coupling u."""
    return DimensionlessParams(np.full(3, u), np.arange(1, 4) * math.pi)


def _independent_determinant(p: DimensionlessParams) -> np.ndarray:
    """det(t - I) evaluated from its factorized closed form."""
    g = p.g
    ring = np.cos(2 * p.theta) - 1.0 + 1j * np.sin(2 * p.theta)
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
    resonant = [(n, u) for n in (1, 2, 3) for u in (0.5, 3.0, 40.0)]
    ns, us = np.transpose(resonant)
    dims, vecs = fixed_point_subspace(DimensionlessParams(us, ns * math.pi))
    for (n, u), dim in zip(resonant, dims):
        if dim != 2:
            return CriterionResult(
                4, "transparent-subspace uniqueness", False,
                f"dimension {dim} != 2 at theta = {n} pi, u = {u}",
            )
    # principal angles from their sines, the singular values of V - T T^H V:
    # a cosine within an ulp of 1 hides any angle below 1.5e-8
    vecs = np.asarray(vecs)
    sines = np.linalg.svd(vecs - target @ (target.conj().T @ vecs), compute_uv=False)
    max_angle = float(np.max(np.arcsin(np.minimum(sines, 1.0))))
    offset, n, u = np.array([
        (rng.uniform(0.05, math.pi - 0.05), rng.integers(0, 2), rng.uniform(0.5, 20.0))
        for _ in range(100)
    ]).T
    p = DimensionlessParams(u, offset + n * math.pi)
    off_count = int(np.count_nonzero(fixed_point_subspace(p)[0] == 0))
    det = det_t_minus_identity(p)
    min_det = float(np.min(np.abs(det)))
    max_det_err = float(np.max(np.abs(det - _independent_determinant(p))))
    det_at_pi = float(np.max(np.abs(det_t_minus_identity(_resonances(5.0)))))
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
    drawn = _random_points(np.random.default_rng(_SEED + 4), 25)
    drawn = symmetry_report(DimensionlessParams(*drawn.T))
    worst_total = float(max(np.max(drawn.total_spin_sq), np.max(drawn.total_sz)))
    pair_resonant = float(np.max(symmetry_report(_resonances(10.0)).pair_spin_sq))
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
    u, t_down = _preset("fig7", "u", "T_down")  # u from 0.01 to 10 at theta = pi, impurities dd
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


def _columns(tables, columns, n_rows: int) -> np.ndarray:
    """The given columns of a table that comes as blocks of rows, one row per column."""
    out, filled = np.empty((len(columns), n_rows)), 0
    for table in tables:
        out[:, filled:filled + len(table)] = table[:, columns].T
        filled += len(table)
    return out


def _preset(scenario: str, *names: str) -> np.ndarray:
    """The named columns of a figure preset's sweep table, one row per name, as its
    grid builder's blocks yield them; no file is written."""
    result = run_sweep(build_config({"scenario": scenario}))
    return _columns(result.batches(), [result.columns.index(name) for name in names],
                    result.row_count)


def _peak_offsets(thetas: np.ndarray, curves: np.ndarray) -> list[float]:
    """The distance of each curve's argmax of T over thetas from the nearest n pi."""
    peaks = thetas[np.argmax(curves, axis=1)].tolist()
    return [abs(peak - math.pi * round(peak / math.pi)) for peak in peaks]


def _curve(impurity_specs, u_values, thetas) -> np.ndarray:
    """T at the points u_values x thetas, u the outer axis, one row per impurity
    spec, electron up.  One call of the sweeps' grid builder serves every spec,
    on the product-basis columns the states use, and only T is kept of its blocks."""
    u_values, thetas = np.asarray(u_values, dtype=float), np.asarray(thetas, dtype=float)
    chi = np.array([incident_state("u", spec).amplitudes for spec in impurity_specs])
    used = np.flatnonzero(np.any(chi, axis=0))
    chi = chi.take(used, axis=-1)
    blocks = _blocks(u_values, thetas, len(chi), lambda state: chi[state], used)
    (t_col,) = _columns((table for *_, table in blocks), [COLUMN_OF["T"]],
                        len(u_values) * len(thetas) * len(chi))
    return t_col.reshape(-1, len(chi)).T


def criterion_figure_claims() -> CriterionResult:  # noqa: C901
    problems: list[str] = []
    notes: list[str] = []

    # fig2a, fig2b and fig3b share one grid: one grid-builder call over their states
    cfgs = [build_config({"scenario": name}) for name in ("fig2a", "fig2b", "fig3b")]
    us, thetas = cfgs[0].u_values, cfgs[0].theta_values
    step = thetas[1] - thetas[0]
    curves_a, curves_b, curves_3b = _curve(
        [cfg.impurity_state for cfg in cfgs], us, thetas).reshape(3, len(us), -1)

    # one-excitation product states: peak locations over theta
    offsets_a = _peak_offsets(thetas, curves_a)
    if not offsets_a[0] > offsets_a[1] > offsets_a[2]:
        problems.append(f"fig2a offsets not decreasing: {offsets_a}")
    notes.append("fig2a |argmax - n pi| = " + ", ".join(f"{o:.4f}" for o in offsets_a))

    # swapped product state: the strong-coupling peak pins to n pi exactly
    offsets_b = _peak_offsets(thetas, curves_b)
    if offsets_b[2] > step:
        problems.append(
            f"fig2b argmax at u = 10 off n pi by {offsets_b[2]:.4f} > step {step:.4f}"
        )
    if not offsets_b[0] > offsets_b[1] > offsets_b[2]:
        problems.append(f"fig2b offsets not decreasing: {offsets_b}")
    notes.append("fig2b |argmax - n pi| = " + ", ".join(f"{o:.4f}" for o in offsets_b))

    # singlet curves: unit peaks exactly at n pi that narrow with coupling
    window = (thetas >= math.pi / 2) & (thetas <= 3 * math.pi / 2)
    widths = [float(np.count_nonzero(t_vals[window] >= 0.5) * step) for t_vals in curves_3b]
    # the 2001-point grid straddles pi, so probe the resonances directly
    us, resonances = (1.0, 2.0, 10.0), (math.pi, 2 * math.pi)
    probes = [(u, theta) for u in us for theta in resonances]
    for (u, theta), t_res in zip(probes, _curve(["psi-"], us, resonances)[0].tolist()):
        if t_res < 1.0 - 1e-10:
            problems.append(f"fig3b T({theta}) = {t_res!r} < 1 for u = {u}")
    if not widths[0] > widths[1] > widths[2]:
        problems.append(f"fig3b widths not decreasing: {widths}")
    notes.append("fig3b half-height widths = " + ", ".join(f"{w:.4f}" for w in widths))

    # entanglement-controlled map over the one-excitation family
    vt, ph, t_tot = _preset("fig4", "vartheta", "phi", "T")

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
    vt, ph, t_tot, t_up = _preset("fig5", "vartheta", "phi", "T", "T_up")
    gap = float(np.max(t_up - t_tot))
    if gap > 1e-12:
        problems.append(f"fig5 T_up exceeds T by {gap:.3e}")
    singlet_row = (np.abs(vt - math.pi / 4) < 1e-12) & (np.abs(ph - math.pi) < 1e-12)
    eq_gap = float(abs(t_tot[singlet_row][0] - t_up[singlet_row][0]))
    if eq_gap > 1e-10:
        problems.append(f"fig5 singlet point: T - T_up = {eq_gap:.3e}")
    notes.append(f"fig5 max(T_up - T) = {gap:.2e}, singlet gap = {eq_gap:.2e}")

    # aligned family: no interference, the relative phase plays no role
    thetas = np.linspace(0.3, 2 * math.pi, 41)
    mixes, phis = (math.pi / 4, 0.3, 1.1), (0.0, 0.7, 2.2, math.pi)
    specs = [f"uu_dd theta={mix!r} phi={phi!r}" for mix in mixes for phi in phis]
    uu, dd, *curves = _curve(["uu", "dd", *specs], [2.0], thetas)
    curves = np.reshape(curves, (len(mixes), len(phis), len(thetas)))
    reference = curves[:, 0]  # phi = 0
    worst_phase = float(np.max(np.abs(curves - reference[:, None])))
    expected = np.array([math.cos(mix) ** 2 * uu + math.sin(mix) ** 2 * dd for mix in mixes])
    worst_mix = float(np.max(np.abs(reference - expected)))
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
    """Print one line per criterion; exit status 0 iff all passed, else ``EXIT_VERIFY``."""
    import sys

    stream = stream or sys.stdout
    results = verify_figures()
    for res in results:
        print(res.line(), file=stream)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed", file=stream)
    return 0 if not failed else EXIT_VERIFY
