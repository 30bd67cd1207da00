"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, and all floating point values are
printed with 17 significant digits, so identical configs give byte-identical
files.  The data section carries no timestamps; the ``#`` header block echoes
the resolved configuration.

Grids are evaluated in chunks of ``CHUNK`` points: one batched kernel call
per chunk, then one vectorised row builder shared by all three sweep kinds.
Every value of a row is computed from its own point only, so the output does
not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import NumericError
from ..spin_algebra import coupled_basis
from ..waveguide_solver import amplitudes
from .config import SweepConfig
from .states import aligned_family, electron_state, incident_state, one_up_family

# points per kernel call; keeps the kernel's temporary arrays near 1 MB
CHUNK = 256

_KETS = ("uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd")
_AMP_COLUMNS = tuple(
    name for ket in _KETS for name in (f"re_t_{ket}", f"im_t_{ket}")
)
_OBSERVABLE_COLUMNS = ("T", "T_up", "T_down", *_AMP_COLUMNS, "R")
_PROB_TOL = 1e-12
_BALANCE_TOL = 1e-10
_FLOAT_SPEC = ".17g"


@dataclass(frozen=True)
class SweepResult:
    """Computed table: header echo lines, column names and numeric rows."""

    header: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row-wise products: matrices (N or 1, n, n) times vectors (N or 1, n)."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


def observable_table(t, r, coeffs, u, theta) -> np.ndarray:
    """Columns T, T_up, T_down, the 16 amplitude columns and R, one row per point.

    ``t`` and ``r`` are coupled-basis matrices (N, 8, 8) and ``coeffs`` the
    coupled-basis incident states (N, 8); any of them may have a leading
    axis of length 1, which is shared by every row.  The amplitude columns
    are the real and imaginary parts of the transmitted state in the product
    basis.  T, T_up and T_down must lie in [0, 1] and T + R must equal 1;
    a failure names its (u, theta) point, broadcast from ``u`` and ``theta``.
    """
    basis = coupled_basis().matrix
    gamma = _matvec(t, coeffs)
    rho = _matvec(r, coeffs)
    product = _matvec(basis, gamma)
    weights = product.real ** 2 + product.imag ** 2
    t_total = np.sum(weights, axis=-1)
    t_up = np.sum(weights[:, :4], axis=-1)
    t_down = np.sum(weights[:, 4:], axis=-1)
    reflected = np.sum(rho.real ** 2 + rho.imag ** 2, axis=-1)

    def fail(i: int, message: str):
        u_i, theta_i = np.broadcast_arrays(u, theta, t_total)[:2]
        raise NumericError(
            f"{message} at u = {float(u_i[i])!r}, theta = {float(theta_i[i])!r}"
        )

    for name, value in (("T", t_total), ("T_up", t_up), ("T_down", t_down)):
        ok = (-_PROB_TOL <= value) & (value <= 1.0 + _PROB_TOL)
        if not ok.all():
            i = int(np.argmin(ok))
            fail(i, f"{name} = {float(value[i])!r} outside [0, 1] by more than "
                    f"{_PROB_TOL!r}")
    ok = np.abs(t_total + reflected - 1.0) <= _BALANCE_TOL
    if not ok.all():
        i = int(np.argmin(ok))
        fail(i, f"T + R = {float(t_total[i] + reflected[i])!r} differs from 1 by more "
                f"than {_BALANCE_TOL!r}")
    return np.column_stack(
        (t_total, t_up, t_down, np.ascontiguousarray(product).view(np.float64), reflected)
    )


def _chunks(n: int):
    return (slice(start, start + CHUNK) for start in range(0, n, CHUNK))


def _rows(table: np.ndarray, lead) -> list[tuple[float, ...]]:
    """Row tuples: the next values of the ``lead`` iterator, then the table row.

    The lead values are the config's own float objects, shared between rows.
    """
    return [(*head, *values) for values, head in zip(table.tolist(), lead)]


def _point_rows(cfg: SweepConfig) -> list[tuple[float, ...]]:
    """Theta and coupling sweeps: one incident state over the points (u, theta)."""
    if cfg.kind == "theta":  # u is the outer axis
        u = np.repeat(cfg.u_values, len(cfg.theta_values))
        theta = np.tile(cfg.theta_values, len(cfg.u_values))
        lead = ((th, u_) for u_ in cfg.u_values for th in cfg.theta_values)
    else:
        u = np.asarray(cfg.u_values)
        theta = np.full(len(u), cfg.fixed_theta)
        lead = ((cfg.fixed_theta, u_) for u_ in cfg.u_values)
    chi = incident_state(cfg.electron_spin, cfg.impurity_state)
    coeffs = coupled_basis().to_coupled(chi)[None, :]
    rows = []
    for s in _chunks(len(u)):
        t, r = amplitudes(u[s], theta[s])
        rows += _rows(observable_table(t, r, coeffs, u[s], theta[s]), lead)
    return rows


def _family_rows(cfg: SweepConfig) -> list[tuple[float, ...]]:
    """Family sweeps: one kernel point per u, a grid of incident states each."""
    family = cfg.impurity_state.split()[0]
    builder = one_up_family if family == "family2" else aligned_family
    pairs = builder(np.asarray(cfg.vartheta_values)[:, None], np.asarray(cfg.phi_values))
    pairs = pairs.reshape(-1, 4)  # phi is the inner axis
    electron = electron_state(cfg.electron_spin)
    to_coupled = coupled_basis().matrix.conj().T
    u_all = np.asarray(cfg.u_values)
    theta_all = np.full(len(u_all), cfg.fixed_theta)
    rows = []
    for k in _chunks(len(u_all)):
        t_block, r_block = amplitudes(u_all[k], theta_all[k])
        for u, t, r in zip(cfg.u_values[k], t_block, r_block):
            lead = ((vt, ph, u) for vt in cfg.vartheta_values for ph in cfg.phi_values)
            for s in _chunks(len(pairs)):
                chi = (electron[:, None] * pairs[s, None, :]).reshape(-1, 8)
                coeffs = _matvec(to_coupled, chi)
                table = observable_table(t[None], r[None], coeffs, u, cfg.fixed_theta)
                rows += _rows(table, lead)
    return rows


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the configured grid and return the result table."""
    if cfg.kind == "family":
        columns = ("vartheta", "phi", "u", *_OBSERVABLE_COLUMNS)
        rows = _family_rows(cfg)
    else:
        columns = ("theta", "u", *_OBSERVABLE_COLUMNS)
        rows = _point_rows(cfg)
    header = tuple(f"# {key} = {value}" for key, value in cfg.echo)
    return SweepResult(header=header, columns=columns, rows=tuple(rows))


def format_float(value: float) -> str:
    return format(value, _FLOAT_SPEC)


def render_csv(result: SweepResult) -> str:
    row_template = ",".join(["%" + _FLOAT_SPEC] * len(result.columns))
    lines = [*result.header, ",".join(result.columns)]
    lines.extend(row_template % row for row in result.rows)
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the table; identical results produce byte-identical files."""
    out = Path(path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_csv(result), encoding="utf-8")
    return out
