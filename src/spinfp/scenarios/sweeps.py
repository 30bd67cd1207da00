"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, and all floating point values are
printed with 17 significant digits, so identical configs give byte-identical
files.  The data section carries no timestamps; the ``#`` header block echoes
the resolved configuration.

Grids are evaluated in chunks of ``CHUNK`` points: one batched kernel call
per chunk, then the row builder ``observables.observable_table`` for all
three sweep kinds.  Every value of a row is computed from its own point only,
so the output does not depend on the chunk size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..observables import _matvec, observable_table
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
_FLOAT_SPEC = ".17g"


@dataclass(frozen=True)
class SweepResult:
    """Computed table: header echo lines, column names and numeric rows."""

    header: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


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
    """Write the table atomically: a failed write leaves any earlier file intact.

    Identical results produce byte-identical files.
    """
    text = render_csv(result)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")  # replaced into place
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out
