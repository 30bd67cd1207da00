"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, and all floating point values are
printed with 17 significant digits, so identical configs give byte-identical
files.  The data section carries no timestamps; the ``#`` header block echoes
the resolved configuration.

Grids are evaluated in chunks of ``CHUNK`` points: one batched kernel call
per chunk, then the row builder ``observables.observable_table`` for all
three sweep kinds, whose rows are written into one float64 table beside the
lead columns (the config's grid values).  Every value of a row is computed
from its own point only, so the output does not depend on the chunk size.
Every sweep kind reads its phases from ``SweepConfig.theta_values``, which
holds one phase for family and coupling sweeps, so theta and coupling
sweeps are the same grid of points (u, theta).

``render_csv`` formats that table ``CHUNK`` rows at a time with
``_format.format_rows``: every value reads exactly as ``format_float``
(``%.17g``) prints it, but numpy computes the digits of the whole chunk.
Only nan, +-inf, values outside (1e-280, 1e280) and values within 1e-6 of a
rounding tie go through ``format_float`` one by one (2 of the 985,976 values
of the figure presets).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..observables import _matvec, observable_table
from ..spin_algebra import coupled_basis
from ..waveguide_solver import amplitudes
from ._format import format_float, format_rows
from .config import SweepConfig
from .states import electron_state, family_builder, incident_state

# points per kernel call; keeps the kernel's temporary arrays near 1 MB
CHUNK = 256

_KETS = ("uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd")
_AMP_COLUMNS = tuple(
    name for ket in _KETS for name in (f"re_t_{ket}", f"im_t_{ket}")
)
_OBSERVABLE_COLUMNS = ("T", "T_up", "T_down", *_AMP_COLUMNS, "R")


@dataclass(frozen=True)
class SweepResult:
    """Computed table: header echo lines, column names and the numeric rows.

    ``rows`` is a read-only float64 array of shape (rows, len(columns)).
    """

    header: tuple[str, ...]
    columns: tuple[str, ...]
    rows: np.ndarray


def _chunks(n: int):
    return (slice(start, start + CHUNK) for start in range(0, n, CHUNK))


def _point_table(cfg: SweepConfig) -> np.ndarray:
    """Theta and coupling sweeps: one incident state over the points (u, theta)."""
    u = np.repeat(cfg.u_values, len(cfg.theta_values))  # u is the outer axis
    theta = np.tile(cfg.theta_values, len(cfg.u_values))
    chi = incident_state(cfg.electron_spin, cfg.impurity_state)
    coeffs = coupled_basis().to_coupled(chi)[None, :]
    out = np.empty((len(u), 2 + len(_OBSERVABLE_COLUMNS)))
    out[:, 0], out[:, 1] = theta, u
    for s in _chunks(len(u)):
        t, r = amplitudes(u[s], theta[s])
        out[s, 2:] = observable_table(t, r, coeffs, u[s], theta[s])
    return out


def _family_table(cfg: SweepConfig) -> np.ndarray:
    """Family sweeps: one kernel point per u, a grid of incident states each."""
    builder = family_builder(cfg.impurity_state)
    vartheta, phi = np.meshgrid(cfg.vartheta_values, cfg.phi_values, indexing="ij")
    pairs = builder(vartheta, phi).reshape(-1, 4)  # phi is the inner axis
    chi = (electron_state(cfg.electron_spin)[:, None] * pairs[:, None, :]).reshape(-1, 8)
    coeffs = _matvec(coupled_basis().matrix.conj().T, chi)
    u = np.asarray(cfg.u_values)
    theta = cfg.theta_values[0]
    out = np.empty((len(u), len(pairs), 3 + len(_OBSERVABLE_COLUMNS)))
    out[..., 0], out[..., 1], out[..., 2] = vartheta.ravel(), phi.ravel(), u[:, None]
    for k in _chunks(len(u)):
        t_block, r_block = amplitudes(u[k], np.full(len(u[k]), theta))
        for block, u_i, t, r in zip(out[k], u[k], t_block, r_block):
            for s in _chunks(len(pairs)):
                block[s, 3:] = observable_table(
                    t[None], r[None], coeffs[s], u_i, theta
                )
    return out.reshape(-1, out.shape[-1])


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the configured grid and return the result table."""
    if cfg.kind == "family":
        columns = ("vartheta", "phi", "u", *_OBSERVABLE_COLUMNS)
        rows = _family_table(cfg)
    else:
        columns = ("theta", "u", *_OBSERVABLE_COLUMNS)
        rows = _point_table(cfg)
    rows.flags.writeable = False
    header = tuple(f"# {key} = {value}" for key, value in cfg.echo)
    return SweepResult(header=header, columns=columns, rows=rows)


def render_csv(result: SweepResult) -> str:
    """The CSV text: the header lines, the column names, then one line per row.

    Every value reads exactly as ``format_float`` (``%.17g``) prints it; numpy
    computes the digits ``CHUNK`` rows at a time, and only the fallback set of
    the module docstring goes through ``format_float`` value by value.
    """
    parts = ["\n".join([*result.header, ",".join(result.columns)]) + "\n"]
    for s in _chunks(len(result.rows)):
        parts.append(format_rows(result.rows[s]).decode("ascii"))
    return "".join(parts)


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
