"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, and all floating point values are
printed with 17 significant digits, so identical configs give byte-identical
files.  The data section carries no timestamps; the ``#`` header block echoes
the resolved configuration.

Every sweep kind is one grid of points (u, theta), the outer axis, times
incident product-basis states, the inner one: theta and coupling sweeps
have one state, a family sweep its grid of states at the fixed phase.  One
grid builder calls the production kernel ``closed_form.amplitudes`` on up to
``CHUNK`` points at a time and ``observables.observable_table`` on up to
``CHUNK`` rows, states and matrices alike in the product basis, and writes
them into one float64 table beside the lead columns (the config's grid
values).  This module names only those lead columns; the rest
are ``observables.OBSERVABLE_COLUMNS``.  Every value of a row is computed
from its own point and state only, so the output does not depend on the
chunk size.  Every sweep kind reads its phases from
``SweepConfig.theta_values``, which holds one phase for family and coupling
sweeps.

The CSV is produced ``CHUNK`` rows at a time, as bytes: the header block in
UTF-8 (the echo may hold any path), then ``_format.format_rows`` of each
chunk in ASCII.  Every value reads exactly as ``format_float`` (``%.17g``)
prints it, but numpy computes the digits of the whole chunk.  A column
whose bits are the same in every row of the chunk is formatted once and
copied into each row: the amplitudes that conservation of total S_z makes
exactly 0, and u (48% of the values of the figure presets).  Only nan,
+-inf, values outside (1e-280, 1e280) and values within 1e-6 of a rounding
tie go through ``format_float`` one by one (2 of the 985,976 values of the
figure presets, each called once).  ``write_csv`` streams those chunks to disk as they are
formatted, so a write holds O(CHUNK) bytes of text, never the whole file;
``render_csv`` joins the same chunks into one string.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..closed_form import amplitudes
from ..observables import OBSERVABLE_COLUMNS, observable_table
from ._format import format_float, format_rows
from .config import SweepConfig
from .states import electron_state, family_builder, incident_state

# rows per row-builder call and points per kernel call; temporaries near 1 MB
CHUNK = 256


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


def _table(u, theta, chi, lead: dict) -> np.ndarray:
    """Rows over the points (u[i], theta[i]), the outer axis, and the incident
    product-basis states chi[j], the inner one: the ``lead`` columns, each
    broadcast to (points, states), then ``OBSERVABLE_COLUMNS``."""
    out = np.empty((len(u), len(chi), len(lead) + len(OBSERVABLE_COLUMNS)))
    for k, values in enumerate(lead.values()):
        out[..., k] = values
    step = max(1, CHUNK // len(chi))  # points per kernel call
    for start in range(0, len(u), step):
        p = slice(start, start + step)
        t, r = amplitudes(u[p], theta[p])
        for s in _chunks(len(chi)):
            out[p, s, len(lead):] = observable_table(
                t[:, None], r[:, None], chi[s], u[p, None], theta[p, None]
            )
    return out.reshape(-1, out.shape[-1])


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate the configured grid and return the result table."""
    u = np.repeat(cfg.u_values, len(cfg.theta_values))  # u is the outer axis
    theta = np.tile(cfg.theta_values, len(cfg.u_values))
    if cfg.kind == "family":
        builder = family_builder(cfg.impurity_state)
        vartheta, phi = np.meshgrid(cfg.vartheta_values, cfg.phi_values, indexing="ij")
        pairs = builder(vartheta, phi).reshape(-1, 4)  # phi is the inner axis
        chi = (electron_state(cfg.electron_spin)[:, None] * pairs[:, None, :]).reshape(-1, 8)
        lead = {"vartheta": vartheta.ravel(), "phi": phi.ravel(), "u": u[:, None]}
    else:
        chi = incident_state(cfg.electron_spin, cfg.impurity_state).amplitudes[None]
        lead = {"theta": theta[:, None], "u": u[:, None]}
    rows = _table(u, theta, chi, lead)
    rows.flags.writeable = False
    header = tuple(f"# {key} = {value}" for key, value in cfg.echo)
    return SweepResult(header=header, columns=(*lead, *OBSERVABLE_COLUMNS), rows=rows)


def _csv_chunks(result: SweepResult):
    """The CSV as bytes: the header block in UTF-8, then ``CHUNK`` rows at a time."""
    lines = [*result.header, ",".join(result.columns)]
    yield ("\n".join(lines) + "\n").encode("utf-8")
    for s in _chunks(len(result.rows)):
        yield format_rows(result.rows[s])


def render_csv(result: SweepResult) -> str:
    """The CSV text: the header lines, the column names, then one line per row.

    Every value reads exactly as ``format_float`` (``%.17g``) prints it; numpy
    computes the digits ``CHUNK`` rows at a time, and only the fallback set of
    the module docstring goes through ``format_float`` value by value.  The
    text is the bytes ``write_csv`` writes, decoded.
    """
    return b"".join(_csv_chunks(result)).decode("utf-8")


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the table atomically: a failed write leaves any earlier file intact.

    The bytes are streamed to a temporary sibling one chunk at a time, as
    they are formatted, so the whole file never exists in memory; the
    sibling then replaces ``path``.  Identical results produce byte-identical
    files.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")  # replaced into place
    try:
        with open(tmp, "wb") as f:
            f.writelines(_csv_chunks(result))
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out
