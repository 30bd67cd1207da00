"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, so identical configs give
byte-identical files.  The data section carries no timestamps; the ``#``
header block echoes the resolved configuration.

Every sweep kind is one grid of points (u, theta), the outer axis, times
incident product-basis states, the inner one: theta and coupling sweeps
have one state, a family sweep its grid of states at the fixed phase.  One
grid builder calls the production kernel ``closed_form.amplitudes`` on up to
``CHUNK`` points at a time and ``observables.observable_table`` on up to
``CHUNK`` rows, states and matrices alike in the product basis, and writes
them into one float64 table beside the lead columns (the config's grid
values).  This module names only those lead columns; the rest are
``observables.OBSERVABLE_COLUMNS``.  Every value of a row is computed from
its own point and state only, so the output does not depend on the chunk
size.  Every sweep kind reads its phases from ``SweepConfig.theta_values``,
which holds one phase for family and coupling sweeps.

``write_csv`` lays out the CSV and streams it to disk ``3 * CHUNK`` rows at
a time, as bytes, so a write holds O(CHUNK) bytes of text, never the whole
file: the header block in UTF-8 (the echo may hold any path), then
``_format.format_rows`` of each batch in ASCII, every value exactly as
``%.17g`` prints it; ``_format`` says how numpy computes the digits.  A
render call makes about 150 numpy calls at any size: 768 rows render a fifth
faster than 256, and, unlike 1,024, leave the peak RSS of a process that
runs one theta sweep and writes it where 256 left it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..closed_form import amplitudes
from ..observables import OBSERVABLE_COLUMNS, observable_table
from ._format import format_rows
from .config import SweepConfig
from .states import electron_state, family_builder, incident_state

# rows per row-builder call and points per kernel call; temporaries near 1 MB,
# as for the 3 * CHUNK rows per render call (see above)
CHUNK = 256


@dataclass(frozen=True, eq=False)  # holds an array: == is identity, and hash works
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
        # one state per (vartheta, phi), phi the inner axis; no pair grid is kept
        chi = np.kron([electron_state(cfg.electron_spin)], builder(vartheta, phi).reshape(-1, 4))
        lead = {"vartheta": vartheta.ravel(), "phi": phi.ravel(), "u": u[:, None]}
    else:
        chi = incident_state(cfg.electron_spin, cfg.impurity_state).amplitudes[None]
        lead = {"theta": theta[:, None], "u": u[:, None]}
    rows = _table(u, theta, chi, lead)
    rows.flags.writeable = False
    header = tuple(f"# {key} = {value}" for key, value in cfg.echo)
    return SweepResult(header=header, columns=(*lead, *OBSERVABLE_COLUMNS), rows=rows)


def _sibling(out: Path) -> Path:
    """``.{name}.{pid}.tmp`` beside ``out``, the name cut to whole characters
    so that the sibling's name fits NAME_MAX, which counts bytes."""
    suffix = f".{os.getpid()}.tmp"
    try:
        name_max = os.pathconf(out.parent, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, as on Windows
        name_max = 255
    stem = os.fsencode(out.name)[:name_max - 1 - len(suffix)]
    return out.with_name(f".{stem.decode(sys.getfilesystemencoding(), 'ignore')}{suffix}")


def output_target(path: str | Path) -> Path:
    """The file writing ``path`` replaces (a link's target), the one check of an output:
    a regular file, or an absent one whose nearest existing ancestor is a directory."""
    target = Path(os.path.realpath(path))
    nearest = next(p for p in (target, *target.parents) if p.exists())  # "/" exists
    if not (target.is_file() if nearest == target else nearest.is_dir()):
        raise OSError(f"output {str(path)!r} is neither a regular file nor new in a directory")
    return target


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the table as CSV atomically: a failed write leaves any earlier file intact.

    The header lines, the column names, then one line per row, streamed three
    chunks at a time to a temporary sibling of ``output_target(path)``, which
    then replaces that target, so a symlinked ``path`` stays a link.
    """
    out = output_target(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(out)  # replaced into place
    try:
        with open(tmp, "wb") as f:
            lines = [*result.header, ",".join(result.columns)]
            f.write(("\n".join(lines) + "\n").encode("utf-8"))
            batch = 3 * CHUNK
            f.writelines(format_rows(result.rows[s:s + batch])
                         for s in range(0, len(result.rows), batch))
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Path(path)
