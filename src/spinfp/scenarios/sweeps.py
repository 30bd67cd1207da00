"""Grid evaluation of the scattering pipeline and CSV emission.

Output layout is deterministic: rows are emitted row-major over the grid
with the coupling u as the outermost axis, so identical configs give
byte-identical files.  The data section carries no timestamps; the ``#``
header block echoes the resolved configuration.

Every sweep kind is one grid of points (u, theta), the outer axis, times
incident product-basis states, the inner one: theta and coupling sweeps
have one state, a family sweep its grid of states at the fixed phase.  One
grid builder calls the production kernel ``closed_form.amplitudes`` on up to
``3 * CHUNK`` points at a time whatever the number of states, and
``observables.observable_table`` once on up to ``3 * CHUNK`` rows of them,
the rows ``write_csv`` renders in one call.  States and matrices alike are
in the product basis, cut to the columns where some incident state of the
sweep is nonzero, which the config tells: one to four of the eight, so the
kernel builds no dense 8x8 matrix.  A dropped column's state entries are
all +-0, so its terms would add exact zeros to sums that start at +0.0, and
the rows keep their bits.  The sweep is computed as it is written: a
generator puts those rows beside the lead columns (the config's grid
values) and yields the table ``3 * CHUNK`` rows at a time, building a
family's states ``16 * CHUNK`` at a time from their (vartheta, phi)
indices, so no array as long as the sweep exists but the config's grids.
``SweepResult.rows`` asks it for the whole table at once.
This module names only the lead columns; the rest are
``observables.OBSERVABLE_COLUMNS``.  Every value of a row is computed from
its own point and state only, so the output does not depend on the chunk
size.  Every sweep kind reads its phases from ``SweepConfig.theta_values``,
which holds one phase for family and coupling sweeps.

``write_csv`` lays out the CSV and streams it to disk batch by batch, as
bytes, so a sweep and its write hold O(CHUNK) rows and bytes of text, never
the table or the file: the header block in UTF-8 (the echo may hold any
path), then ``_format.format_rows`` of each batch in ASCII, every value
exactly as ``%.17g`` prints it; ``_format`` says how numpy computes the
digits.  A render call makes about 150 numpy calls at any size: 768 rows
render a fifth faster than 256, and, unlike 1,024, leave the peak RSS of a
process that runs one theta sweep and writes it where 256 left it.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..closed_form import amplitudes
from ..observables import OBSERVABLE_COLUMNS, observable_table
from ._format import format_rows
from .config import SweepConfig
from .states import electron_state, family_builder, incident_state

# a sweep's rows per row-builder and render call, and points per kernel call,
# are 3 * CHUNK (temporaries near 1 MB); verify's criterion 1 takes CHUNK points
# per call, as its peak RSS rose with larger ones
CHUNK = 256


@dataclass(frozen=True, eq=False)  # == is identity, and hash works
class SweepResult:
    """A sweep's header echo lines, column names and its table, computed as it is read.

    Each call ``batches(size)`` computes the table again and yields it in row
    order, a float64 array of shape (rows, len(columns)) at a time, at most
    ``size`` rows.  ``rows``, the whole table of ``row_count`` rows as one
    read-only array, is built on first access as one batch.
    """

    header: tuple[str, ...]
    columns: tuple[str, ...]
    batches: Callable[[int], Iterable[np.ndarray]]
    row_count: int

    @functools.cached_property
    def rows(self) -> np.ndarray:
        (rows,) = self.batches(self.row_count)  # filled in place, block by block
        rows.flags.writeable = False
        return rows


def _chunks(n: int, size: int):
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def _points(u_values, theta_values, start: int, stop: int):
    """u and theta at the points start to stop - 1 of the grid u_values x
    theta_values, u the outer axis: a slice of theta beside its one u when
    the points share their u, as most of a theta sweep's groups do."""
    k, first = divmod(start, len(theta_values))
    if first + stop - start <= len(theta_values):
        theta = theta_values[first:first + stop - start]
        return np.full(len(theta), u_values[k]), theta
    i, j = np.divmod(np.arange(start, stop), len(theta_values))
    return u_values[i], theta_values[j]


def _blocks(u_values, theta_values, size: int, n_states: int, states, span_len: int,
            used: np.ndarray):
    """Observables over the points of the grid u_values x theta_values, u the
    outer axis, times ``n_states`` incident product-basis states, the inner one.

    ``states(span)`` gives the states of a span of at most ``span_len`` and a
    tuple of columns of values per state; ``used`` holds the indices of the
    product-basis kets where any of the states is nonzero, and only those
    columns of the states and of t and r reach the kernel and the row
    builder.  Yields (u, theta, values, table) in row order: the block's
    points, those columns at its states, and ``observable_table`` of shape
    (points, states, columns), at most min(3 * CHUNK, size) rows.  The kernel
    runs once per group of up to 3 * CHUNK points, a whole number of blocks'
    points, whatever the number of states.
    """
    batch = 3 * CHUNK  # read here, so that a patched CHUNK applies
    size = min(batch, size)  # rows per block
    n_points = len(u_values) * len(theta_values)
    step = max(1, size // n_states)  # points per block
    group = step * (batch // step)  # points per kernel call

    def used_states(span):  # np.take, not chi[:, used]: a contiguous chi keeps every bit
        chi, values = states(span)
        return chi.take(used, axis=-1), values

    spans = [slice(a, min(a + span_len, n_states)) for a in range(0, n_states, span_len)]
    built = used_states(spans[0]) if len(spans) == 1 else None  # then built once
    for start in range(0, n_points, group):
        u, theta = _points(u_values, theta_values, start, min(start + group, n_points))
        t, r = amplitudes(u, theta, used)
        for p in _chunks(len(u), step):
            for span in spans:
                chi, values = used_states(span) if built is None else built
                for s in _chunks(len(chi), size):
                    table = observable_table(t[p, None], r[p, None], chi[s],
                                             u[p, None], theta[p, None])
                    if p.stop == len(u) and span is spans[-1] and s.stop == len(chi):
                        t = r = None  # the group's last block: not held while it is written
                    yield u[p], theta[p], tuple(v[s] for v in values), table


def _table(u_values, theta_values, chi) -> np.ndarray:
    """``OBSERVABLE_COLUMNS`` over the points u_values x theta_values, u the
    outer axis, times the incident product-basis states chi, the inner one."""
    used = np.flatnonzero(np.any(chi, axis=0))
    blocks = _blocks(u_values, theta_values, 3 * CHUNK, len(chi), lambda s: (chi[s], ()),
                     len(chi), used)
    return np.concatenate([table.reshape(-1, table.shape[-1]) for *_, table in blocks])


def _batches(cfg: SweepConfig, size: int):
    """The sweep's table in row order, at most ``size`` rows at a time: the
    lead columns, the config's grid values, then ``OBSERVABLE_COLUMNS``.  A
    batch holds whole blocks, so it is cut short when the next would not fit."""
    if size < 1:
        raise ValueError(f"batch size {size!r} is not a positive number of rows")
    if cfg.kind == "family":
        electron = electron_state(cfg.electron_spin)
        builder = family_builder(cfg.impurity_state)
        # the electron's nonzero components times the family's two kets, both
        # nonzero at a mix off the axes
        used = np.flatnonzero(np.kron(electron != 0, builder(1.0, 0.0) != 0))

        def states(span):  # and their vartheta and phi, phi the inner axis
            i, j = np.divmod(np.arange(span.start, span.stop), len(cfg.phi_values))
            vartheta, phi = cfg.vartheta_values[i], cfg.phi_values[j]
            return np.kron([electron], builder(vartheta, phi)), (vartheta, phi)

        def lead_values(u, theta, values):
            return (*values, u[:, None])

        n_states = len(cfg.vartheta_values) * len(cfg.phi_values)
    else:
        chi = incident_state(cfg.electron_spin, cfg.impurity_state).amplitudes[None]
        used = np.flatnonzero(chi)

        def states(span):
            return chi[span], ()

        def lead_values(u, theta, values):
            return theta[:, None], u[:, None]

        n_states = 1
    out, left = None, cfg.row_count
    # states are built 16 * CHUNK at a time (4,096, 0.5 MB), or a larger
    # batch's worth: each build pays a fixed cost in np.kron and the family
    # builder (about 26 us on a 2-vCPU x86-64 host), which at 768 states a
    # build slowed a 30,125-state family sweep by 7%
    blocks = _blocks(cfg.u_values, cfg.theta_values, size, n_states, states,
                     max(size, 16 * CHUNK), used)
    for u, theta, values, table in blocks:
        lead = lead_values(u, theta, values)
        rows = table.shape[0] * table.shape[1]
        if out is None:
            out, filled = np.empty((min(size, left), len(lead) + table.shape[2])), 0
        block = out[filled:filled + rows].reshape(*table.shape[:2], -1)
        for c, column in enumerate(lead):
            block[..., c] = column
        block[..., len(lead):] = table
        filled, left = filled + rows, left - rows
        if filled == len(out) or len(out) - filled < min(3 * CHUNK, size, left):  # no room for the next block
            yield out[:filled]
            out = None


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The configured sweep; its table is computed when it is read."""
    lead = ("vartheta", "phi", "u") if cfg.kind == "family" else ("theta", "u")
    header = tuple(f"# {key} = {value}" for key, value in cfg.echo)
    return SweepResult(header=header, columns=(*lead, *OBSERVABLE_COLUMNS),
                       batches=functools.partial(_batches, cfg), row_count=cfg.row_count)


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

    The header lines, the column names, then one line per row, streamed a batch
    at a time as ``result.batches`` computes it to a temporary sibling of
    ``output_target(path)``, which then replaces that target, so a symlinked
    ``path`` stays a link.  A failure while computing, such as a
    ``NumericError``, is a failed write.

    Writing over an earlier file makes the rename the costly step: on ext4 on a
    2-vCPU x86-64 host, renaming a 750 KB CSV over an existing one took 0.7 to
    1 ms (median), against about 10 us for a rename to a new name, as ext4
    flushes the new data first when a rename replaces a file
    (``auto_da_alloc``).  The replace stays: it is what leaves the earlier
    file whole until the new one is complete, and unlinking the target first
    would leave no file in between.
    """
    out = output_target(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(out)  # replaced into place
    try:
        with open(tmp, "wb") as f:
            lines = [*result.header, ",".join(result.columns)]
            f.write(("\n".join(lines) + "\n").encode("utf-8"))
            f.writelines(format_rows(batch) for batch in result.batches(3 * CHUNK))
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Path(path)
