"""Grid evaluation of the scattering pipeline and CSV emission.

Every sweep kind is one grid of points (u, theta), u the outer axis and
``SweepConfig.theta_values`` the inner one (a single phase for family and
coupling sweeps), times incident product-basis states: one state for theta
and coupling sweeps, the (vartheta, phi) grid of states for a family sweep.
Row ``point * n_states + state`` depends on its own point and state only, so
the output does not depend on ``CHUNK``, and identical configs give
byte-identical files: the data section carries no timestamps, and the ``#``
header block echoes the resolved configuration.

The grid is walked by point group: the kernel ``closed_form.amplitudes`` runs
once per group of ``3 * CHUNK`` points, and ``observables.observable_table``
once per block of ``3 * CHUNK`` of the group's rows, the rows one render call
formats.  Both see only the product-basis columns where some incident state
of the sweep is nonzero (one to four of the eight), so no dense 8x8 matrix is
built; a dropped column's terms are exact zeros added to sums that start at
+0.0, so the rows keep their bits.  ``SweepResult.batches()`` yields each
block, beside its lead columns, as it is computed: no array as long as the
sweep exists but the config's grids.

``write_csv`` streams the CSV batch by batch, as bytes: the header block in
UTF-8 (the echo may hold any path), then ``_format.format_rows`` of each
batch in ASCII, every value exactly as ``%.17g`` prints it.  A render call
makes about 150 numpy calls at any size: 768 rows render a fifth faster than
256, and, unlike 1,024, leave the peak RSS of a process that runs one theta
sweep and writes it where 256 left it.
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
# are 3 * CHUNK (temporaries near 1 MB)
CHUNK = 256


@dataclass(frozen=True, eq=False)  # == is identity, and hash works
class SweepResult:
    """A sweep's header echo lines, column names and its table, computed as it is read.

    Each call ``batches()`` computes the table again and yields it in row
    order as the grid builder's blocks, each a float64 array of shape
    (rows, len(columns)) of at most ``3 * CHUNK`` rows.  ``rows``, the whole
    table of ``row_count`` rows as one read-only array, is filled from them
    on first access.
    """

    header: tuple[str, ...]
    columns: tuple[str, ...]
    batches: Callable[[], Iterable[np.ndarray]]
    row_count: int

    @functools.cached_property
    def rows(self) -> np.ndarray:
        rows, filled = np.empty((self.row_count, len(self.columns))), 0
        for batch in self.batches():
            rows[filled:filled + len(batch)] = batch
            filled += len(batch)
        rows.flags.writeable = False
        return rows


def _blocks(u_values, theta_values, n_states: int, states, used: np.ndarray):
    """Observables over the grid of points u_values x theta_values, u the outer
    axis, times ``n_states`` incident product-basis states, the inner one: row
    ``point * n_states + state``.

    ``states(state)`` gives the states at an array of state indices on the
    columns ``used``, the product-basis kets where any state of the sweep is
    nonzero; only those columns of t and r reach the kernel and the row
    builder.  Yields (u, theta, state, table) for each block of at most
    3 * CHUNK consecutive rows: each row's u, theta and state index, and its
    ``observable_table`` row.  The kernel runs once per group of 3 * CHUNK
    points, whose rows are a whole number of blocks.
    """
    size = 3 * CHUNK  # read here, so that a patched CHUNK applies
    n_points = len(u_values) * len(theta_values)

    def at(points):  # u and theta at points of the grid
        return u_values[points // len(theta_values)], theta_values[points % len(theta_values)]

    for first in range(0, n_points, size):
        stop = min(first + size, n_points)
        t, r = amplitudes(*at(np.arange(first, stop)), used)
        for start in range(first * n_states, stop * n_states, size):
            end = min(start + size, stop * n_states)
            point, state = np.divmod(np.arange(start, end), n_states)
            if n_states == 1 or point[0] == point[-1]:
                # a view: consecutive points of one state, or one point for every state
                k = slice(point[0] - first, point[-1] + 1 - first)
            else:
                k = point - first
            u, theta = at(point)
            table = observable_table(t[k], r[k], states(state), u, theta)
            if end == stop * n_states:
                t = r = None  # the group's last block: not held while it is written
            yield u, theta, state, table


def _batches(cfg: SweepConfig):
    """The sweep's table in row order, one grid builder's block of at most
    ``3 * CHUNK`` rows at a time: the lead columns, the config's grid values,
    then ``OBSERVABLE_COLUMNS``."""
    family = cfg.kind == "family"
    if family:
        electron = electron_state(cfg.electron_spin)
        builder = family_builder(cfg.impurity_state)
        # the electron's nonzero components times the family's two kets, both
        # nonzero at a mix off the axes
        used = np.flatnonzero(np.kron(electron != 0, builder(1.0, 0.0) != 0))
        n_phi = len(cfg.phi_values)

        def states(state):  # the electron times each pair, phi the inner axis
            pairs = builder(cfg.vartheta_values[state // n_phi], cfg.phi_values[state % n_phi])
            return electron[used // 4] * pairs.take(used % 4, axis=-1)

        n_states = len(cfg.vartheta_values) * n_phi
    else:
        chi = incident_state(cfg.electron_spin, cfg.impurity_state).amplitudes
        used = np.flatnonzero(chi)
        chi = chi.take(used)[None]

        def states(state):  # one state, for every row
            return chi

        n_states = 1
    for u, theta, state, table in _blocks(cfg.u_values, cfg.theta_values, n_states,
                                          states, used):
        lead = ((cfg.vartheta_values[state // n_phi], cfg.phi_values[state % n_phi], u)
                if family else (theta, u))
        block = np.empty((len(table), len(lead) + table.shape[1]))
        for c, column in enumerate(lead):
            block[:, c] = column
        block[:, len(lead):] = table
        yield block


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

    The header lines, the column names, then one line per row, streamed a block
    of at most ``3 * CHUNK`` rows at a time as ``result.batches`` computes it to
    a temporary sibling of ``output_target(path)``, which then replaces that
    target, so a symlinked ``path`` stays a link.  A failure while computing,
    such as a ``NumericError``, is a failed write.

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
            f.writelines(format_rows(batch) for batch in result.batches())
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return Path(path)
