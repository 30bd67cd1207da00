"""``write_csv`` prints every value exactly as ``format_float`` (``%.17g``) does.

The rows are formatted by numpy (``scenarios._format``); the reference is the
one-value formatter joined per row.  A column whose bits repeat in every row
of a chunk is formatted once, so the tables here also mix such constant
columns with free ones.  The same comparison on drawn floats, bit patterns
and tables needs hypothesis and lives in ``test_render_properties.py``.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spinfp.scenarios import _format, sweeps
from spinfp.scenarios.config import SCENARIO_PRESETS, build_config
from spinfp.scenarios._format import format_float
from spinfp.scenarios.sweeps import SweepResult, run_sweep, write_csv


def written(result) -> str:
    """The text ``write_csv`` writes for ``result``, read back from disk."""
    with tempfile.TemporaryDirectory() as directory:
        return write_csv(result, Path(directory) / "table.csv").read_bytes().decode("utf-8")


def data_lines(rows) -> str:
    return "".join(",".join(format_float(v) for v in row) + "\n" for row in rows.tolist())


def reference(header, columns, rows) -> str:
    return "".join(f"{line}\n" for line in [*header, ",".join(columns)]) + data_lines(rows)


def rendered(rows, batch) -> str:
    """``format_rows`` of ``batch`` rows at a time, joined."""
    text = b"".join(_format.format_rows(rows[s:s + batch]) for s in range(0, len(rows), batch))
    return text.decode("ascii")


def assert_renders_exactly(values, width=3):
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-len(values) % width)])
    rows = values.reshape(-1, width)
    columns = tuple(f"c{i}" for i in range(width))
    result = SweepResult(header=("# scenario = x",), columns=columns, batches=lambda: [rows],
                         row_count=len(rows))
    assert written(result) == reference(result.header, columns, rows)


def _powers_of_ten_and_neighbours():
    powers = np.array([10.0**k for k in range(-300, 301)])
    return np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )


def _edges(limit):
    return [np.nextafter(limit, 0.0), limit, np.nextafter(limit, np.inf)]


EXPLICIT = {
    "ties": [2.0**50 + 0.25, 2.0**50 + 0.75, -(2.0**50 + 0.25)],
    "powers of ten": _powers_of_ten_and_neighbours(),
    # 17 digits round up into the next decade, or sit just below it
    "decade carries": [9.9999999999999997e-278, 1e-243, 1e-14, 1e98, 1e220,
                       np.nextafter(1e17, 0.0), np.nextafter(1e16, 0.0)],
    "fallback edges": [s * v for s in (1.0, -1.0) for v in _edges(1e-280) + _edges(1e280)],
    "specials": [0.0, -0.0, math.nan, math.inf, -math.inf, sys.float_info.max,
                 -sys.float_info.max, 5e-324, -5e-324, sys.float_info.min],
    "notation switch": [1e-4, 9.9999999999999991e-05, 1e-5, 1e16, 1e17, 123456789012345678.0,
                        12345678901234567.0, 0.5, 1.0 / 3.0, 100.0, 1200.0],
}


@pytest.mark.parametrize("values", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_explicit_values(values):
    assert_renders_exactly(values)


def _column(value, rows=5):
    return np.full(rows, value)


CONSTANT_COLUMNS = {
    # one row: every column is constant
    "one row": np.array([[0.0, -0.0, 1.5, math.nan, 1e-300, 2.0**50 + 0.25, 12.5]]),
    # equal as floats, not as bits: the column varies
    "zero with one -0.0": np.column_stack([[0.0, 0.0, -0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]),
    "specials": np.column_stack([
        _column(-0.0), np.linspace(0.1, 0.5, 5), _column(math.nan), _column(math.inf),
        _column(-math.inf), _column(1e-300), _column(2.0**50 + 0.25),
    ]),
    "all constant": np.column_stack([
        _column(v) for v in (0.0, 3.0, 1e-5, 123.456, -1e22, 0.1, 1e16)
    ]),
}


@pytest.mark.parametrize("table", CONSTANT_COLUMNS.values(), ids=CONSTANT_COLUMNS.keys())
def test_constant_column_cases(table):
    assert_renders_exactly(table, table.shape[1])


def test_only_the_fallback_set_is_formatted_one_by_one(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return format_float(value)

    monkeypatch.setattr(_format, "format_float", counted)
    tie = 2.0**50 + 0.25  # 1125899906842624.25: a tie at 17 digits, rounds to even
    assert_renders_exactly([1.5, tie, -0.0, 1e-300, math.inf, 0.1])
    assert calls == [tie, 1e-300, math.inf]
    calls.clear()
    # a carry to 10^17 stays on the fast path
    assert_renders_exactly([*np.linspace(-3.0, 7.0, 99), *EXPLICIT["decade carries"]])
    assert calls == []
    # a constant column is formatted once, through the same path as the others
    table = np.column_stack([_column(0.1, 4), np.arange(4.0) / 3, _column(1e-300, 4)])
    assert_renders_exactly(table, 3)
    assert calls == [1e-300]


# sweeps beside the figure presets, each walking the grid builder another way
CUSTOM_SWEEPS = {
    # 6,601 family states per u take several blocks per point
    "fig5-multi-u": {"scenario": "fig5", "u_list": "0.5,1,2,10"},
    # 6 states at 7 u values: all 7 points in one row-builder call
    "fig5-small-grid": {"scenario": "fig5", "vartheta_steps": "3", "phi_steps": "2",
                        "u_list": "0.5,1,2,3,5,8,10"},
    # 4,508 states per u: 768 does not divide it, so a short block ends the point
    "fig5-4508-states": {"scenario": "fig5", "phi_steps": "28"},
    # -0.0 in the theta sweep's state
    "fig2a-electron-0-1": {"scenario": "fig2a", "electron_spin": "0,-1"},
    # the family states on four columns
    "fig5-complex-electron": {"scenario": "fig5", "electron_spin": "0.6+0.1j,0.8"},
}
TABLES = {
    **{name: {"scenario": name} for name in SCENARIO_PRESETS if name.startswith("fig")},
    **CUSTOM_SWEEPS,
}


@pytest.mark.parametrize("settings", TABLES.values(), ids=TABLES.keys())
def test_preset_tables(settings):
    result = run_sweep(build_config(settings))
    assert written(result) == reference(result.header, result.columns, result.rows)


@pytest.mark.parametrize("chunk", [1, 7])
def test_preset_table_in_small_chunks(monkeypatch, chunk):
    # the kernel and the row builder take 3 or 21 points per call, the rows write_csv
    # renders at once
    monkeypatch.setattr(sweeps, "CHUNK", chunk)
    result = run_sweep(build_config({"scenario": "fig7"}))
    assert written(result) == reference(result.header, result.columns, result.rows)


@pytest.fixture(scope="module")
def fig4_rows():
    return run_sweep(build_config({"scenario": "fig4"})).rows


@pytest.mark.parametrize("batch", [1, 7, 256, 768, 1024, 4096])
def test_family_preset_in_render_batches(fig4_rows, batch):
    # 6,601 rows: at one row per batch every column is constant, and the last batch
    # is short from 256 rows up; write_csv renders 768
    assert rendered(fig4_rows, batch) == data_lines(fig4_rows)


def test_batch_splitting_a_u_block():
    # three u blocks of 100 rows in batches of 60: u varies in the batch of rows
    # 60-119 and is constant in the batch of rows 120-179
    rows = run_sweep(build_config({"scenario": "fig2a", "theta_steps": "100",
                                   "u_list": "1,2,3"})).rows
    u = rows[:, 1]
    assert len(set(u[60:120])) == 2 and len(set(u[120:180])) == 1
    assert rendered(rows, 60) == data_lines(rows)
