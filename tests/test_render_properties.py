"""``write_csv`` prints drawn floats, bit patterns and tables exactly as
``format_float`` (``%.17g``) does: ``test_render.py``'s comparison on
hypothesis draws, which skip where hypothesis is not installed."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_render import assert_renders_exactly  # noqa: E402

RUNS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@RUNS
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
def test_any_float(values, width):
    assert_renders_exactly(values, width)


@RUNS
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_any_bit_pattern(patterns):
    assert_renders_exactly(np.array(patterns, dtype=np.uint64).view(np.float64))


@st.composite
def tables_with_constant_columns(draw):
    """A table in which each column is either free or one drawn float repeated."""
    rows, width = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    columns = []
    for _ in range(width):
        if draw(st.booleans()):
            columns.append(np.full(rows, draw(st.floats())))
        else:
            columns.append(np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows))))
    return np.column_stack(columns)


@RUNS
@given(tables_with_constant_columns())
def test_constant_columns(table):
    assert_renders_exactly(table, table.shape[1])
