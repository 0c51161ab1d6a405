"""Truth-table reshaping helpers: ``project_table`` range validation."""

import pytest

from repro.aig import tt_util
from repro.tables.bits import all_ones


def test_project_table_rejects_out_of_range_positions():
    """``project_table`` must reject keep positions outside the
    table's variable range instead of silently folding garbage."""
    table = 0b0110  # XOR over 2 vars
    with pytest.raises(ValueError, match="out of range"):
        tt_util.project_table(table, (0, 2), 2)
    with pytest.raises(ValueError, match="out of range"):
        tt_util.project_table(table, (-1,), 2)
    # In-range projections still work.
    assert tt_util.project_table(table, (0, 1), 2) == table
    assert tt_util.project_table(table, (0,), 2) == 0b10


def test_project_table_full_range_identity():
    universe = all_ones(3)
    for table in (0, 0b10101010, universe):
        assert tt_util.project_table(table, (0, 1, 2), 3) == table
