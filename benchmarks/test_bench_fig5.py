"""Benchmark: regenerate Fig. 5 (table-based vs SOP combinational).

Runs the reduced sweep and asserts the paper's shape: partially
evaluated tables synthesize to ~the same area as hand-written
sum-of-products across the grid.
"""

import pytest

from repro.expts.fig5_tables import run_fig5

#: The small run's area table as rendered, trailing blanks stripped.
#: The flow is deterministic: a change that moves any entry must say why.
GOLDEN_AREA_TABLE = """\
depth  width  seed  SOP    table  ratio
-----  -----  ----  -----  -----  -----
2      2      0     1.3    1.3    1.000
2      4      0     4.4    4.4    1.000
2      8      0     7.0    7.0    1.000
8      2      0     10.4   10.4   1.000
8      4      0     28.6   27.6   0.965
8      8      0     57.0   46.8   0.821
16     2      0     35.6   40.6   1.140
16     4      0     75.4   68.4   0.907
16     8      0     171.2  145.2  0.848
32     2      0     97.8   90.8   0.928
32     4      0     152.6  148.4  0.972
32     8      0     324.2  290.8  0.897
"""


def test_bench_fig5_small(once):
    result = once(run_fig5, scale="small")
    table = result.tables["Area per design pair (um^2)"]
    assert [line.rstrip() for line in table.splitlines()] == (
        GOLDEN_AREA_TABLE.splitlines()
    )
    stats = result.ratio_stats("table-based")
    assert stats.count >= 9
    assert 0.7 <= stats.geomean <= 1.3
    assert stats.maximum <= 2.0


@pytest.mark.slow
def test_bench_fig5_medium_slice(once):
    """A deeper slice (d up to 256) including the large-function regime
    where the paper saw table-based occasionally winning."""
    result = once(run_fig5, scale="medium")
    stats = result.ratio_stats("table-based")
    assert 0.7 <= stats.geomean <= 1.35
    deep_points = [p for p in result.points if p.meta["depth"] >= 64]
    assert deep_points, "medium scale must include deep tables"
    wins = sum(1 for p in deep_points if p.ratio <= 1.0)
    assert wins >= 1, "expected at least one table-based win at depth"
