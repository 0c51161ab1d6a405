"""Benchmark: regenerate Fig. 6 (FSM styles).

Asserts the paper's shape: state annotation brings table-based FSMs
into line with the vendor-recommended case style, while the
unannotated versions show more variance.
"""

import pytest

from repro.expts.fig6_fsm import run_fig6

#: The small run's area table as rendered, trailing blanks stripped.
#: The flow is deterministic: a change that moves any entry must say why.
GOLDEN_AREA_TABLE = """\
m  n  s  seed  case   table  table+annot
-  -  -  ----  -----  -----  -----------
2  2  2  0     45.3   45.3   45.3
2  2  3  0     120.8  110.8  116.0
2  2  8  0     270.1  238.7  244.5
2  8  2  0     72.5   69.7   69.7
2  8  3  0     155.0  161.4  177.2
2  8  8  0     407.5  396.5  400.7
"""


def test_bench_fig6_small(once):
    result = once(run_fig6, scale="small")
    table = result.tables["Area per FSM (um^2)"]
    assert [line.rstrip() for line in table.splitlines()] == (
        GOLDEN_AREA_TABLE.splitlines()
    )
    regular = result.ratio_stats("regular")
    annotated = result.ratio_stats("state annotated")
    assert annotated.log_spread <= regular.log_spread + 0.05
    assert 0.6 <= annotated.geomean <= 1.25


@pytest.mark.slow
def test_bench_fig6_medium(once):
    """The full state grid (s in {2,3,8,16,17}) at m=2: the paper's
    non-power-of-two variance claim needs s in {3, 17} present."""
    result = once(run_fig6, scale="medium")
    regular_odd = [
        p.ratio for p in result.series("regular") if p.meta["s"] in (3, 17)
    ]
    regular_pow2 = [
        p.ratio for p in result.series("regular") if p.meta["s"] in (2, 8, 16)
    ]
    annotated = result.ratio_stats("state annotated")
    assert regular_odd and regular_pow2
    # Variance (worst-case blowup) concentrates at odd state counts.
    assert max(regular_odd) >= max(regular_pow2) - 0.05
    # Annotated stays within a tight band of the case-statement area.
    assert annotated.maximum <= 1.4
    assert annotated.geomean <= 1.15
