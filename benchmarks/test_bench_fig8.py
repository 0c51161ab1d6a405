"""Benchmark: regenerate Fig. 8 (state propagation across flops).

Asserts every qualitative claim of the paper's Section III-B on the
Fig. 7 design family.
"""

import pytest

from repro.expts.fig8_stateprop import run_fig8

#: The small run's area table as rendered, trailing blanks stripped.
#: The flow is deterministic: a change that moves any entry must say why.
GOLDEN_AREA_TABLE = """\
n   flop   treatment  direct  generic  ratio
--  -----  ---------  ------  -------  -----
2   comb   regular    1.8     1.8      1.000
2   plain  regular    31.0    43.8     1.413
2   plain  retimed    31.0    43.8     1.413
2   plain  annotated  31.0    31.0     1.000
2   sync   regular    36.4    49.2     1.352
2   sync   retimed    36.6    49.4     1.350
2   sync   annotated  36.4    36.4     1.000
2   async  regular    39.4    52.2     1.325
2   async  retimed    39.4    52.2     1.325
2   async  annotated  39.4    39.4     1.000
4   comb   regular    15.5    15.5     1.000
4   plain  regular    73.9    103.9    1.406
4   plain  retimed    44.7    44.7     1.000
4   plain  annotated  73.9    73.9     1.000
4   sync   regular    84.7    114.7    1.354
4   sync   retimed    61.8    61.8     1.000
4   sync   annotated  84.7    84.7     1.000
4   async  regular    90.7    120.7    1.331
4   async  retimed    90.7    120.7    1.331
4   async  annotated  90.7    90.7     1.000
8   comb   regular    35.4    35.4     1.000
8   plain  regular    152.2   210.4    1.382
8   plain  retimed    79.2    79.2     1.000
8   plain  annotated  152.2   152.2    1.000
8   sync   regular    173.8   232.0    1.335
8   sync   retimed    99.8    99.8     1.000
8   sync   annotated  173.8   173.8    1.000
8   async  regular    185.8   244.0    1.313
8   async  retimed    185.8   244.0    1.313
8   async  annotated  185.8   185.8    1.000
16  comb   regular    75.2    75.2     1.000
16  plain  regular    308.8   428.8    1.389
16  plain  retimed    133.6   133.6    1.000
16  plain  annotated  308.8   308.8    1.000
16  sync   regular    352.0   472.0    1.341
16  sync   retimed    155.2   155.2    1.000
16  sync   annotated  352.0   352.0    1.000
16  async  regular    376.0   496.0    1.319
16  async  retimed    376.0   496.0    1.319
16  async  annotated  376.0   376.0    1.000
"""


def test_bench_fig8_small(once):
    result = once(run_fig8, scale="small")
    table = result.tables["Area per variant (um^2)"]
    assert [line.rstrip() for line in table.splitlines()] == (
        GOLDEN_AREA_TABLE.splitlines()
    )
    assert result.ratio_stats("comb/regular").maximum <= 1.01
    assert result.ratio_stats("plain/regular").minimum >= 1.1
    assert result.ratio_stats("plain/annotated").maximum <= 1.01
    assert result.ratio_stats("async/retimed").minimum >= 1.1


@pytest.mark.slow
def test_bench_fig8_medium_annotation_cap(once):
    """Medium scale reaches n=64: beyond the 32-bit state vector cap
    the annotation is ignored and the generic design stays big."""
    result = once(run_fig8, scale="medium")
    capped = [
        p.ratio
        for p in result.series("plain/annotated")
        if p.meta["n"] > 32
    ]
    helped = [
        p.ratio
        for p in result.series("plain/annotated")
        if p.meta["n"] <= 32
    ]
    assert capped and helped
    assert max(helped) <= 1.01
    assert min(capped) >= 1.1
