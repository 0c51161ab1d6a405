"""Benchmark: regenerate Fig. 9 (PCtrl Full/Auto/Manual).

Runs the scaled-down PCtrl so the benchmark stays in CI territory; the
full-size model is ``python -m repro.expts fig9 --scale medium``.
Asserts the paper's shape: Auto halves the flexible design's area in
both configurations, and Manual only matters for uncached mode.  The
exact areas are pinned too: the flow is deterministic, and a change
that moves any of them must say why.
"""

import pytest

from repro.expts.fig9_pctrl import run_fig9

#: (config, flow) -> (comb, seq, total) area in um^2, as rendered.
GOLDEN_AREAS = {
    ("cached", "full"): ("20359", "32282", "52640"),
    ("cached", "auto"): ("6034", "7231", "13265"),
    ("cached", "manual"): ("5812", "7231", "13043"),
    ("uncached", "full"): ("20359", "32282", "52640"),
    ("uncached", "auto"): ("6034", "7231", "13265"),
    ("uncached", "manual"): ("4499", "6609", "11107"),
}


@pytest.mark.slow
def test_bench_fig9_small(once):
    result = once(run_fig9, scale="small")
    text = result.to_markdown()
    assert "cached" in text and "uncached" in text

    rows = result.tables["Area (um^2) and switched-cap power proxy"]
    # Parse the flows back out of the rendered table.
    rendered = {}
    for line in rows.splitlines()[2:]:
        config, flow, comb, seq, total, _power = line.split()
        rendered[(config, flow)] = (comb, seq, total)
    assert rendered == GOLDEN_AREAS
    areas = {
        key: tuple(float(value) for value in row)
        for key, row in rendered.items()
    }

    for config in ("cached", "uncached"):
        full_comb, full_seq, full_total = areas[(config, "full")]
        auto_comb, auto_seq, auto_total = areas[(config, "auto")]
        # Partial evaluation removes a large part of both area classes.
        assert auto_comb < full_comb * 0.8
        assert auto_seq < full_seq * 0.8
        assert auto_total < full_total * 0.8

    manual_unc = areas[("uncached", "manual")][2]
    auto_unc = areas[("uncached", "auto")][2]
    manual_cached = areas[("cached", "manual")][2]
    auto_cached = areas[("cached", "auto")][2]
    unc_gain = 1 - manual_unc / auto_unc
    cached_gain = 1 - manual_cached / auto_cached
    # Manual pruning pays off in uncached mode, barely in cached mode.
    assert unc_gain > 0.05
    assert cached_gain < unc_gain
    assert cached_gain < 0.10
