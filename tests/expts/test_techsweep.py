"""The techsweep driver: pipelines x libraries, caching."""

import pytest

from repro.expts.techsweep import (
    RECIPES,
    REFERENCE_LIBRARY,
    run_techsweep,
    variant_spec,
)
from repro.flow import CompileCache, PassManager
from repro.flow.passes import registered_library_names

#: The small sweep's table as rendered, trailing blanks stripped.  The
#: flow is deterministic: a change that moves any entry must say why.
GOLDEN_SWEEP_TABLE = """\
design      recipe    library       area   delay_ns  met
----------  --------  ------------  -----  --------  ---
fsm_m2n4s5  classic   generic45ish  91.6   0.627     yes
fsm_m2n4s5  classic   lowpowerish   166.7  1.335     yes
fsm_m2n4s5  classic   tsmc90ish     193.1  0.931     yes
fsm_m2n4s5  resub+dc  generic45ish  91.2   0.635     yes
fsm_m2n4s5  resub+dc  lowpowerish   167.8  1.451     yes
fsm_m2n4s5  resub+dc  tsmc90ish     194.3  1.014     yes
fsm_m2n8s8  classic   generic45ish  210.0  0.679     yes
fsm_m2n8s8  classic   lowpowerish   346.8  1.671     yes
fsm_m2n8s8  classic   tsmc90ish     404.9  1.172     yes
fsm_m2n8s8  resub+dc  generic45ish  210.0  0.679     yes
fsm_m2n8s8  resub+dc  lowpowerish   346.8  1.671     yes
fsm_m2n8s8  resub+dc  tsmc90ish     404.9  1.172     yes
tbl_i4w6    classic   generic45ish  44.8   0.241     yes
tbl_i4w6    classic   lowpowerish   78.4   0.552     yes
tbl_i4w6    classic   tsmc90ish     92.2   0.371     yes
tbl_i4w6    resub+dc  generic45ish  43.2   0.302     yes
tbl_i4w6    resub+dc  lowpowerish   69.2   0.582     yes
tbl_i4w6    resub+dc  tsmc90ish     81.4   0.392     yes
"""

GOLDEN_SWEEP_NOTE = (
    "resub+dc recipe removes 7 more AND nodes than the classic recipe "
    "across the sweep"
)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One shared cold run and its cache."""
    root = tmp_path_factory.mktemp("techsweep")
    cache = CompileCache(root / "cache")
    result = run_techsweep(scale="small", workers=1, cache=cache)
    return result, cache


def test_covers_at_least_two_libraries_and_two_recipes(sweep):
    result, _ = sweep
    libraries = set(result.meta["libraries"])
    assert len(libraries) >= 2
    assert len(result.meta["recipes"]) >= 2
    assert libraries == set(registered_library_names())
    # Every (library) series got points, and each point carries a
    # recipe tag.
    for library in libraries:
        points = result.series(library)
        assert points
        recipes = {p.meta["recipe"] for p in points}
        assert recipes == set(RECIPES)


def test_small_sweep_table_and_note_are_pinned(sweep):
    result, _ = sweep
    table = result.tables["Area/delay per (design, recipe, library)"]
    assert [line.rstrip() for line in table.splitlines()] == (
        GOLDEN_SWEEP_TABLE.splitlines()
    )
    assert len(table.splitlines()) == 2 + 18
    assert GOLDEN_SWEEP_NOTE in result.notes


def test_reference_series_ratio_is_one(sweep):
    result, _ = sweep
    stats = result.ratio_stats(REFERENCE_LIBRARY)
    assert stats.count > 0
    assert stats.geomean == pytest.approx(1.0)


def test_warm_rerun_performs_zero_compiles(sweep):
    result, cache = sweep
    before_stores = cache.stores
    warm = run_techsweep(scale="small", workers=1, cache=cache)
    assert cache.stores == before_stores  # nothing recompiled
    # Identical payload: the report and every point.
    assert warm.to_markdown() == result.to_markdown()
    assert [
        (p.series, p.x, p.y, p.label, p.meta) for p in warm.points
    ] == [(p.series, p.x, p.y, p.label, p.meta) for p in result.points]
    assert warm.tables == result.tables


def test_variant_specs_round_trip():
    for recipe in RECIPES.values():
        for library in registered_library_names():
            spec = variant_spec("table_rom", recipe, library, 20.0)
            assert PassManager.parse(spec).spec() == spec
            assert f"map{{library={library}}}" in spec


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        run_techsweep(scale="huge")
