"""The spec-string drivers vs the pre-refactor module-building route.

The acceptance bar of the frontend-as-passes refactor: the figure
drivers, now one spec string from controller IR to sized netlist,
must produce *byte-identical* measurement payloads to the old drivers
that built RTL modules by hand -- and a warm cache must perform zero
lowerings and zero synthesis compiles.
"""

import random

import pytest

from repro.controllers.fsm_random import random_fsm
from repro.expts.fig5_tables import Fig5Scale, run_fig5
from repro.expts.fig6_fsm import Fig6Scale, run_fig6
from repro.flow import CompileCache, PassManager
from repro.flow.passes import (
    ElaboratePass,
    EncodePass,
    FsmInferPass,
    HonourAnnotationsPass,
    OptimizeLoop,
    RetimeStage,
    SizePass,
    StateFoldingStage,
    TechMapPass,
)
from repro.synth.dc_options import StateAnnotation
from repro.tables.rtl import table_to_rom_rtl, table_to_sop_rtl
from repro.tables.truthtable import TruthTable


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(scale="small")


@pytest.fixture(scope="module")
def fig6_result():
    return run_fig6(scale="small")


def test_fig5_payload_matches_the_pre_refactor_route(fig5_result):
    """Every point of the IR-driven fig5 equals a by-hand compile of
    the pre-refactor modules through the pre-refactor pipeline."""
    reference = PassManager(
        [
            ElaboratePass(),
            OptimizeLoop(),
            TechMapPass(),
            SizePass(clock_period_ns=20.0),
        ]
    )
    assert fig5_result.meta["pipeline"] == reference.spec()
    config = Fig5Scale.named("small")
    expected_pairs = len(config.depths) * len(config.widths) * len(config.seeds)
    assert 0 < len(fig5_result.points) <= expected_pairs
    for point in fig5_result.points:
        depth, width, seed = (
            point.meta["depth"], point.meta["width"], point.meta["seed"],
        )
        rng = random.Random(hash((depth, width, seed)) & 0xFFFFFFFF)
        table = TruthTable.random((depth - 1).bit_length(), width, rng)
        table_ctx = reference.compile(
            table_to_rom_rtl(table, f"tbl_{point.label}")
        )
        sop_ctx = reference.compile(
            table_to_sop_rtl(table, f"sop_{point.label}")
        )
        assert point.y == table_ctx.area.combinational
        assert point.x == sop_ctx.area.combinational


def test_fig6_payload_matches_the_pre_refactor_route(fig6_result):
    reference = PassManager(
        [
            FsmInferPass(),
            HonourAnnotationsPass(),
            EncodePass(style="binary"),
            ElaboratePass(),
            OptimizeLoop(),
            StateFoldingStage(),
            TechMapPass(),
            SizePass(clock_period_ns=20.0),
        ]
    )
    assert fig6_result.meta["pipeline"] == reference.spec()
    from repro.controllers.fsm_rtl import fsm_to_case_rtl, fsm_to_table_rtl

    config = Fig6Scale.named("small")
    per_machine = len(config.inputs) * len(config.outputs) \
        * len(config.states) * len(config.seeds)
    assert len(fig6_result.points) == 2 * per_machine
    seen = set()
    for point in fig6_result.points:
        m, n, s = point.meta["m"], point.meta["n"], point.meta["s"]
        if (m, n, s, point.label) in seen:
            continue  # case-side compile shared between the series
        seen.add((m, n, s, point.label))
        seed = int(point.label.rsplit("x", 1)[1])
        rng = random.Random(hash((m, n, s, seed)) & 0xFFFFFFFF)
        spec = random_fsm(m, n, s, rng)
        case_ctx = reference.compile(fsm_to_case_rtl(spec))
        assert point.x == case_ctx.area.total
        table_module = fsm_to_table_rtl(spec)
        annotations = (
            [StateAnnotation("state", tuple(range(s)))]
            if point.series == "state annotated"
            else []
        )
        treat_ctx = reference.compile(
            table_module, annotations=annotations
        )
        assert point.y == treat_ctx.area.total


def test_fig8_pipelines_round_trip_as_specs():
    """fig8's three treatment pipelines are spec strings that parse
    back to exactly the pre-refactor pass objects."""
    from repro.expts.fig8_stateprop import run_fig8  # noqa: F401

    objects = {
        "regular": PassManager(
            [
                ElaboratePass(),
                OptimizeLoop(),
                TechMapPass(),
                SizePass(clock_period_ns=20.0),
            ]
        ),
        "retimed": PassManager(
            [
                ElaboratePass(fold_sync_reset=True),
                OptimizeLoop(),
                RetimeStage(),
                TechMapPass(),
                SizePass(clock_period_ns=20.0),
            ]
        ),
        "annotated": PassManager(
            [
                HonourAnnotationsPass(),
                ElaboratePass(),
                OptimizeLoop(),
                StateFoldingStage(),
                TechMapPass(),
                SizePass(clock_period_ns=20.0),
            ]
        ),
    }
    for name, pipeline in objects.items():
        spec = pipeline.spec()
        assert PassManager.parse(spec).spec() == spec


def test_fig5_warm_cache_zero_lowerings_zero_compiles(tmp_path, monkeypatch):
    """Acceptance: re-running a figure out of a warm cache executes no
    lowering and no synthesis, and reproduces the cold result
    byte-for-byte: the rendered report and every point."""
    cache = CompileCache(tmp_path / "cache")
    cold = run_fig5(scale="small", cache=cache)
    assert cache.misses > 0

    import repro.flow.frontend as frontend
    import repro.flow.passes as passes

    def boom(*args, **kwargs):
        raise AssertionError("warm run executed a lowering/compile")

    monkeypatch.setattr(frontend, "table_to_rom_rtl", boom)
    monkeypatch.setattr(frontend, "table_to_sop_rtl", boom)
    monkeypatch.setattr(passes, "elaborate", boom)
    monkeypatch.setattr(passes, "map_aig", boom)

    warm_cache = CompileCache(tmp_path / "cache")
    warm = run_fig5(scale="small", cache=warm_cache)
    assert warm_cache.misses == 0 and warm_cache.stores == 0
    assert warm.to_markdown() == cold.to_markdown()
    assert [
        (p.series, p.x, p.y, p.label, p.meta) for p in warm.points
    ] == [(p.series, p.x, p.y, p.label, p.meta) for p in cold.points]
