"""Microbenchmarks for the synthesis substrate.

These track the cost of the passes the figure-level benchmarks are
built from, so a performance regression is attributable.  The
workload builders and registry-covering pipelines live in
``tests/helpers.py``.
"""

import random

import pytest

from repro.aig import balance, dc_rewrite, resub, rewrite
from repro.aig.rewrite import tt_sweep
from repro.flow import PASS_REGISTRY
from repro.sat.equiv import check_combinational_equivalence
from repro.tables.isop import isop
from repro.tech.mapper import map_aig
from tests.helpers import (
    AIG_LEAF_PASSES,
    annotated_fsm_module,
    bench_pipelines,
    build_table_aig,
    frontend_inputs,
)


@pytest.fixture(scope="module")
def table_aig():
    return build_table_aig()


def test_bench_isop_random_functions(benchmark):
    rng = random.Random(7)
    tables = [rng.getrandbits(1 << 8) for _ in range(20)]

    def run():
        return sum(len(isop(t, 0, 8)) for t in tables)

    cubes = benchmark(run)
    assert cubes > 0


def test_bench_tt_sweep(benchmark, table_aig):
    swept = benchmark(tt_sweep, table_aig)
    assert swept.num_ands <= table_aig.num_ands


def test_bench_balance(benchmark, table_aig):
    balanced = benchmark(balance, table_aig)
    assert balanced.depth() <= table_aig.depth()


def test_bench_rewrite(benchmark, table_aig):
    rewritten = benchmark(rewrite, table_aig)
    assert rewritten.num_ands <= table_aig.num_ands + 2


def test_bench_resub(benchmark, table_aig):
    substituted = benchmark(resub, table_aig)
    assert substituted.num_ands <= table_aig.num_ands


def test_bench_dc_rewrite(benchmark, table_aig):
    optimized = benchmark(dc_rewrite, table_aig)
    assert optimized.num_ands <= table_aig.num_ands


def test_bench_mapping(benchmark, table_aig):
    netlist = benchmark(map_aig, table_aig)
    assert netlist.area_report().num_cells > 0


def test_bench_sat_equivalence(benchmark, table_aig):
    optimized = tt_sweep(table_aig)

    def run():
        return check_combinational_equivalence(table_aig, optimized)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result


def test_bench_each_registered_pass_individually(benchmark, table_aig):
    """Per-pass wall time via PassRecord instrumentation.

    The shared bench pipelines together execute every pass in the
    registry -- the AIG leaf passes in isolation (cleanly attributable
    timings), the "optimize" composite on its own (so its body's
    records don't fold into the leaf timings), an annotated FSM
    through the full RTL-to-netlist flow for the rtl/netlist-stage
    passes, and each frontend lowering on its own controller IR --
    and every one leaves a timed PassRecord, so a regression in any
    registered pass is attributable from this one case.
    """
    from repro.synth.dc_options import StateAnnotation

    pipelines = bench_pipelines()
    module = annotated_fsm_module()
    annotations = [StateAnnotation("state", (0, 1, 2))]
    fsm, table, program, flexible, bindings = frontend_inputs()

    def run():
        return (
            pipelines["leaf"].compile(aig=table_aig),
            pipelines["optimize"].compile(aig=table_aig),
            pipelines["full"].compile(module, annotations=annotations),
            pipelines["fsm_lower"].compile(ctrl=fsm),
            pipelines["table_lower"].compile(ctrl=table),
            pipelines["sop_lower"].compile(ctrl=table),
            pipelines["useq_lower"].compile(ctrl=program),
            pipelines["bind"].compile(flexible, bindings=bindings),
        )

    contexts = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    leaf_ctx, opt_ctx = contexts[0], contexts[1]
    # Isolated, attributable timings for the leaf passes.
    leaf_timings = {}
    for record in leaf_ctx.records:
        if record.name in PASS_REGISTRY:
            leaf_timings.setdefault(record.name, 0.0)
            leaf_timings[record.name] += record.wall_time_s
    assert sorted(leaf_timings) == sorted(AIG_LEAF_PASSES)
    [opt_record] = [r for r in opt_ctx.records if r.name == "optimize"]
    assert opt_record.wall_time_s > 0.0

    # Full registry coverage: every registered pass left a record.
    recorded = {
        record.name
        for ctx in contexts
        for record in ctx.records
        if not record.skipped
    }
    missing = set(PASS_REGISTRY) - recorded
    assert not missing, f"registered passes with no PassRecord: {missing}"
    # The instrumentation also carries structural before/after stats,
    # AIG ones on the leaf passes and frontend ones on the lowerings.
    assert all(
        r.before is not None and r.after is not None
        for r in leaf_ctx.records
        if r.name in AIG_LEAF_PASSES
    )
    ctrl_records = [
        record
        for ctx in contexts
        for record in ctx.records
        if record.stage == "ctrl"
    ]
    assert ctrl_records  # the frontend pipelines really ran
    assert all(record.ctrl_before is not None for record in ctrl_records)
