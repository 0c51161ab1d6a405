"""The pass-manager API: specs, registry, combinators, stages."""

import pytest

from repro.flow import (
    PASS_REGISTRY,
    Conditional,
    FlowContext,
    FlowError,
    Pass,
    PassManager,
    register_pass,
    registered_pass_names,
    until_converged,
)
from repro.flow.passes import BalancePass, RewritePass, SeqSweepPass, TtSweepPass
from repro.rtl.ast import Const
from repro.rtl.builder import ModuleBuilder, cat, mux
from repro.synth.elaborate import elaborate


def build_case_fsm():
    b = ModuleBuilder("fsm_case")
    go = b.input("go")
    state = b.reg("state", 2)
    nxt = b.case(
        state,
        {
            0: mux(go[0], Const(1, 2), Const(0, 2)),
            1: Const(2, 2),
            2: Const(0, 2),
        },
        Const(0, 2),
    )
    b.drive(state, nxt)
    b.output("busy", state.ne(0))
    b.output("done", state.eq(2))
    return b.build()


def table_aig():
    b = ModuleBuilder("table")
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(3 * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return elaborate(b.build()).aig


# ---------------------------------------------------------------------
# Spec parsing.
# ---------------------------------------------------------------------

def test_parse_round_trips_canonical_specs():
    for spec in (
        "seq_sweep",
        "seq_sweep,tt_sweep,balance,rewrite",
        "seq_sweep,balance,rewrite[2],retime?",
        "elaborate,optimize,map,size",
        "rewrite[3]?",
        "encode{style=gray},elaborate,optimize{effort_rounds=3}",
        "tt_sweep{support_limit=8}[2],size{clock_period_ns=2.0}",
    ):
        assert PassManager.parse(spec).spec() == spec


def test_spec_renders_non_default_parameters():
    """Parameterized passes fingerprint faithfully via spec()."""
    from repro.flow.passes import (
        EncodePass,
        OptimizeLoop,
        SizePass,
        TtSweepPass,
    )

    assert EncodePass(style="gray").spec() == "encode{style=gray}"
    assert EncodePass(style="binary").spec() == "encode"  # default elided
    assert SizePass(clock_period_ns=2.0).spec() == "size{clock_period_ns=2.0}"
    assert TtSweepPass(support_limit=8).spec() == "tt_sweep{support_limit=8}"
    assert OptimizeLoop(effort_rounds=3, support_limit=8).spec() == (
        "optimize{effort_rounds=3,support_limit=8}"
    )
    # Differently-parameterized pipelines must not collide.
    a = PassManager([EncodePass(style="gray")]).spec()
    b = PassManager([EncodePass(style="onehot")]).spec()
    assert a != b


def test_parse_applies_spec_parameters():
    ctx_spec = PassManager.parse("encode{style=onehot}")
    [encode] = ctx_spec.passes
    assert encode.options["style"] == "onehot"
    [size] = PassManager.parse("size{clock_period_ns=2.5}").passes
    assert size.options["clock_period_ns"] == 2.5
    [opt] = PassManager.parse("optimize{effort_rounds=4}").passes
    assert opt.body.max_rounds == 4


def test_parse_rejects_unknown_or_malformed_options():
    with pytest.raises(FlowError, match=r"\[CHK102\].*no option 'frob'"):
        PassManager.parse("balance{frob=1}")
    with pytest.raises(FlowError, match="malformed option"):
        PassManager.parse("encode{style}")
    # Invalid *values* surface as FlowError too, per the parse contract.
    with pytest.raises(FlowError, match=r"\[CHK104\].*one of"):
        PassManager.parse("encode{style=bogus}")
    with pytest.raises(FlowError, match=r"\[CHK104\].*must be > 0"):
        PassManager.parse("size{clock_period_ns=0}")
    with pytest.raises(FlowError, match=r"\[CHK104\].*must be >= 1"):
        PassManager.parse("stateprop{rounds=0}")
    with pytest.raises(FlowError, match=r"\[CHK104\].*must be >= 1"):
        PassManager.parse("optimize{effort_rounds=0}")


def test_parse_repeat_count_runs_pass_that_many_times():
    aig = table_aig()
    ctx = PassManager.parse("rewrite[3]").compile(aig=aig)
    names = [r.name for r in ctx.records]
    assert names.count("rewrite") == 3
    # The repeat wrapper adds its own summary record.
    assert "rewrite[3]" in names


def test_parse_unknown_pass_is_an_error():
    with pytest.raises(FlowError, match="unknown pass 'frobnicate'"):
        PassManager.parse("seq_sweep,frobnicate")


def test_parse_rejects_malformed_items():
    for bad in ("balance,,rewrite", "bal ance", "rewrite[0]", "rewrite[x]"):
        with pytest.raises(FlowError):
            PassManager.parse(bad)


def test_parse_errors_quote_the_item_and_its_position():
    """A failing entry is pinpointed: the 1-based item position and
    the item text itself, not just the failure kind."""
    with pytest.raises(
        FlowError, match=r"item 2 \('frobnicate'\)"
    ) as err:
        PassManager.parse("balance,frobnicate,rewrite")
    assert "unknown pass" in str(err.value)

    with pytest.raises(FlowError, match=r"item 3 \('rewrite\[0\]'\)"):
        PassManager.parse("balance,tt_sweep,rewrite[0]")

    with pytest.raises(
        FlowError, match=r"item 1 \('encode\{style\}'\)"
    ) as err:
        PassManager.parse("encode{style},balance")
    assert "malformed option" in str(err.value)

    with pytest.raises(FlowError, match="empty pass name at item 2"):
        PassManager.parse("balance,,rewrite")


def test_registry_lists_the_standard_passes():
    names = registered_pass_names()
    for expected in (
        "balance", "elaborate", "encode", "fsm_infer", "map", "optimize",
        "retime", "rewrite", "seq_sweep", "size", "stateprop", "tt_sweep",
    ):
        assert expected in names


def test_registry_collision_is_an_error():
    @register_pass("collision_probe")
    class ProbePass(Pass):
        def run(self, ctx):
            pass

    try:
        with pytest.raises(FlowError, match="already registered"):
            @register_pass("collision_probe")
            class ShadowPass(Pass):
                def run(self, ctx):
                    pass
    finally:
        PASS_REGISTRY.pop("collision_probe", None)


# ---------------------------------------------------------------------
# Stages and conditionals.
# ---------------------------------------------------------------------

def test_aig_pass_on_rtl_context_is_a_stage_error():
    with pytest.raises(FlowError, match="needs an elaborated AIG"):
        PassManager([BalancePass()]).compile(build_case_fsm())


def test_rtl_pass_after_elaboration_is_a_stage_error():
    from repro.flow.passes import ElaboratePass

    with pytest.raises(FlowError, match="un-elaborated RTL"):
        PassManager(
            [ElaboratePass(), ElaboratePass()]
        ).compile(build_case_fsm())


def test_conditional_pass_is_skipped_instead_of_erroring():
    ctx = PassManager.parse("balance?").compile(build_case_fsm())
    [record] = ctx.records
    assert record.skipped
    assert record.name == "balance?"
    assert record.messages == ()


def test_conditional_pass_runs_when_applicable():
    ctx = PassManager.parse("balance?").compile(aig=table_aig())
    [record] = ctx.records
    assert not record.skipped
    assert record.name == "balance"


# ---------------------------------------------------------------------
# The fixed-point combinator.
# ---------------------------------------------------------------------

class NullPass(Pass):
    """Changes nothing; until_converged must stop after one round."""

    name = "null"

    def run(self, ctx):
        pass


class ChurnPass(Pass):
    """Always flags progress; until_converged must hit max_rounds."""

    name = "churn"

    def run(self, ctx):
        ctx.mark_progress()


def test_until_converged_terminates_on_no_change():
    ctx = FlowContext(aig=table_aig())
    until_converged(NullPass(), max_rounds=50, label="probe").execute(ctx)
    rounds = [r for r in ctx.records if r.name.startswith("probe[")]
    assert len(rounds) == 1  # converged immediately


def test_until_converged_is_bounded_by_max_rounds():
    ctx = FlowContext(aig=table_aig())
    until_converged(ChurnPass(), max_rounds=5, label="probe").execute(ctx)
    rounds = [r for r in ctx.records if r.name.startswith("probe[")]
    assert len(rounds) == 5


def test_rejected_rounds_are_flagged_in_the_records():
    """A rolled-back round's records carry rejected=True (their stats
    describe discarded work) while its legacy log line is kept."""
    # initial, (before0, after0), (before1, after1), exit aggregate.
    values = iter([100, 100, 90, 90, 120, 120])
    ctx = FlowContext(aig=table_aig())
    until_converged(
        NullPass(), max_rounds=4, label="opt",
        metric=lambda _ctx: next(values),
    ).execute(ctx)
    flags = [(r.name, r.rejected) for r in ctx.records]
    assert ("opt[0]", False) in flags
    assert ("opt[1]", True) in flags  # the grown, rolled-back round
    assert ("null", True) in flags    # its body record too
    depth = ctx.aig.depth()  # NullPass leaves the AIG untouched
    assert ctx.log == [
        f"opt[0]: 100 -> 90 ands, depth {depth}",
        f"opt[1]: 90 -> 120 ands, depth {depth}",
    ]


def test_until_converged_shrinks_a_real_aig():
    aig = table_aig()
    ctx = FlowContext(aig=aig)
    until_converged(
        SeqSweepPass(), TtSweepPass(), BalancePass(), RewritePass(),
        max_rounds=4,
    ).execute(ctx)
    assert ctx.aig.num_ands <= aig.num_ands
    lines = [m for r in ctx.records for m in r.messages]
    assert any(line.startswith("optimize[0]:") for line in lines)


# ---------------------------------------------------------------------
# End-to-end: the acceptance pipeline on an elaborated AIG.
# ---------------------------------------------------------------------

def test_acceptance_pipeline_runs_on_elaborated_aig():
    aig = elaborate(build_case_fsm()).aig
    pipeline = PassManager.parse("seq_sweep,tt_sweep,balance,rewrite")
    ctx = pipeline.compile(aig=aig)
    assert ctx.aig.num_ands <= aig.num_ands
    assert [r.name for r in ctx.records] == [
        "seq_sweep", "tt_sweep", "balance", "rewrite",
    ]
    for record in ctx.records:
        assert record.wall_time_s >= 0.0
        assert record.before is not None and record.after is not None


def test_parse_then_map_and_size_produces_reports():
    module = build_case_fsm()
    pipeline = PassManager.parse("elaborate,optimize,map,size")
    ctx = pipeline.compile(module)
    assert ctx.netlist is not None
    assert ctx.area.total > 0
    assert ctx.timing.critical_delay > 0
    assert ctx.sizing is not None


def test_conditional_wraps_applies_not_just_stage():
    # stateprop? with no annotations is skipped via Pass.applies.
    aig = elaborate(build_case_fsm()).aig
    ctx = PassManager.parse("stateprop?").compile(aig=aig)
    [record] = ctx.records
    assert record.skipped


def test_stateprop_works_on_aig_only_contexts():
    """With no RTL module attached, register widths come from the
    AIG's latch names -- annotated AIG-entry pipelines still fold."""
    from repro.synth.dc_options import StateAnnotation

    aig = elaborate(build_case_fsm()).aig
    ctx = PassManager.parse("seq_sweep,stateprop").compile(
        aig=aig,
        annotations=[StateAnnotation("state", (0, 1, 2))],
    )
    assert ctx.fold_stats is not None
    assert any(line.startswith("stateprop:") for line in ctx.log)


def test_repeat_wrapper_rejects_nonpositive_counts():
    from repro.flow.combinators import Repeat

    with pytest.raises(ValueError):
        Repeat(BalancePass(), 0)


def test_fixed_point_reports_aggregate_progress_to_outer_loops():
    """Nesting composes: an inner fixed point must not erase the
    progress signal an outer combinator is about to read."""
    ctx = FlowContext(aig=table_aig())
    ctx.mark_progress()  # caller's signal
    until_converged(NullPass(), max_rounds=3, label="inner").execute(ctx)
    assert ctx.progress  # preserved, not clobbered by the round reset

    ctx2 = FlowContext(aig=table_aig())
    inner = until_converged(NullPass(), max_rounds=2, label="inner")
    until_converged(
        ChurnPass(), inner, max_rounds=3, label="outer"
    ).execute(ctx2)
    outer_rounds = [r for r in ctx2.records if r.name.startswith("outer[")]
    assert len(outer_rounds) == 3  # churn's progress survives the nest


def test_combinators_reject_nonpositive_round_counts():
    from repro.flow.combinators import WhileProgress

    with pytest.raises(ValueError, match="max_rounds"):
        until_converged(BalancePass(), max_rounds=0)
    with pytest.raises(ValueError, match="max_rounds"):
        WhileProgress(BalancePass(), max_rounds=0)


def test_manager_compile_seeds_annotations_and_seed():
    """A compile seeds the context's annotations; the stateprop seed
    is a constant of its pass, not context state."""
    from repro.flow.passes import STATEPROP_SEED
    from repro.synth.dc_options import StateAnnotation

    annotation = StateAnnotation("state", (0, 1))
    ctx = PassManager().compile(build_case_fsm(), annotations=(annotation,))
    assert ctx.annotations == [annotation]
    assert PassManager().compile(build_case_fsm()).annotations == []
    assert not hasattr(ctx, "seed") and STATEPROP_SEED == 2011


def test_conditional_spec_of_composites():
    cond = Conditional(BalancePass())
    assert cond.spec() == "balance?"


def test_map_pass_library_is_fingerprinted_and_parseable():
    from repro.flow.passes import TechMapPass
    from repro.tech.cells import Library

    assert TechMapPass().spec() == "map"
    named = TechMapPass(library="tsmc90ish")
    assert named.spec() == "map{library=tsmc90ish}"
    [reparsed] = PassManager.parse(named.spec()).passes
    assert reparsed.options["library"] == "tsmc90ish"
    with pytest.raises(FlowError, match=r"\[CHK104\].*'bogus'"):
        PassManager.parse("map{library=bogus}")
    # A library is chosen by its registered name only.
    with pytest.raises(FlowError, match=r"\[CHK103\]"):
        TechMapPass(library=Library.tsmc90ish())


def test_no_library_is_built_outside_map_run(monkeypatch):
    """Parsing, rendering and checking a spec build no cell library;
    the ``map`` pass builds the one it names when it runs."""
    from repro.check.spec import check_spec
    from repro.flow import passes
    from repro.flow.manager import prefix_specs_of

    built = []
    for name, factory in list(passes.LIBRARY_FACTORIES.items()):

        def counting(name=name, factory=factory):
            built.append(name)
            return factory()

        monkeypatch.setitem(passes.LIBRARY_FACTORIES, name, counting)
    spec = "elaborate,map{library=generic45ish}"
    pipeline = PassManager.parse(spec)
    assert pipeline.spec() == spec
    assert prefix_specs_of(spec)[-1] == spec
    assert check_spec(spec, input_stage="rtl") == []
    assert built == []
    ctx = pipeline.compile(build_case_fsm())
    assert built == ["generic45ish"]
    assert ctx.netlist.library.name == "generic45ish"


def test_run_default_flow_honours_options_annotations():
    from repro.flow import run_default_flow
    from repro.synth.dc_options import CompileOptions, StateAnnotation
    from repro.rtl.builder import cat

    b = ModuleBuilder("sparse")
    go = b.input("go")
    state = b.reg("state", 4)
    rows = [0] * 32
    codes = {0: 9, 9: 14, 14: 0}
    for s in range(16):
        for g in (0, 1):
            rows[s + 16 * g] = codes.get(s, 5) if g else (
                s if s in codes else 5
            )
    table = b.rom("nxt", 4, 32, rows)
    b.drive(state, table.read(cat(state, go)))
    b.output("busy", state.ne(0))
    module = b.build()

    options = CompileOptions(
        state_annotations=[StateAnnotation("state", (0, 9, 14))]
    )
    annotated = run_default_flow(module, options)
    assert annotated.annotations  # honoured end to end
    bare = run_default_flow(module, CompileOptions())
    assert annotated.area.total < bare.area.total
