"""The frontend (``ctrl``) stage: controller IRs, lowering passes,
stage checking, and IR-keyed caching."""

import pytest

from repro.controllers import (
    DispatchTable,
    FsmSpec,
    MicrocodeFormat,
    Program,
    SeqOp,
    SequencerSpec,
)
from repro.controllers.fsm_rtl import (
    fsm_to_case_rtl,
    fsm_to_table_rtl,
    table_rows,
)
from repro.flow import (
    CompileCache,
    CompileJob,
    CtrlStats,
    FlowContext,
    FlowError,
    PassManager,
    compile_many,
    flow_fingerprint,
    is_controller_ir,
)
from repro.flow.core import PassRecord
from repro.tables.rtl import table_to_rom_rtl, table_to_sop_rtl
from repro.tables.truthtable import TruthTable


def demo_fsm(name="demo", s=3):
    next_state = [[(i + 1) % s, (i + 2) % s] for i in range(s)]
    output = [[i % 4, (i + 1) % 4] for i in range(s)]
    return FsmSpec(name, 1, 2, s, 0, next_state, output)


def demo_table(seed=3):
    import random

    return TruthTable.random(3, 2, random.Random(seed))


def demo_program():
    fmt = MicrocodeFormat.horizontal(("cmd", ["read", "write"]))
    dispatch = DispatchTable("dsp", opcode_bits=1, default="idle")
    dispatch.set(1, "work")
    program = Program(fmt, conditions=["busy"], dispatch=dispatch)
    program.label("idle")
    program.inst(seq=SeqOp.DISPATCH)
    program.label("work")
    program.inst(cmd="read")
    program.inst(cmd="write", seq=SeqOp.JUMP, target="idle")
    return program


# ---------------------------------------------------------------------
# The ControllerIR protocol.
# ---------------------------------------------------------------------

def test_every_ir_class_implements_the_protocol():
    program = demo_program()
    assembled = program.assemble(addr_bits=2)
    sequencer = SequencerSpec(
        "useq", format=program.format, addr_bits=2, opcode_bits=1
    )
    irs = [
        demo_fsm(),
        demo_table(),
        program,
        assembled,
        program.dispatch,
        sequencer,
    ]
    kinds = set()
    for ir in irs:
        assert is_controller_ir(ir)
        assert len(ir.ir_hash()) == 64  # hex sha-256
        stats = CtrlStats.of(ir)
        assert stats.items > 0 and stats.bits > 0
        kinds.add(stats.kind)
    assert kinds == {
        "fsm", "table", "program", "microcode", "dispatch", "sequencer"
    }


def test_ir_hashes_are_content_addressed():
    assert demo_fsm().ir_hash() == demo_fsm().ir_hash()
    assert demo_fsm(s=3).ir_hash() != demo_fsm(s=4).ir_hash()
    assert demo_fsm("a").ir_hash() != demo_fsm("b").ir_hash()
    assert demo_table(1).ir_hash() != demo_table(2).ir_hash()
    one = demo_program()
    two = demo_program()
    assert one.ir_hash() == two.ir_hash()
    two.inst(cmd="read")
    assert one.ir_hash() != two.ir_hash()
    assert (
        one.assemble(addr_bits=2).ir_hash()
        == demo_program().assemble(addr_bits=2).ir_hash()
    )
    assert (
        one.assemble(addr_bits=2).ir_hash()
        != one.assemble(addr_bits=3).ir_hash()
    )


def test_non_ir_ctrl_input_cannot_be_fingerprinted():
    with pytest.raises(FlowError, match="ir_hash"):
        flow_fingerprint("fsm_encode", ctrl=object())


# ---------------------------------------------------------------------
# Lowering passes reproduce the direct builders exactly.
# ---------------------------------------------------------------------

def test_fsm_encode_lowers_to_the_exact_builder_output():
    spec = demo_fsm()
    case_ctx = PassManager.parse("fsm_encode{realize=case}").compile(ctrl=spec)
    assert (
        case_ctx.module.canonical_hash()
        == fsm_to_case_rtl(spec).canonical_hash()
    )
    table_ctx = PassManager.parse("fsm_encode").compile(ctrl=spec)
    assert (
        table_ctx.module.canonical_hash()
        == fsm_to_table_rtl(spec).canonical_hash()
    )
    flex_ctx = PassManager.parse("fsm_encode{flexible=true}").compile(ctrl=spec)
    assert (
        flex_ctx.module.canonical_hash()
        == fsm_to_table_rtl(spec, flexible=True).canonical_hash()
    )
    # The IR stays on the context for provenance.
    assert table_ctx.ctrl is spec


def test_table_lowerings_match_the_direct_builders():
    table = demo_table()
    rom_ctx = PassManager.parse("table_rom").compile(ctrl=table)
    assert (
        rom_ctx.module.canonical_hash()
        == table_to_rom_rtl(table, "table").canonical_hash()
    )
    sop_ctx = PassManager.parse("table_minimize").compile(ctrl=table)
    assert (
        sop_ctx.module.canonical_hash()
        == table_to_sop_rtl(table, "sop").canonical_hash()
    )
    named = PassManager.parse("table_rom{name=tbl_x}").compile(ctrl=table)
    assert named.module.name == "tbl_x"


def test_fsm_encoding_styles_are_spec_ablations():
    """onehot vs gray state encodings differ by one spec token and
    both run end-to-end from IR to sized netlist."""
    spec = demo_fsm(s=5)
    body = "elaborate,optimize,state_folding,map,size"
    results = {}
    for style in ("onehot", "gray"):
        ctx = PassManager.parse(
            f"fsm_encode{{style={style}}},{body}"
        ).compile(ctrl=spec)
        [annotation] = [
            a for a in ctx.annotations if a.reg_name == "state"
        ]
        assert len(annotation.values) == 5
        assert ctx.area.total > 0
        results[style] = ctx
    onehot = results["onehot"].module
    # One-hot re-encoding widens the state register to one bit/state.
    assert onehot.regs["state"].width == 5
    assert results["gray"].module.regs["state"].width == 3


def test_sop_engines_parse_and_synthesize():
    table = demo_table()
    areas = {}
    for engine in ("isop", "qm", "espresso"):
        ctx = PassManager.parse(
            f"table_minimize{{engine={engine}}},elaborate,optimize,map,size"
        ).compile(ctrl=table)
        areas[engine] = ctx.area.total
        assert ctx.area.total > 0
    with pytest.raises(FlowError, match=r"\[CHK104\].*'bogus'"):
        PassManager.parse("table_minimize{engine=bogus}")
    # An all-zero output column never reaches the cover engine; the
    # name is still checked.
    for columns in ((0,), (6,)):
        with pytest.raises(ValueError, match="unknown SOP engine"):
            table_to_sop_rtl(TruthTable(2, columns), "sop", engine="bogus")


def test_microcode_pack_then_dispatch_rom_reaches_netlist():
    program = demo_program()
    ctx = PassManager.parse(
        "microcode_pack{addr_bits=2},dispatch_rom,elaborate,optimize,"
        "state_folding,map,size"
    ).compile(ctrl=program)
    # The IR advanced from symbolic program to assembled image.
    assert ctx.ctrl.ir_stats()["kind"] == "microcode"
    # The generator-side uPC annotation was asserted in-flow.
    assert any(a.reg_name == "upc" for a in ctx.annotations)
    assert ctx.area.total > 0
    packed = [r for r in ctx.records if r.name == "microcode_pack"]
    assert packed[0].ctrl_before.kind == "program"
    assert packed[0].ctrl_after.kind == "microcode"


def test_pe_bind_matches_the_prebound_route():
    spec = demo_fsm()
    flexible = fsm_to_table_rtl(spec, flexible=True)
    bindings = {
        "next_mem": table_rows(spec, "next"),
        "out_mem": table_rows(spec, "output"),
    }
    body = "fsm_infer,honour_annotations,elaborate,optimize,map,size"
    bound_in_flow = PassManager.parse(f"pe_bind,{body}").compile(
        flexible, bindings=bindings
    )
    from repro.pe.bind import bind_tables

    prebound = PassManager.parse(body).compile(bind_tables(flexible, bindings))
    assert bound_in_flow.area.total == prebound.area.total
    assert bound_in_flow.module.canonical_hash() == (
        prebound.module.canonical_hash()
    )


def test_pe_bind_without_bindings_is_an_error_naming_the_pass():
    spec = demo_fsm()
    with pytest.raises(FlowError, match="'pe_bind'"):
        PassManager.parse("pe_bind").compile(fsm_to_table_rtl(spec, True))


# ---------------------------------------------------------------------
# Stage misuse: wrong-representation contexts raise, naming the pass.
# ---------------------------------------------------------------------

def test_ctrl_pass_on_aig_only_context_is_a_stage_error():
    from repro.synth.elaborate import elaborate

    aig = elaborate(fsm_to_case_rtl(demo_fsm())).aig
    with pytest.raises(FlowError, match="'fsm_encode'.*controller IR"):
        PassManager.parse("fsm_encode").compile(aig=aig)


def test_aig_pass_before_elaboration_is_a_stage_error():
    with pytest.raises(FlowError, match="'balance'.*elaborated AIG"):
        PassManager.parse("fsm_encode,balance").compile(ctrl=demo_fsm())


def test_ctrl_pass_after_lowering_is_a_stage_error():
    # Double lowering: the first fsm_encode sets the module, so the
    # second is no longer at the frontend stage.
    with pytest.raises(FlowError, match="'fsm_encode'"):
        PassManager.parse("fsm_encode,fsm_encode").compile(ctrl=demo_fsm())


def test_wrong_ir_type_is_an_error_naming_the_pass():
    with pytest.raises(FlowError, match="'table_rom'.*TruthTable"):
        PassManager.parse("table_rom").compile(ctrl=demo_fsm())


# ---------------------------------------------------------------------
# IR-keyed caching: warm runs skip the lowering and the synthesis.
# ---------------------------------------------------------------------

def test_fingerprint_covers_ir_and_bindings():
    base = flow_fingerprint("fsm_encode,elaborate", ctrl=demo_fsm())
    assert base == flow_fingerprint("fsm_encode,elaborate", ctrl=demo_fsm())
    assert base != flow_fingerprint(
        "fsm_encode,elaborate", ctrl=demo_fsm(s=4)
    )
    assert base != flow_fingerprint(
        "fsm_encode{style=gray},elaborate", ctrl=demo_fsm()
    )
    spec = demo_fsm()
    flexible = fsm_to_table_rtl(spec, flexible=True)
    bindings = {"next_mem": table_rows(spec, "next")}
    with_bindings = flow_fingerprint(
        "pe_bind,elaborate", module=flexible, bindings=bindings
    )
    assert with_bindings != flow_fingerprint(
        "pe_bind,elaborate", module=flexible
    )
    assert with_bindings != flow_fingerprint(
        "pe_bind,elaborate",
        module=flexible,
        bindings={"next_mem": table_rows(spec, "output")},
    )


def test_warm_cache_performs_zero_lowerings_and_zero_compiles(monkeypatch):
    spec = demo_fsm()
    pipeline = "fsm_encode{realize=case},fsm_infer,honour_annotations," \
        "encode,elaborate,optimize,map,size"
    cache = CompileCache()
    cold = compile_many(
        [CompileJob("a", pipeline, ctrl=spec)], cache=cache
    )["a"]
    assert cache.misses == 1

    # A warm run must not lower or elaborate anything: poison both
    # engines and replay the sweep out of the cache.
    import repro.flow.frontend as frontend
    import repro.flow.passes as passes

    def boom(*args, **kwargs):
        raise AssertionError("warm run executed a lowering/compile")

    monkeypatch.setattr(frontend, "fsm_to_case_rtl", boom)
    monkeypatch.setattr(passes, "elaborate", boom)
    warm = compile_many(
        [CompileJob("a", pipeline, ctrl=spec)], cache=cache
    )["a"]
    assert warm is cold
    assert cache.misses == 1  # unchanged: everything was a hit


# ---------------------------------------------------------------------
# Instrumentation: frontend stats on records, JSON round-trip.
# ---------------------------------------------------------------------

def test_ctrl_records_carry_frontend_stats_and_round_trip():
    ctx = PassManager.parse("fsm_encode").compile(ctrl=demo_fsm())
    [record] = [r for r in ctx.records if r.name == "fsm_encode"]
    assert record.ctrl_before == CtrlStats(kind="fsm", items=3, bits=3)
    rebuilt = PassRecord.from_json(record.to_json())
    assert rebuilt == record
    # Pre-ctrl-stage records (no frontend keys) still load.
    legacy = dict(record.to_json())
    del legacy["ctrl_before"], legacy["ctrl_after"]
    assert PassRecord.from_json(legacy).ctrl_before is None


def test_downstream_records_stay_frontend_free():
    ctx = PassManager.parse("fsm_encode,elaborate,optimize").compile(
        ctrl=demo_fsm()
    )
    for record in ctx.records:
        if record.stage != "ctrl":
            assert record.ctrl_before is None and record.ctrl_after is None
