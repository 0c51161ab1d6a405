"""The Auto/Manual specialization flows, run through ``pe_bind``.

The miniature version of the paper's Fig. 9 methodology, on a
sequencer small enough for unit tests: Full vs Auto vs Manual, each
compiling the *flexible* design with its configuration bound in-flow.
"""

import pytest

from repro.controllers.assembler import Program
from repro.controllers.dispatch import DispatchTable
from repro.controllers.microcode import MicrocodeFormat, SeqOp
from repro.controllers.sequencer import SequencerSpec, generate_sequencer
from repro.flow import CompileJob, CompileJobError, PassManager, compile_many
from repro.flow import passes as flow_passes
from repro.flow.pipeline import default_pipeline
from repro.pe.annotations import derive_annotations, onehot_annotation
from repro.rtl.builder import ModuleBuilder
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import CompileOptions, StateAnnotation


def make_sequencer_pair():
    """A flexible sequencer and a program with a rarely-used path."""
    fmt = MicrocodeFormat.horizontal(
        ("cmd", ["read", "write", "sync"]),
        ("unit", ["p0", "p1"]),
    )
    table = DispatchTable("d", opcode_bits=2, default="idle")
    table.set(1, "short")
    table.set(2, "long")
    prog = Program(fmt, conditions=["go"])
    prog.label("idle")
    prog.inst(seq=SeqOp.DISPATCH)
    prog.label("short")
    prog.inst(cmd="read", unit="p0", seq=SeqOp.JUMP, target="idle")
    prog.label("long")
    prog.inst(cmd="read", unit="p0")
    prog.inst(cmd="read", unit="p1")
    prog.inst(cmd="sync", unit="p0")
    prog.inst(cmd="write", unit="p1", seq=SeqOp.JUMP, target="idle")
    image = prog.assemble(addr_bits=3, dispatch=table)

    flex_spec = SequencerSpec(
        "seq", fmt, addr_bits=3, num_conditions=1, opcode_bits=2,
        flexible=True,
    )
    flexible = generate_sequencer(flex_spec).module
    return flexible, image


def bindings_of(image):
    return {
        "ucode": image.instruction_words(),
        "dispatch": image.dispatch_rows(),
    }


def compile_bound(flexible, image, bind="pe_bind{annotate=true}",
                  options=None, annotations=()):
    """Bind ``image`` into ``flexible`` in-flow, then run the default
    flow for ``options``."""
    body = default_pipeline(options or CompileOptions()).spec()
    return PassManager.parse(f"{bind},{body}").compile(
        flexible, bindings=bindings_of(image), annotations=annotations
    )


def test_auto_removes_all_config_storage():
    flexible, image = make_sequencer_pair()
    full = DesignCompiler().compile(flexible)
    auto = compile_bound(flexible, image)
    # Full keeps the table storage: many flops.  Auto keeps only uPC.
    assert full.area.sequential > 8 * auto.area.sequential
    assert auto.area.combinational < full.area.combinational
    # uPC register: 3 flops.
    assert auto.netlist.area_report().num_flops == 3
    # The annotation pe_bind derived from the bound tables reached the
    # context the rest of the flow honours.
    assert [(a.reg_name, a.values) for a in auto.annotations] == [
        ("upc", (0, 1, 2, 3, 4, 5))
    ]


def test_manual_beats_auto_when_paths_are_pinned():
    flexible, image = make_sequencer_pair()
    auto = compile_bound(flexible, image)
    # Manual: only opcode 1 (the short path) ever arrives; the
    # generator's opcode-pinned uPC set travels as a job annotation.
    reachable = image.reachable_addresses(opcodes=[0, 1])
    manual = compile_bound(
        flexible, image, bind="pe_bind",
        annotations=[StateAnnotation("upc", reachable)],
    )
    assert auto.area.total == pytest.approx(123.1, abs=0.05)
    assert manual.area.total == pytest.approx(26.6, abs=0.05)


def test_specialized_design_behaves_like_program():
    flexible, image = make_sequencer_pair()
    result = compile_bound(flexible, image)
    from repro.sim.crosscheck import NetlistSim

    sim = NetlistSim(result.netlist)
    fmt = image.format
    read = fmt.field("cmd").values["read"]
    write = fmt.field("cmd").values["write"]
    sync = fmt.field("cmd").values["sync"]
    sim.step_words({"op": 2})  # dispatch to 'long'
    cmds = [sim.step_words({"op": 0})["ctl_cmd"] for _ in range(4)]
    assert cmds == [read, read, sync, write]


def test_derive_annotations_on_bound_design():
    flexible, image = make_sequencer_pair()
    from repro.pe.bind import bind_tables

    bound = bind_tables(flexible, bindings_of(image))
    annotations = derive_annotations(bound)
    by_reg = {a.reg_name: a for a in annotations}
    assert "upc" in by_reg
    assert by_reg["upc"].values == (0, 1, 2, 3, 4, 5)


def test_derive_annotations_unknown_reg():
    flexible, _ = make_sequencer_pair()
    with pytest.raises(ValueError):
        derive_annotations(flexible, ["ghost"])


def test_onehot_annotation():
    annotation = onehot_annotation("y", 4)
    assert annotation.values == (1, 2, 4, 8)


def test_options_are_threaded_through(monkeypatch):
    flexible, image = make_sequencer_pair()
    periods = []
    real = flow_passes.size_for_clock

    def spy(netlist, clock_period):
        periods.append(clock_period)
        return real(netlist, clock_period)

    monkeypatch.setattr(flow_passes, "size_for_clock", spy)
    result = compile_bound(
        flexible, image, options=CompileOptions(clock_period_ns=7.5)
    )
    assert periods == [7.5]
    # The derived annotation is among those the flow honoured.
    assert any(a.reg_name == "upc" for a in result.annotations)


def two_table_registers():
    """Two registers, each stepping through its own config table."""
    b = ModuleBuilder("pair")
    for name in ("a", "b"):
        state = b.reg(name, 2)
        b.drive(state, b.config_mem(f"{name}_next", 2, 4).read(state))
        b.output(f"{name}_out", state)
    return b.build()


def test_pe_bind_regs_narrows_the_derivation():
    flexible = two_table_registers()
    bindings = {"a_next": [1, 2, 0, 0], "b_next": [3, 0, 0, 0]}

    def derived(spec):
        ctx = PassManager.parse(spec).compile(flexible, bindings=bindings)
        return {a.reg_name: a.values for a in ctx.annotations}

    assert derived("pe_bind{annotate=true}") == {
        "a": (0, 1, 2), "b": (0, 3)
    }
    assert derived("pe_bind{annotate=true,regs=b}") == {"b": (0, 3)}
    assert derived("pe_bind") == {}


def test_pe_bind_unknown_reg_fails_the_job_naming_it():
    flexible = two_table_registers()
    job = CompileJob(
        "auto", "pe_bind{annotate=true,regs='a,ghost'},elaborate",
        module=flexible,
        bindings={"a_next": [1, 2, 0, 0], "b_next": [3, 0, 0, 0]},
    )
    with pytest.raises(CompileJobError, match="unknown register 'ghost'"):
        compile_many([job])
