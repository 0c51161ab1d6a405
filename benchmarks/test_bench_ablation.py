"""Ablation benchmarks for the design choices DESIGN.md calls out.

Two choices the paper discusses but does not plot get quantified here:

* **horizontal vs vertical microcode** (Section II-B): horizontal
  formats store decoded fields (wider words, bigger flexible storage,
  no downstream decoders); vertical formats pack tightly.  After
  partial evaluation the storage difference disappears, which is the
  paper's point about pre-silicon configurability.
* **FSM encoding styles** (`set_fsm_encoding`): binary / one-hot /
  gray re-encoding of an annotated table FSM all land near the direct
  implementation, differing in flop count vs next-state logic.
"""

import random

from repro.controllers import (
    DispatchTable,
    MicrocodeFormat,
    Program,
    SeqOp,
    SequencerSpec,
    generate_sequencer,
)
from repro.controllers.fsm_random import random_fsm
from repro.controllers.fsm_rtl import fsm_to_table_rtl
from repro.flow import CompileJob, PassManager, compile_many
from repro.flow.passes import (
    ElaboratePass,
    EncodePass,
    FsmInferPass,
    HonourAnnotationsPass,
    OptimizeLoop,
    SizePass,
    StateFoldingStage,
    TechMapPass,
)
from repro.synth.dc_options import StateAnnotation


def standard_pipeline(encoding="binary", clock_period_ns=5.0):
    """The default flow, composed explicitly from flow-API stages and
    rendered to the spec string a compile job carries."""
    passes = [FsmInferPass(), HonourAnnotationsPass()]
    if encoding != "same":
        passes.append(EncodePass(style=encoding))
    passes += [
        ElaboratePass(),
        OptimizeLoop(),
        StateFoldingStage(),
        TechMapPass(),
        SizePass(clock_period_ns=clock_period_ns),
    ]
    return PassManager(passes).spec()

_FIELDS = (
    ("cmd", ["read", "write", "sync", "flush"]),
    ("unit", ["p0", "p1", "p2"]),
)


def _write_program(fmt: MicrocodeFormat):
    table = DispatchTable("ops", opcode_bits=2, default="idle")
    table.set(1, "move")
    table.set(2, "drain")
    prog = Program(fmt, conditions=["req", "more"])
    prog.label("idle")
    prog.inst(seq=SeqOp.DISPATCH)
    prog.label("move")
    prog.inst(cmd="read", unit="p0")
    prog.inst(cmd="write", unit="p1")
    prog.inst(cmd="sync", unit="p2", seq=SeqOp.JUMP, target="idle")
    prog.label("drain")
    prog.inst(cmd="flush", unit="p0")
    prog.inst(cmd="flush", unit="p1", seq=SeqOp.JUMP, target="idle")
    return prog.assemble(addr_bits=3, dispatch=table)


def _sequencer_areas(fmt: MicrocodeFormat, pipeline: str):
    image = _write_program(fmt)
    flex_spec = SequencerSpec(
        "ablate", fmt, addr_bits=3, num_conditions=2, opcode_bits=2,
        flexible=True,
    )
    flexible = generate_sequencer(flex_spec).module
    compiled = compile_many(
        [
            CompileJob("full", pipeline, module=flexible),
            CompileJob(
                "auto",
                f"pe_bind{{annotate=true}},{pipeline}",
                module=flexible,
                bindings={
                    "ucode": image.instruction_words(),
                    "dispatch": image.dispatch_rows(),
                },
            ),
        ]
    )
    return compiled["full"].area, compiled["auto"].area


def test_bench_ablation_microcode_packing(once):
    """Horizontal pays storage in the flexible design, not after PE."""
    pipeline = standard_pipeline()

    def run():
        horizontal = MicrocodeFormat.horizontal(*_FIELDS)
        vertical = MicrocodeFormat.vertical(*_FIELDS)
        return (
            horizontal.width,
            vertical.width,
            _sequencer_areas(horizontal, pipeline),
            _sequencer_areas(vertical, pipeline),
        )

    h_width, v_width, (h_full, h_auto), (v_full, v_auto) = once(run)
    assert h_width > v_width  # one-hot fields really are wider
    # Flexible storage scales with word width.
    assert h_full.sequential > v_full.sequential
    # After partial evaluation the storage difference is gone: both
    # keep only the uPC, so sequential areas are identical and the
    # remaining (combinational) gap is small.
    assert h_auto.sequential == v_auto.sequential
    assert h_auto.total <= v_full.total
    assert abs(h_auto.combinational - v_auto.combinational) <= max(
        h_auto.combinational, v_auto.combinational
    )


def test_bench_ablation_fsm_encodings(once):
    """binary/gray/onehot re-encodings all stay near the same area."""
    spec = random_fsm(2, 4, 6, random.Random(13))
    module = fsm_to_table_rtl(spec)

    def run():
        styles = ("binary", "gray", "onehot")
        compiled = compile_many(
            [
                CompileJob(
                    style, standard_pipeline(encoding=style),
                    module=module,
                    annotations=(StateAnnotation("state", tuple(range(6))),),
                )
                for style in styles
            ]
        )
        return {
            style: (
                compiled[style].area.total,
                compiled[style].netlist.area_report().num_flops,
            )
            for style in styles
        }

    areas = once(run)
    assert areas["onehot"][1] == 6  # one flop per state
    assert areas["binary"][1] == 3
    assert areas["gray"][1] == 3
    totals = [total for total, _flops in areas.values()]
    assert max(totals) <= 2.5 * min(totals)
