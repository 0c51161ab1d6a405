#!/usr/bin/env python3
"""A microcoded cache-line transfer engine (the paper's Fig. 3/4 idea).

Writes a microprogram with the symbolic assembler, generates both the
flexible and the bound sequencer, runs a transaction in simulation,
and compares synthesized areas -- a miniature of the Smart Memories
Dispatch unit study.

Run:  python examples/cacheline_sequencer.py
"""

from repro.controllers import (
    DispatchTable,
    MicrocodeFormat,
    Program,
    SeqOp,
    SequencerSpec,
    generate_sequencer,
)
from repro.flow import PassManager, default_pipeline
from repro.sim import Simulator
from repro.synth import CompileOptions, DesignCompiler


def write_program(fmt: MicrocodeFormat):
    """Line read, line write, and refill routines."""
    table = DispatchTable("ops", opcode_bits=2, default="idle")
    table.set(1, "line_rd")
    table.set(2, "line_wr")
    table.set(3, "refill")

    prog = Program(fmt, conditions=["req", "more"])
    prog.label("idle")
    prog.inst(seq=SeqOp.DISPATCH)

    prog.label("line_rd")
    prog.inst(cnt="load")
    prog.label("rd_loop")
    prog.inst(
        cmd="read", unit="mem", cnt="dec",
        seq=SeqOp.BRANCH, target="rd_loop", condition="more",
    )
    prog.inst(cmd="done", seq=SeqOp.JUMP, target="idle")

    prog.label("line_wr")
    prog.inst(cnt="load")
    prog.label("wr_loop")
    prog.inst(
        cmd="write", unit="mem", cnt="dec",
        seq=SeqOp.BRANCH, target="wr_loop", condition="more",
    )
    prog.inst(cmd="done", seq=SeqOp.JUMP, target="idle")

    prog.label("refill")
    prog.inst(cmd="read", unit="bus")
    prog.inst(cmd="write", unit="mem")
    prog.inst(cmd="done", seq=SeqOp.JUMP, target="idle")

    return prog.assemble(addr_bits=4, dispatch=table)


def main() -> None:
    fmt = MicrocodeFormat.horizontal(
        ("cmd", ["read", "write", "done"]),
        ("unit", ["mem", "bus"]),
        ("cnt", ["load", "dec"]),
    )
    image = write_program(fmt)
    print("microprogram listing:")
    print(image.listing())
    print()

    spec = SequencerSpec(
        "xfer",
        fmt,
        addr_bits=4,
        cond_bits=2,
        num_conditions=2,
        opcode_bits=2,
        flexible=True,
        expose_upc=True,
    )
    flexible = generate_sequencer(spec).module

    # Run the bound engine: dispatch a line read and watch the beats.
    bound_spec = SequencerSpec(
        "xfer",
        fmt,
        addr_bits=4,
        cond_bits=2,
        num_conditions=2,
        opcode_bits=2,
        flexible=False,
        expose_upc=True,
    )
    bound = generate_sequencer(bound_spec, image)
    print(
        f"generator-derived uPC annotation: "
        f"{bound.upc_annotation.values}"
    )
    sim = Simulator(bound.module)
    sim.step({"op": 1, "cond": 0})  # dispatch line_rd
    sim.step({"op": 0, "cond": 0})  # cnt load
    beats = 0
    # 'more' is condition 1: report more beats for three cycles.
    for remaining in (1, 1, 1, 0, 0):
        out = sim.step({"op": 0, "cond": remaining << 1})
        beats += 1 if out["ctl_cmd"] else 0
    print(f"observed {beats} command beats for the line read")

    full = DesignCompiler().compile(flexible)
    # Auto: bind the program into the flexible engine in-flow and derive
    # the reachability annotations from the bound tables.
    auto = PassManager.parse(
        f"pe_bind{{annotate=true}},{default_pipeline(CompileOptions()).spec()}"
    ).compile(
        flexible,
        bindings={
            "ucode": image.instruction_words(),
            "dispatch": image.dispatch_rows(),
        },
    )
    print(f"flexible sequencer: {full.area.total:8.1f} um^2 "
          f"({full.area.sequential:.1f} sequential)")
    print(f"specialized:        {auto.area.total:8.1f} um^2 "
          f"({auto.area.sequential:.1f} sequential)")
    print(f"partial evaluation kept "
          f"{auto.area.total / full.area.total:.0%} of the area")


if __name__ == "__main__":
    main()
