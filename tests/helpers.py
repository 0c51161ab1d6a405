"""Shared helpers for driving AIGs in tests, and the standard pass
workloads: the input builders and the pipelines that together execute
the whole pass registry (``benchmarks/test_bench_passes.py`` times
them; several unit tests reuse the inputs)."""

import random

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.flow import PassManager


def make_word(aig: AIG, name: str, width: int) -> list[int]:
    """Create ``width`` primary inputs named ``name[0]..``, LSB first.

    Uses the same ``name[i]`` bit-naming convention as the elaborator,
    so helpers that locate buses by name work on hand-built AIGs too.
    """
    return [aig.add_pi(f"{name}[{i}]") for i in range(width)]


def pi_assign(word: list[int], value: int) -> dict[int, int]:
    """Map the PI nodes of ``word`` to the bits of ``value``."""
    return {lit_node(lit): (value >> i) & 1 for i, lit in enumerate(word)}


def eval_lits(aig: AIG, lits: list[int], pi_values: dict[int, int]) -> int:
    """Evaluate arbitrary literals as a word without mutating the AIG."""
    mask = 1
    values = [0] * aig.num_nodes
    for node in aig.pis:
        values[node] = pi_values.get(node, 0) & mask
    for latch in aig.latches:
        values[latch.node] = latch.reset_value

    def lit_value(lit: int) -> int:
        value = values[lit_node(lit)]
        return value ^ 1 if lit_sign(lit) else value

    for node in aig.topo_order(roots=[lit for lit in lits if lit > 1]):
        f0, f1 = aig.fanins(node)
        values[node] = lit_value(f0) & lit_value(f1)

    result = 0
    for index, lit in enumerate(lits):
        if lit_value(lit):
            result |= 1 << index
    return result


#: Registered AIG-stage leaf passes that run out of the box on a bare
#: AIG context.
AIG_LEAF_PASSES = (
    "seq_sweep",
    "tt_sweep",
    "balance",
    "rewrite",
    "resub",
    "dc_rewrite",
    "retime",
)

#: The full RTL-to-netlist flow covering the remaining registered
#: passes (the stage drivers' retime/stateprop records land in the
#: same context).
FULL_FLOW_SPEC = (
    "fsm_infer,honour_annotations,encode,elaborate,optimize,"
    "retime_stage,state_folding,stateprop,map,size"
)


def build_table_aig(num_inputs: int = 8, width: int = 16, seed: int = 0):
    """A deterministic random table-read AIG: the standard workload
    the AIG-stage passes are timed on."""
    from repro.aig import ops
    from repro.aig.graph import AIG
    from repro.tables.truthtable import TruthTable

    rng = random.Random(seed)
    table = TruthTable.random(num_inputs, width, rng)
    aig = AIG()
    addr = [aig.add_pi(f"a[{i}]") for i in range(num_inputs)]
    rows = [ops.const_word(word, width) for word in table.rows()]
    data = ops.table_read(aig, addr, rows)
    for bit, lit in enumerate(data):
        aig.add_po(f"d[{bit}]", lit)
    cleaned, _ = aig.cleanup()
    return cleaned


def annotated_fsm_module():
    """A table FSM whose annotation exercises encode and stateprop."""
    from repro.rtl.builder import ModuleBuilder, cat

    b = ModuleBuilder("bench_fsm")
    go = b.input("go")
    state = b.reg("state", 2)
    table = b.rom("nxt", 2, 8, [0, 2, 0, 0, 1, 2, 0, 0])
    b.drive(state, table.read(cat(state, go)))
    b.output("busy", state.ne(0))
    return b.build()


def bench_pipelines() -> dict[str, PassManager]:
    """The pipelines that together cover the pass registry."""
    return {
        "leaf": PassManager.parse(",".join(AIG_LEAF_PASSES)),
        "optimize": PassManager.parse("optimize"),
        "full": PassManager.parse(FULL_FLOW_SPEC),
        "fsm_lower": PassManager.parse("fsm_encode{realize=case}"),
        "table_lower": PassManager.parse("table_rom"),
        "sop_lower": PassManager.parse("table_minimize"),
        "useq_lower": PassManager.parse("microcode_pack,dispatch_rom"),
        "bind": PassManager.parse("pe_bind"),
    }


def frontend_inputs(seed: int = 0):
    """The controller IRs (and the pe_bind module/bindings pair) the
    frontend lowering passes are timed on."""
    from repro.controllers import (
        DispatchTable,
        FsmSpec,
        MicrocodeFormat,
        Program,
        SeqOp,
    )
    from repro.controllers.fsm_rtl import fsm_to_table_rtl, table_rows
    from repro.tables.truthtable import TruthTable

    fsm = FsmSpec(
        "bench_ctrl",
        num_inputs=2,
        num_outputs=3,
        num_states=5,
        reset_state=0,
        next_state=[
            [0, 1, 2, 1], [2, 2, 3, 3], [3, 4, 3, 4],
            [4, 0, 1, 0], [0, 0, 2, 2],
        ],
        output=[
            [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 3],
            [4, 5, 6, 7], [1, 3, 5, 7],
        ],
    )
    table = TruthTable.random(6, 8, random.Random(seed))
    fmt = MicrocodeFormat.horizontal(("cmd", ["read", "write"]))
    dispatch = DispatchTable("dsp", opcode_bits=1, default="idle")
    dispatch.set(1, "work")
    program = Program(fmt, conditions=["busy"], dispatch=dispatch)
    program.label("idle")
    program.inst(seq=SeqOp.DISPATCH)
    program.label("work")
    program.inst(cmd="read")
    program.inst(cmd="write", seq=SeqOp.JUMP, target="idle")
    flexible = fsm_to_table_rtl(fsm, flexible=True)
    bindings = {
        "next_mem": table_rows(fsm, "next"),
        "out_mem": table_rows(fsm, "output"),
    }
    return fsm, table, program, flexible, bindings
