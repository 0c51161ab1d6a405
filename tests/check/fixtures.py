"""Seeded-defect corpus: one fixture per diagnostic code.

Each entry in :data:`FIXTURES` maps a code to a zero-argument builder
returning the diagnostics of an artifact seeded with exactly that
defect; ``test_fixture_corpus`` asserts the expected code actually
fires.  This is the regression net for the analyzers themselves: a
checker that silently stops firing fails here, not in production.

The CHK6xx (lock-discipline) fixtures are source *files*, built by
:func:`lock_fixture_diags` against temp paths -- see
``test_locks.py``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.check import (
    analyze_aig,
    analyze_fsm,
    analyze_guards,
    analyze_microcode,
    check_spec,
    lint_aig,
    lint_fsm,
    lint_microcode,
    lint_netlist,
    lint_program,
    lint_transitions,
)
from repro.controllers.assembler import Program
from repro.controllers.dispatch import DispatchTable
from repro.controllers.fsm import FsmSpec
from repro.controllers.microcode import MicrocodeFormat, SeqOp
from repro.tech.netlist import Instance, MappedNetlist

_FMT = MicrocodeFormat.horizontal(("alu", ["add", "sub"]))


def _loop_program() -> Program:
    program = Program(_FMT)
    program.label("start")
    program.inst(alu="add")
    program.inst(SeqOp.JUMP, "start")
    return program


def _bad_fsm() -> FsmSpec:
    # State 0 is a reachable trap; states 1 and 2 are unreachable.
    return FsmSpec(
        "bad", 1, 1, 3, 0,
        [[0, 0], [1, 1], [2, 2]],
        [[0, 0], [1, 1], [0, 0]],
    )


def _aig_with_bad_po():
    from repro.aig.graph import AIG

    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.and_(a, b))
    # Corrupt it the way only direct mutation can: a PO literal
    # referencing a node that does not exist.
    aig._pos.append(("ghost", (aig.num_nodes + 7) << 1))
    return aig


def _aig_with_dangling():
    from repro.aig.graph import AIG

    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.and_(a, b)  # feeds nothing
    aig.add_po("f", a)
    return aig


def _aig_with_dead_cone():
    # A self-sustaining latch no primary output observes: its next
    # cone keeps it alive under the CHK402 walk, but the liveness
    # fixpoint sees the whole cone is output-independent.
    from repro.aig.graph import AIG

    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.and_(a, b))
    zombie = aig.add_latch("zombie", reset_kind="sync")
    aig.set_latch_next(zombie, aig.and_(zombie, a))
    return aig


def _dead_branch():
    # BRANCH at address 0 whose taken target is its own fall-through.
    program = Program(_FMT)
    program.inst(SeqOp.BRANCH, "after", alu="add")
    program.label("after")
    program.inst(SeqOp.JUMP, "after", alu="sub")
    return program.assemble(addr_bits=2)


def _constant_field():
    # Every reachable control word decodes alu to "add".
    program = Program(_FMT)
    program.label("start")
    program.inst(alu="add")
    program.inst(SeqOp.JUMP, "start", alu="add")
    return program.assemble(addr_bits=2)


def _netlist(instances, pi_nets, po_nets, num_nets) -> MappedNetlist:
    return MappedNetlist(
        library=None,
        instances=instances,
        flops=[],
        pi_nets=pi_nets,
        po_nets=po_nets,
        num_nets=num_nets,
    )


FIXTURES = {
    # -- spec typechecker ---------------------------------------------
    "CHK100": lambda: check_spec("elaborate,{oops"),
    "CHK101": lambda: check_spec("rewritee"),
    "CHK102": lambda: check_spec("encode{styl=gray}"),
    "CHK103": lambda: check_spec("rewrite{k=four}"),
    "CHK104": lambda: check_spec("optimize{effort_rounds=0}"),
    "CHK105": lambda: check_spec("map,elaborate", input_stage="rtl"),
    "CHK106": lambda: check_spec(
        "fsm_encode,elaborate,optimize,map,size",
        input_stage="ctrl",
        ir_kind="table",
    ),
    "CHK107": lambda: check_spec(
        "pe_bind,elaborate,optimize,map,size",
        input_stage="rtl",
        has_bindings=False,
    ),
    # -- FSM linter ---------------------------------------------------
    "CHK201": lambda: lint_fsm(_bad_fsm()),
    "CHK202": lambda: lint_fsm(_bad_fsm()),
    "CHK203": lambda: lint_transitions(
        2, 2, [(0, "1-", 1), (0, "-1", 0), (1, "--", 0)]
    ),
    "CHK204": lambda: lint_transitions(
        2, 2, [(0, "1-", 1), (1, "--", 0)]
    ),
    # -- microcode linter ---------------------------------------------
    "CHK300": lambda: lint_program(_jump_nowhere()),
    "CHK301": lambda: lint_microcode(_jump_past_end()),
    "CHK302": lambda: lint_microcode(_falls_off_end()),
    "CHK303": lambda: lint_microcode(
        replace(
            _loop_program().assemble(),
            control_words=[999, 0],
        )
    ),
    "CHK304": lambda: lint_microcode(_unreachable_tail()),
    "CHK305": lambda: lint_microcode(
        replace(
            _loop_program().assemble(),
            dispatch=DispatchTable("d", 1, {0: "start", 1: "missing"}, None),
        )
    ),
    # -- AIG linter ---------------------------------------------------
    "CHK401": lambda: lint_aig(_aig_with_bad_po()),
    "CHK402": lambda: lint_aig(_aig_with_dangling()),
    # -- netlist linter -----------------------------------------------
    "CHK501": lambda: lint_netlist(
        _netlist(
            [
                Instance("nand2", [2, 5], 4),
                Instance("nand2", [4, 4], 5),
            ],
            pi_nets={"a": 2},
            po_nets={"f": 4},
            num_nets=6,
        )
    ),
    "CHK502": lambda: lint_netlist(
        _netlist(
            [
                Instance("inv", [2], 3),
                Instance("inv", [2], 3),
            ],
            pi_nets={"a": 2},
            po_nets={"f": 3},
            num_nets=4,
        )
    ),
    "CHK503": lambda: lint_netlist(
        _netlist(
            [Instance("inv", [7], 3)],
            pi_nets={"a": 2},
            po_nets={"f": 3},
            num_nets=8,
        )
    ),
    # -- dataflow (abstract interpretation) ---------------------------
    "CHK701": lambda: analyze_fsm(_bad_fsm()),
    "CHK702": lambda: analyze_guards(
        2,
        2,
        [(0, "0-", 1), (0, "1-", 0), (1, "--", 0)],
        allowed_cubes=["0-"],
    ),
    "CHK703": lambda: analyze_microcode(_dead_branch()),
    "CHK704": lambda: analyze_microcode(_constant_field()),
    "CHK705": lambda: analyze_microcode(
        replace(
            _loop_program().assemble(),
            dispatch=DispatchTable("d", 1, {0: "start"}, None),
        )
    ),
    "CHK706": lambda: analyze_aig(_aig_with_dead_cone()),
}


def _jump_nowhere() -> Program:
    program = Program(_FMT)
    program.inst(SeqOp.JUMP, "nowhere")
    return program


def _jump_past_end():
    # An int target inside the address space but past the program:
    # assembles fine, jumps into unwritten memory.
    program = Program(_FMT)
    program.inst(alu="add")
    program.inst(SeqOp.JUMP, 3)
    return program.assemble(addr_bits=2)


def _falls_off_end():
    program = Program(_FMT)
    program.label("start")
    program.inst(alu="add")
    program.inst(alu="sub")  # NEXT at the last instruction
    return program.assemble(addr_bits=2)


def _unreachable_tail():
    program = Program(_FMT)
    program.label("start")
    program.inst(SeqOp.JUMP, "start")
    program.inst(alu="sub")  # nothing reaches address 1
    return program.assemble(addr_bits=2)
