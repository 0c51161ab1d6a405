"""Dataflow analyses over controller IRs.

The structural linters (:mod:`repro.check.irlint`) walk graphs; this
module asks what an IR can actually *do*: reachability under an input
predicate, constants over reachable control words, and liveness from
the outputs.  The graph walks share one worklist helper
(:func:`reach`):

* **predicate-aware FSM reachability** -- the FSM's own reachability
  walk over only the input words a predicate admits.  Stronger than
  CHK201/202's edge-existence walk: a state every edge can reach but
  no *allowed input* can reach is CHK701, and a cube-form transition
  guard no allowed input satisfies -- discharged via :mod:`repro.sat`
  -- is CHK702.
* **constants over microcode** -- the control words an
  :class:`~repro.controllers.assembler.AssembledProgram` can reach
  (its own ``reachable_addresses`` walk): CHK703 (a BRANCH whose
  taken and fall-through targets coincide), CHK704 (a control field
  holding one value at every reachable address), CHK705 (a dispatch
  table wired to a sequencer that never dispatches).
* **liveness on AIGs and mapped netlists** -- the CHK402/CHK503 walks
  root at *all* outputs including every latch next; the liveness
  walk here roots at primary outputs only and adds a latch's next
  cone when (and only when) its output is observed, so self-sustaining
  but output-independent cones are found: CHK706.

Findings are warnings: a semantically unreachable state is an
opportunity, not a bug -- annotating the state register with the
reachable set lets state folding spend it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.check.diagnostics import Diagnostic
from repro.check.irlint import _cube_matches


def reach(
    roots: Iterable, successors: "Callable[[object], Iterable]"
) -> set:
    """Every node reachable from ``roots`` along ``successors``, the
    roots included: a worklist walk to its fixpoint, so cycles end."""
    seen = set(roots)
    worklist = deque(seen)
    while worklist:
        for succ in successors(worklist.popleft()):
            if succ not in seen:
                seen.add(succ)
                worklist.append(succ)
    return seen


# ---------------------------------------------------------------------
# FSM reachability under input predicates
# ---------------------------------------------------------------------
def allowed_input_words(
    num_inputs: int, allowed_inputs=None
) -> "list[int]":
    """The concrete input words an input predicate admits.

    ``allowed_inputs`` is ``None`` (everything), an iterable of words,
    or an iterable of cube strings over ``0``/``1``/``-`` (MSB first,
    ``num_inputs`` long).  Mixing words and cubes is fine.
    """
    if allowed_inputs is None:
        return list(range(1 << num_inputs))
    cubes = []
    words: set[int] = set()
    for item in allowed_inputs:
        if isinstance(item, str):
            if len(item) != num_inputs or any(c not in "01-" for c in item):
                raise ValueError(
                    f"cube {item!r} is not a {num_inputs}-bit pattern "
                    f"over 0/1/-"
                )
            cubes.append(item)
        else:
            words.add(int(item))
    if cubes:
        for word in range(1 << num_inputs):
            if any(_cube_matches(cube, word) for cube in cubes):
                words.add(word)
    return sorted(words)


def fsm_reachable_states(spec, allowed_inputs=None) -> "set[int]":
    """States of an :class:`~repro.controllers.fsm.FsmSpec` reachable
    from reset when inputs are confined to ``allowed_inputs`` (see
    :func:`allowed_input_words`): the spec's own walk over the words
    the predicate admits."""
    return set(
        spec.reachable_states(
            allowed_input_words(spec.num_inputs, allowed_inputs)
        )
    )


def analyze_fsm(spec, allowed_inputs=None) -> "list[Diagnostic]":
    """CHK701: states no *allowed* input sequence reaches from reset.

    The edge-existence walk (CHK201) asks "does a transition arrive
    here"; this asks "does a transition arrive here under the declared
    input predicate", which is what the Manual flow's mode pinning
    actually guarantees.
    """
    diagnostics: list[Diagnostic] = []
    where = f"fsm {spec.name!r}"
    reachable = fsm_reachable_states(spec, allowed_inputs)
    constrained = allowed_inputs is not None
    for state in range(spec.num_states):
        if state in reachable:
            continue
        qualifier = (
            "under the declared input predicate " if constrained else ""
        )
        diagnostics.append(
            Diagnostic(
                "CHK701",
                "warning",
                f"{where} state {state}",
                f"state {state} is semantically unreachable "
                f"{qualifier}from reset state {spec.reset_state}",
                suggestion=(
                    "annotate the state register with the reachable "
                    "set so state folding can use it"
                ),
            )
        )
    return diagnostics


def _cube_assumptions(cube: str, input_vars) -> "list[int]":
    """SAT assumptions asserting ``cube`` over ``input_vars`` (var of
    bit 0 first; ``cube[0]`` is the MSB)."""
    bits = len(cube)
    assumptions = []
    for position in range(bits):
        want = cube[bits - 1 - position]
        if want == "-":
            continue
        var = input_vars[position]
        assumptions.append(var if want == "1" else -var)
    return assumptions


def analyze_guards(
    num_states: int,
    num_input_bits: int,
    rows,
    reset_state: int = 0,
    allowed_cubes=None,
) -> "list[Diagnostic]":
    """Predicate-aware analysis of a sparse cube-form transition table
    (the format of :func:`repro.check.irlint.lint_transitions`).

    Emits CHK702 for rows whose guard cube no allowed input satisfies
    -- each discharged by :mod:`repro.sat` (the guard is asserted as
    assumptions against the allowed-cube disjunction; UNSAT is the
    proof) -- and CHK701 for states unreachable from ``reset_state``
    once unsatisfiable guards are deleted.
    """
    from repro.sat.solver import Solver

    diagnostics: list[Diagnostic] = []
    solver = Solver()
    input_vars = [solver.new_var() for _ in range(num_input_bits)]
    if allowed_cubes is not None:
        selectors = []
        for cube in allowed_cubes:
            if len(cube) != num_input_bits or any(
                c not in "01-" for c in cube
            ):
                raise ValueError(
                    f"cube {cube!r} is not a {num_input_bits}-bit "
                    f"pattern over 0/1/-"
                )
            member = solver.new_var()
            for literal in _cube_assumptions(cube, input_vars):
                solver.add_clause([-member, literal])
            selectors.append(member)
        solver.add_clause(selectors or [])

    satisfiable: list[tuple[int, str, int]] = []
    for index, (state, cube, target) in enumerate(rows):
        if solver.solve(_cube_assumptions(cube, input_vars)):
            satisfiable.append((state, cube, target))
            continue
        diagnostics.append(
            Diagnostic(
                "CHK702",
                "warning",
                f"state {state} row {index}",
                f"guard {cube!r} is unsatisfiable under the allowed "
                f"input cubes (UNSAT)",
                suggestion="delete the row; it can never fire",
            )
        )

    edges: dict[int, list] = {}
    for state, _, target in satisfiable:
        edges.setdefault(state, []).append(target)
    live = reach([reset_state], lambda node: edges.get(node, []))
    for state in range(num_states):
        if state in live:
            continue
        diagnostics.append(
            Diagnostic(
                "CHK701",
                "warning",
                f"state {state}",
                f"state {state} is semantically unreachable from reset "
                f"state {reset_state} (all paths go through "
                f"unsatisfiable guards)",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------
# Microcode constants
# ---------------------------------------------------------------------
def analyze_microcode(
    program, entry_labels=None, opcodes=None
) -> "list[Diagnostic]":
    """Constants over the reachable control words of an
    ``AssembledProgram``.

    * CHK703 -- a reachable BRANCH whose taken target equals its
      fall-through: the condition is read but cannot matter.
    * CHK704 -- a control field that decodes to one value at every
      reachable address (the downstream register is provably constant).
    * CHK705 -- a dispatch table wired into the image while no
      reachable instruction dispatches: every target is dead.

    Undefined labels make reachability meaningless; those programs are
    skipped here (CHK305 already reports them).
    """
    from repro.controllers.microcode import SeqOp

    try:
        reachable = program.reachable_addresses(entry_labels, opcodes)
    except KeyError:
        return []
    diagnostics: list[Diagnostic] = []
    depth = program.depth

    for addr in reachable:
        seq_op, _, target = program.seq_words[addr]
        if seq_op == SeqOp.BRANCH and target == (addr + 1) % depth:
            diagnostics.append(
                Diagnostic(
                    "CHK703",
                    "warning",
                    f"addr {addr}",
                    f"branch at address {addr} is dead: taken target "
                    f"{target} equals the fall-through",
                    suggestion="replace the BRANCH with NEXT",
                )
            )

    if len(reachable) >= 2:
        for field in program.format.fields:
            values = {
                program.format.unpack(program.control_words[addr])[
                    field.name
                ]
                for addr in reachable
            }
            if len(values) != 1:
                continue
            [value] = values
            diagnostics.append(
                Diagnostic(
                    "CHK704",
                    "warning",
                    f"field {field.name!r}",
                    f"control field {field.name!r} decodes to "
                    f"{value!r} at every reachable address",
                    suggestion=(
                        "the downstream register is constant; tie it off"
                    ),
                )
            )

    if program.dispatch is not None and not any(
        program.seq_words[addr][0] == SeqOp.DISPATCH
        for addr in reachable
    ):
        diagnostics.append(
            Diagnostic(
                "CHK705",
                "warning",
                f"dispatch {program.dispatch.name!r}",
                f"dispatch table {program.dispatch.name!r} is wired "
                f"but no reachable instruction dispatches; none of its "
                f"targets can be taken",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------
# Liveness on AIGs and mapped netlists
# ---------------------------------------------------------------------
def aig_live_nodes(aig) -> "set[int]":
    """Nodes that can influence a primary output.

    The liveness walk: primary-output cones are live, and a
    latch's next-state cone is live iff the latch's *output* is --
    which is exactly where this beats the CHK402 walk (that one roots
    at every latch next unconditionally, so a latch feeding only
    itself keeps its whole cone "reachable")."""
    latch_by_node = {latch.node: latch for latch in aig.latches}

    def successors(node):
        succ = []
        if aig.is_and(node):
            succ.extend(fanin >> 1 for fanin in aig.fanins(node))
        latch = latch_by_node.get(node)
        if latch is not None:
            succ.append(latch.next_lit >> 1)
        return succ

    return reach((lit >> 1 for _, lit in aig.pos), successors)


def analyze_aig(aig) -> "list[Diagnostic]":
    """CHK706: logic cones no primary output depends on.

    Reports AND nodes and latches outside every primary-output cone
    under the liveness walk of :func:`aig_live_nodes` -- strictly
    stronger than CHK402's dangling-node walk, which keeps any cone a
    latch next references even when the latch itself is unobservable.
    """
    live = aig_live_nodes(aig)
    dead_latches = [
        latch.name for latch in aig.latches if latch.node not in live
    ]
    dead_ands = [
        node
        for node in range(1, aig.num_nodes)
        if aig.is_and(node) and node not in live
    ]
    if not dead_latches and not dead_ands:
        return []
    parts = []
    if dead_ands:
        shown = ", ".join(str(n) for n in dead_ands[:6])
        more = "" if len(dead_ands) <= 6 else ", ..."
        parts.append(f"nodes {shown}{more}")
    if dead_latches:
        shown = ", ".join(repr(n) for n in dead_latches[:4])
        more = "" if len(dead_latches) <= 4 else ", ..."
        parts.append(f"latches {shown}{more}")
    return [
        Diagnostic(
            "CHK706",
            "warning",
            "; ".join(parts),
            f"{len(dead_ands)} AND node(s) and {len(dead_latches)} "
            f"latch(es) influence no primary output",
            suggestion=(
                "the cone is an observability don't-care; sweep it or "
                "let dc_rewrite absorb it"
            ),
        )
    ]


def analyze_netlist(netlist) -> "list[Diagnostic]":
    """CHK706 on a mapped netlist: instances and flops outside every
    primary-output cone (a flop's data cone counts only when its Q net
    is itself observed)."""
    producer = {inst.output: inst for inst in netlist.instances}
    flop_by_q = {flop.q_net: flop for flop in netlist.flops}

    def successors(net):
        succ = []
        inst = producer.get(net)
        if inst is not None:
            succ.extend(inst.inputs)
        flop = flop_by_q.get(net)
        if flop is not None:
            succ.append(flop.d_net)
        return succ

    live = reach(netlist.po_nets.values(), successors)

    dead_instances = [
        index
        for index, inst in enumerate(netlist.instances)
        if inst.output not in live
    ]
    dead_flops = [
        flop.name for flop in netlist.flops if flop.q_net not in live
    ]
    if not dead_instances and not dead_flops:
        return []
    parts = []
    if dead_instances:
        shown = ", ".join(str(i) for i in dead_instances[:6])
        more = "" if len(dead_instances) <= 6 else ", ..."
        parts.append(f"instances {shown}{more}")
    if dead_flops:
        shown = ", ".join(repr(n) for n in dead_flops[:4])
        more = "" if len(dead_flops) <= 4 else ", ..."
        parts.append(f"flops {shown}{more}")
    return [
        Diagnostic(
            "CHK706",
            "warning",
            "; ".join(parts),
            f"{len(dead_instances)} instance(s) and {len(dead_flops)} "
            f"flop(s) influence no primary output",
            suggestion="dead after mapping; re-run the sweep passes",
        )
    ]


# ---------------------------------------------------------------------
# Dispatch on the ControllerIR kind
# ---------------------------------------------------------------------
def analyze_ir(ir, allowed_inputs=None) -> "list[Diagnostic]":
    """Run the dataflow analyses matching an IR's ``kind`` tag (the
    :func:`repro.check.irlint.lint_ir` idiom)."""
    kind = str(ir.ir_stats()["kind"])
    if kind == "fsm":
        return analyze_fsm(ir, allowed_inputs)
    if kind == "program":
        try:
            assembled = ir.assemble()
        except (ValueError, KeyError):
            return []  # CHK300 territory
        return analyze_microcode(assembled)
    if kind == "microcode":
        return analyze_microcode(ir)
    return []
