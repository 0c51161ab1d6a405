"""IR and netlist linters: structural checks on controller IRs, AIGs,
and mapped netlists.

The paper's controller IRs are *data* a generator emits -- FSM tables,
microcode images, dispatch tables -- and data can be malformed in ways
no type system catches: a state no input ever reaches, a jump into
unwritten microcode, a netlist net with two drivers.  These linters
walk the structures and report
:class:`~repro.check.diagnostics.Diagnostic` findings:

* :func:`lint_fsm` -- unreachable states (CHK201), trap states
  (CHK202);
* :func:`lint_transitions` -- sparse cube-form transition lists:
  overlapping cubes with conflicting next states (CHK203), uncovered
  (state, input) combinations (CHK204);
* :func:`lint_program` / :func:`lint_microcode` -- assembly failures
  (CHK300), out-of-program jump targets (CHK301), fall-through past
  the end (CHK302), field-width violations (CHK303), unreachable
  addresses (CHK304), undefined dispatch labels (CHK305);
* :func:`lint_aig` -- structural invariants (CHK401), dangling AND
  nodes (CHK402);
* :func:`lint_netlist` -- combinational loops (CHK501), multiple
  drivers (CHK502), floating input nets (CHK503);
* :func:`lint_ir` -- dispatch on the ControllerIR ``kind`` tag.

Reachability warnings are deliberate *warnings*, not errors: an
unreachable state is exactly what the paper's Manual flow pins modes
to eliminate, so shipping one is suspicious but not wrong.
"""

from __future__ import annotations

from repro.check.diagnostics import Diagnostic

#: Enumerating input words is exponential in input bits; transition
#: coverage beyond this is skipped (cube-form tables this wide should
#: be checked symbolically, which these fixtures never need).
MAX_COVERAGE_BITS = 16


# ---------------------------------------------------------------------
# FSM specs
# ---------------------------------------------------------------------
def lint_fsm(spec) -> "list[Diagnostic]":
    """Lint an :class:`~repro.controllers.fsm.FsmSpec`: states no input
    sequence reaches from reset (CHK201) and trap states that can
    never be left (CHK202)."""
    diagnostics: list[Diagnostic] = []
    where = f"fsm {spec.name!r}"
    reachable = set(spec.reachable_states())
    for state in range(spec.num_states):
        if state not in reachable:
            diagnostics.append(
                Diagnostic(
                    "CHK201",
                    "warning",
                    f"{where} state {state}",
                    f"state {state} is unreachable from reset state "
                    f"{spec.reset_state}",
                    suggestion=(
                        "drop the state or annotate the register so "
                        "state folding can remove it"
                    ),
                )
            )
    for state in range(spec.num_states):
        if state not in reachable:
            continue  # already flagged; a trap you cannot enter is moot
        if all(target == state for target in spec.next_state[state]):
            diagnostics.append(
                Diagnostic(
                    "CHK202",
                    "warning",
                    f"{where} state {state}",
                    f"state {state} is a trap: every input transitions "
                    f"back to it",
                )
            )
    return diagnostics


def _cubes_intersect(a: str, b: str) -> bool:
    return all(
        ca == "-" or cb == "-" or ca == cb for ca, cb in zip(a, b)
    )


def _cube_matches(cube: str, word: int) -> bool:
    bits = len(cube)
    for position in range(bits):
        want = cube[bits - 1 - position]  # cube[0] is the MSB
        if want != "-" and int(want) != (word >> position) & 1:
            return False
    return True


def lint_transitions(
    num_states: int, num_input_bits: int, rows
) -> "list[Diagnostic]":
    """Lint a sparse cube-form transition table.

    This is the tabular IR a generator emits before densification:
    ``rows`` is a sequence of ``(state, cube, next_state)`` where
    ``cube`` is a string over ``0``/``1``/``-`` (MSB first,
    ``num_input_bits`` long).  Reports rows whose cubes overlap with
    *conflicting* next states (CHK203 -- the realized FSM would be
    priority-dependent) and (state, input) combinations no row covers
    (CHK204 -- the realized FSM's behaviour there is undefined).

    Raises:
        ValueError: a malformed row (bad cube alphabet or length,
            state out of range) -- caller errors, not lint findings.
    """
    diagnostics: list[Diagnostic] = []
    by_state: dict[int, list[tuple[int, str, int]]] = {}
    for index, (state, cube, target) in enumerate(rows):
        if not 0 <= state < num_states or not 0 <= target < num_states:
            raise ValueError(
                f"row {index}: state {state} -> {target} out of range "
                f"for {num_states} states"
            )
        if len(cube) != num_input_bits or any(
            ch not in "01-" for ch in cube
        ):
            raise ValueError(
                f"row {index}: cube {cube!r} is not a "
                f"{num_input_bits}-bit pattern over 0/1/-"
            )
        by_state.setdefault(state, []).append((index, cube, target))
    for state in range(num_states):
        entries = by_state.get(state, [])
        for position, (index_a, cube_a, target_a) in enumerate(entries):
            for index_b, cube_b, target_b in entries[position + 1:]:
                if target_a != target_b and _cubes_intersect(cube_a, cube_b):
                    diagnostics.append(
                        Diagnostic(
                            "CHK203",
                            "error",
                            f"state {state} rows {index_a} and {index_b}",
                            f"cubes {cube_a!r} and {cube_b!r} overlap but "
                            f"disagree on the next state "
                            f"({target_a} vs {target_b})",
                        )
                    )
        if num_input_bits > MAX_COVERAGE_BITS:
            continue
        uncovered = [
            word
            for word in range(1 << num_input_bits)
            if not any(
                _cube_matches(cube, word) for _, cube, _ in entries
            )
        ]
        if uncovered:
            shown = ", ".join(
                format(word, f"0{num_input_bits}b") for word in uncovered[:4]
            )
            more = "" if len(uncovered) <= 4 else ", ..."
            diagnostics.append(
                Diagnostic(
                    "CHK204",
                    "error",
                    f"state {state}",
                    f"{len(uncovered)} input combination(s) covered by no "
                    f"transition row ({shown}{more})",
                    suggestion="add a default (all '-') row for the state",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------
# Microcode
# ---------------------------------------------------------------------
def lint_program(program) -> "list[Diagnostic]":
    """Lint a symbolic :class:`~repro.controllers.assembler.Program`
    by assembling it (CHK300 when that fails) and linting the image."""
    try:
        assembled = program.assemble()
    except (ValueError, KeyError) as exc:
        return [
            Diagnostic(
                "CHK300",
                "error",
                f"program ({len(program.instructions)} instructions)",
                f"program fails to assemble: {exc}",
            )
        ]
    return lint_microcode(assembled)


def lint_microcode(program) -> "list[Diagnostic]":
    """Lint an :class:`~repro.controllers.assembler.AssembledProgram`:
    jump targets, widths, fall-through, reachability, dispatch labels.
    """
    from repro.controllers.microcode import SeqOp

    diagnostics: list[Diagnostic] = []
    length = program.length
    depth = program.depth

    if length > depth:
        diagnostics.append(
            Diagnostic(
                "CHK303",
                "error",
                "program",
                f"{length} instructions exceed the {program.addr_bits}-bit "
                f"address space ({depth} words)",
            )
        )
    if len(program.seq_words) != length:
        diagnostics.append(
            Diagnostic(
                "CHK303",
                "error",
                "program",
                f"{len(program.seq_words)} sequencer words for "
                f"{length} control words",
            )
        )

    control_limit = 1 << program.format.width
    cond_limit = 1 << program.cond_bits
    for addr, control in enumerate(program.control_words):
        if not 0 <= control < control_limit:
            diagnostics.append(
                Diagnostic(
                    "CHK303",
                    "error",
                    f"addr {addr}",
                    f"control word {control:#x} does not fit the "
                    f"{program.format.width}-bit format",
                )
            )
    for addr, (seq_op, cond_sel, target) in enumerate(program.seq_words):
        if seq_op not in (
            int(SeqOp.NEXT),
            int(SeqOp.JUMP),
            int(SeqOp.BRANCH),
            int(SeqOp.DISPATCH),
        ):
            diagnostics.append(
                Diagnostic(
                    "CHK303",
                    "error",
                    f"addr {addr}",
                    f"unknown sequencer op {seq_op}",
                )
            )
            continue
        if not 0 <= cond_sel < cond_limit:
            diagnostics.append(
                Diagnostic(
                    "CHK303",
                    "error",
                    f"addr {addr}",
                    f"condition select {cond_sel} does not fit "
                    f"{program.cond_bits} bits",
                )
            )
        if seq_op in (int(SeqOp.JUMP), int(SeqOp.BRANCH)):
            if not 0 <= target < depth:
                diagnostics.append(
                    Diagnostic(
                        "CHK303",
                        "error",
                        f"addr {addr}",
                        f"target {target} does not fit "
                        f"{program.addr_bits} address bits",
                    )
                )
            elif target >= length:
                diagnostics.append(
                    Diagnostic(
                        "CHK301",
                        "error",
                        f"addr {addr}",
                        f"{SeqOp(seq_op).name} target {target} is past "
                        f"the last instruction (program length {length})",
                    )
                )
        if seq_op in (int(SeqOp.NEXT), int(SeqOp.BRANCH)):
            fallthrough = addr + 1
            if fallthrough >= length and length < depth:
                diagnostics.append(
                    Diagnostic(
                        "CHK302",
                        "warning",
                        f"addr {addr}",
                        f"{SeqOp(seq_op).name} at the last instruction "
                        f"falls through to unwritten address "
                        f"{fallthrough % depth}",
                        suggestion="end the program with JUMP or DISPATCH",
                    )
                )

    if program.dispatch is not None:
        try:
            program.dispatch.resolve(program.labels)
        except KeyError as exc:
            diagnostics.append(
                Diagnostic(
                    "CHK305",
                    "error",
                    f"dispatch {program.dispatch.name!r}",
                    str(exc).strip('"'),
                )
            )

    try:
        reachable = set(program.reachable_addresses())
    except KeyError:
        reachable = None  # already reported as CHK305
    if reachable is not None:
        unreachable = sorted(set(range(length)) - reachable)
        if unreachable:
            shown = ", ".join(str(a) for a in unreachable[:6])
            more = "" if len(unreachable) <= 6 else ", ..."
            diagnostics.append(
                Diagnostic(
                    "CHK304",
                    "warning",
                    f"addrs {shown}{more}",
                    f"{len(unreachable)} instruction(s) unreachable from "
                    f"the entry points",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------
# AIGs
# ---------------------------------------------------------------------
def lint_aig(aig) -> "list[Diagnostic]":
    """Lint an :class:`~repro.aig.graph.AIG`'s structural invariants.

    The construction API guarantees fanin literals reference
    lower-numbered nodes (which is what makes every AIG acyclic by
    construction); CHK401 reports violations -- possible only through
    direct mutation, which is exactly what a lint is for.  CHK402
    reports AND nodes outside every output or latch cone.
    """
    diagnostics: list[Diagnostic] = []
    num_nodes = aig.num_nodes
    for node in range(1, num_nodes):
        if not aig.is_and(node):
            continue
        for fanin in aig.fanins(node):
            source = fanin >> 1
            if source >= node:
                diagnostics.append(
                    Diagnostic(
                        "CHK401",
                        "error",
                        f"node {node}",
                        f"AND node {node} has fanin literal {fanin} "
                        f"referencing node {source} (must reference a "
                        f"lower-numbered node; forward references break "
                        f"the acyclicity invariant)",
                    )
                )
    for latch in aig.latches:
        if latch.next_lit >> 1 >= num_nodes:
            diagnostics.append(
                Diagnostic(
                    "CHK401",
                    "error",
                    f"latch {latch.name!r}",
                    f"next-state literal {latch.next_lit} references "
                    f"nonexistent node {latch.next_lit >> 1}",
                )
            )
    for name, lit in aig.pos:
        if lit >> 1 >= num_nodes:
            diagnostics.append(
                Diagnostic(
                    "CHK401",
                    "error",
                    f"po {name!r}",
                    f"output literal {lit} references nonexistent node "
                    f"{lit >> 1}",
                )
            )
    if diagnostics:
        return diagnostics  # reach analysis is meaningless on a broken graph

    live: set[int] = set()
    frontier = [lit >> 1 for lit in aig.combinational_outputs()]
    while frontier:
        node = frontier.pop()
        if node in live:
            continue
        live.add(node)
        if aig.is_and(node):
            frontier.extend(fanin >> 1 for fanin in aig.fanins(node))
    dangling = [
        node
        for node in range(1, num_nodes)
        if aig.is_and(node) and node not in live
    ]
    if dangling:
        shown = ", ".join(str(n) for n in dangling[:6])
        more = "" if len(dangling) <= 6 else ", ..."
        diagnostics.append(
            Diagnostic(
                "CHK402",
                "warning",
                f"nodes {shown}{more}",
                f"{len(dangling)} AND node(s) feed no output or latch",
                suggestion="run cleanup() or any sweep pass",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------
# Mapped netlists
# ---------------------------------------------------------------------
def lint_netlist(netlist) -> "list[Diagnostic]":
    """Lint a :class:`~repro.tech.netlist.MappedNetlist`: combinational
    loops (CHK501), nets with several drivers (CHK502), and consumed
    nets nothing drives (CHK503)."""
    from repro.tech.netlist import CONST0_NET, CONST1_NET

    diagnostics: list[Diagnostic] = []

    drivers: dict[int, list[str]] = {}

    def drive(net: int, what: str) -> None:
        drivers.setdefault(net, []).append(what)

    drive(CONST0_NET, "constant 0")
    drive(CONST1_NET, "constant 1")
    for name, net in netlist.pi_nets.items():
        drive(net, f"primary input {name!r}")
    for flop in netlist.flops:
        drive(flop.q_net, f"flop {flop.name!r}")
    for index, inst in enumerate(netlist.instances):
        drive(inst.output, f"instance {index} ({inst.cell_name})")
    for net, sources in sorted(drivers.items()):
        if len(sources) > 1:
            diagnostics.append(
                Diagnostic(
                    "CHK502",
                    "error",
                    f"net {net}",
                    f"net {net} has {len(sources)} drivers: "
                    f"{'; '.join(sources)}",
                )
            )

    consumers: dict[int, str] = {}
    for index, inst in enumerate(netlist.instances):
        for net in inst.inputs:
            consumers.setdefault(
                net, f"instance {index} ({inst.cell_name})"
            )
    for flop in netlist.flops:
        consumers.setdefault(flop.d_net, f"flop {flop.name!r} data")
    for name, net in netlist.po_nets.items():
        consumers.setdefault(net, f"primary output {name!r}")
    for net, consumer in sorted(consumers.items()):
        if net not in drivers:
            diagnostics.append(
                Diagnostic(
                    "CHK503",
                    "error",
                    f"net {net}",
                    f"net {net} feeds {consumer} but nothing drives it",
                )
            )

    # Cycle detection: iterative colouring over the producer graph
    # (the netlist's own topo_instances() raises on the first cycle;
    # the lint names the net and keeps going).
    producer = {inst.output: inst for inst in netlist.instances}
    state: dict[int, int] = {}  # 0/absent new, 1 on stack, 2 done
    for root in netlist.instances:
        if state.get(root.output, 0) == 2:
            continue
        stack: list[tuple[object, int]] = [(root, 0)]
        state[root.output] = 1
        while stack:
            inst, cursor = stack[-1]
            if cursor < len(inst.inputs):
                stack[-1] = (inst, cursor + 1)
                child = producer.get(inst.inputs[cursor])
                if child is None:
                    continue
                status = state.get(child.output, 0)
                if status == 1:
                    diagnostics.append(
                        Diagnostic(
                            "CHK501",
                            "error",
                            f"net {child.output}",
                            f"combinational loop through net "
                            f"{child.output} ({child.cell_name})",
                        )
                    )
                elif status == 0:
                    state[child.output] = 1
                    stack.append((child, 0))
            else:
                state[inst.output] = 2
                stack.pop()
    return diagnostics


# ---------------------------------------------------------------------
# Dispatch on the ControllerIR kind
# ---------------------------------------------------------------------
def lint_ir(ir) -> "list[Diagnostic]":
    """Lint any ControllerIR by its ``ir_stats()['kind']`` tag.

    Truth tables are dense (every row exists by construction) and a
    standalone dispatch table cannot be checked without its program's
    labels, so those kinds lint clean here.
    """
    kind = str(ir.ir_stats()["kind"])
    if kind == "fsm":
        return lint_fsm(ir)
    if kind == "program":
        return lint_program(ir)
    if kind == "microcode":
        return lint_microcode(ir)
    return []
