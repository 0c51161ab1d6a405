"""The dataflow analyses: the reachability helper, the three
analyses, and the reporting surface (SARIF emission, the CLI)."""

import json
from dataclasses import replace

from repro.check.dataflow import (
    allowed_input_words,
    analyze_aig,
    analyze_fsm,
    analyze_guards,
    analyze_ir,
    analyze_microcode,
    analyze_netlist,
    fsm_reachable_states,
    reach,
)
from repro.check.diagnostics import Diagnostic
from repro.check.irlint import lint_aig
from repro.check.sarif import SARIF_VERSION, to_sarif
from repro.controllers.dispatch import DispatchTable
from repro.controllers.fsm import FsmSpec
from repro.controllers.microcode import SeqOp
from repro.tech.netlist import FlopInstance, Instance, MappedNetlist

from tests.check.fixtures import (
    _FMT,
    _aig_with_dead_cone,
    _constant_field,
    _dead_branch,
    _netlist,
)


# ---------------------------------------------------------------------
# The reachability helper
# ---------------------------------------------------------------------
def test_solve_reaches_fixpoint_on_cycles():
    """``reach`` walks a cycle to its fixpoint and stops; a node no
    root leads to stays out."""
    graph = {0: [1], 1: [2], 2: [0]}  # node 3 exists but is isolated
    assert reach([0], lambda node: graph.get(node, [])) == {0, 1, 2}
    assert reach([3], lambda node: graph.get(node, [])) == {3}


# ---------------------------------------------------------------------
# FSM reachability under input predicates
# ---------------------------------------------------------------------
def test_fsm_reachability_matches_structural_walk():
    import random

    from repro.controllers.fsm_random import random_fsm

    for seed in range(5):
        spec = random_fsm(2, 2, 7, random.Random(seed))
        assert fsm_reachable_states(spec) == set(
            spec.reachable_states()
        )


def test_input_predicate_is_strictly_stronger():
    # State 1 is only entered on input 1; pin the input to 0 and it
    # becomes semantically unreachable even though the edge exists.
    spec = FsmSpec(
        "pred", 1, 1, 2, 0, [[0, 1], [1, 1]], [[0, 0], [1, 1]]
    )
    assert fsm_reachable_states(spec) == {0, 1}
    assert fsm_reachable_states(spec, allowed_inputs=[0]) == {0}
    assert analyze_fsm(spec) == []
    (finding,) = analyze_fsm(spec, allowed_inputs=[0])
    assert finding.code == "CHK701"
    assert "annotate the state register" in finding.suggestion


def test_allowed_input_cubes_expand():
    assert allowed_input_words(2) == [0, 1, 2, 3]
    assert allowed_input_words(2, ["0-"]) == [0, 1]
    assert allowed_input_words(2, [3, "10"]) == [2, 3]


def test_guard_analysis_discharges_unsat_rows():
    # Guard "1-" can never fire when inputs are confined to "0-", and
    # deleting it orphans state 1.
    diagnostics = analyze_guards(
        2,
        2,
        [(0, "1-", 1), (1, "--", 0), (0, "0-", 0)],
        allowed_cubes=["0-"],
    )
    codes = sorted(d.code for d in diagnostics)
    assert codes == ["CHK701", "CHK702"]


def test_guard_analysis_clean_without_predicate():
    diagnostics = analyze_guards(
        2, 2, [(0, "1-", 1), (0, "0-", 0), (1, "--", 0)]
    )
    assert diagnostics == []


# ---------------------------------------------------------------------
# Microcode constant propagation
# ---------------------------------------------------------------------
def test_dead_branch_and_constant_field_found():
    assert [d.code for d in analyze_microcode(_dead_branch())] == [
        "CHK703"
    ]
    codes = [d.code for d in analyze_microcode(_constant_field())]
    assert "CHK704" in codes


def test_reachable_dispatch_is_not_flagged():
    from repro.controllers.assembler import Program

    program = Program(_FMT)
    program.label("start")
    program.inst(SeqOp.DISPATCH)
    assembled = replace(
        program.assemble(addr_bits=2),
        dispatch=DispatchTable("d", 1, {0: "start"}, None),
    )
    codes = [d.code for d in analyze_microcode(assembled)]
    assert "CHK705" not in codes


# ---------------------------------------------------------------------
# Liveness on AIGs and netlists
# ---------------------------------------------------------------------
def test_dead_cone_beats_the_structural_walk():
    aig = _aig_with_dead_cone()
    # The structural linter roots at every latch next, so the
    # self-sustaining cone looks alive to it.
    assert all(d.code != "CHK402" for d in lint_aig(aig))
    diagnostics = analyze_aig(aig)
    assert [d.code for d in diagnostics] == ["CHK706"]
    assert "zombie" in diagnostics[0].location


def test_live_aig_is_clean():
    from repro.aig.graph import AIG

    aig = AIG()
    a = aig.add_pi("a")
    q = aig.add_latch("q", reset_kind="sync")
    aig.set_latch_next(q, aig.and_(q, a))
    aig.add_po("f", q)  # the latch is observed: whole cone live
    assert analyze_aig(aig) == []


def test_netlist_dead_flop_found():
    netlist = _netlist(
        [Instance("inv", [2], 3), Instance("inv", [3], 4)],
        pi_nets={"a": 2},
        po_nets={"f": 3},
        num_nets=6,
    )
    netlist.flops = [
        FlopInstance("z", None, d_net=4, q_net=5, reset_value=0)
    ]
    diagnostics = analyze_netlist(netlist)
    assert [d.code for d in diagnostics] == ["CHK706"]
    assert "'z'" in diagnostics[0].location


def test_analyze_ir_dispatches_on_kind():
    spec = FsmSpec(
        "pred", 1, 1, 2, 0, [[0, 1], [1, 1]], [[0, 0], [1, 1]]
    )
    assert analyze_ir(spec) == []
    from repro.tables.truthtable import TruthTable

    table = TruthTable.from_rows(2, [1, 0, 1, 0], 1)
    assert analyze_ir(table) == []


# ---------------------------------------------------------------------
# SARIF emission
# ---------------------------------------------------------------------
def _finding(code, severity, location="state 1"):
    return Diagnostic(
        code=code,
        severity=severity,
        location=location,
        message=f"{code} fired",
        suggestion="do the thing" if severity == "warning" else None,
    )


def test_sarif_structure():
    findings = [
        ("ir/alpha", _finding("CHK701", "warning")),
        ("ir/beta", _finding("CHK401", "error")),
    ]
    log = to_sarif(findings)
    assert log["version"] == SARIF_VERSION
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == ["CHK401", "CHK701"]
    results = run["results"]
    assert len(results) == 2
    by_rule = {r["ruleId"]: r for r in results}
    assert by_rule["CHK401"]["level"] == "error"
    assert by_rule["CHK701"]["level"] == "warning"
    for result in results:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
    name = by_rule["CHK701"]["locations"][0]["logicalLocations"][0][
        "fullyQualifiedName"
    ]
    assert name == "ir/alpha:state 1"
    # The suggestion rides in the message text.
    assert "do the thing" in by_rule["CHK701"]["message"]["text"]
    json.dumps(log)  # must be JSON-serialisable as-is


# ---------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------
def test_cli_dataflow_clean(capsys):
    from repro.check.__main__ import main

    assert main(["dataflow"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_dataflow_sarif(capsys):
    from repro.check.__main__ import main

    assert main(["dataflow", "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == SARIF_VERSION
    assert log["runs"][0]["tool"]["driver"]["name"] == "repro.check"

