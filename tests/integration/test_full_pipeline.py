"""End-to-end integration: generator -> tables -> synthesis -> netlist.

Fuzzes the complete path the paper advocates: a random controller
spec, emitted as tables, bound, compiled with annotations, and the
resulting *gate-level netlist* checked cycle-by-cycle against the
abstract spec.
"""

import random

import pytest

from repro.controllers.fsm_random import random_fsm
from repro.controllers.fsm_rtl import fsm_to_case_rtl, fsm_to_table_rtl
from repro.pe import bind_tables
from repro.controllers.fsm_rtl import table_rows
from repro.sim.crosscheck import NetlistSim
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import CompileOptions, StateAnnotation


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("style", ["case", "table", "table_annotated"])
def test_netlist_implements_the_spec(seed, style):
    rng = random.Random(seed)
    m, n, s = 2, 3, rng.choice([3, 5, 6])
    spec = random_fsm(m, n, s, rng)
    compiler = DesignCompiler()

    if style == "case":
        module = fsm_to_case_rtl(spec)
        options = CompileOptions()
    else:
        module = fsm_to_table_rtl(spec)
        annotations = (
            [StateAnnotation("state", tuple(range(s)))]
            if style == "table_annotated"
            else []
        )
        options = CompileOptions(state_annotations=annotations)
    result = compiler.compile(module, options)

    gate = NetlistSim(result.netlist)
    state = spec.reset_state
    for cycle in range(150):
        word = rng.getrandbits(m)
        got = gate.step_words({"in": word})
        expected_state, expected_out = spec.step(state, word)
        assert got["out"] == expected_out, f"{style} seed={seed} cycle={cycle}"
        state = expected_state


def test_flexible_vs_bound_equivalence_through_synthesis():
    """Program the flexible netlist; it must match the bound netlist."""
    rng = random.Random(9)
    spec = random_fsm(2, 2, 4, rng)
    compiler = DesignCompiler()

    flexible = fsm_to_table_rtl(spec, flexible=True)
    bound = bind_tables(
        flexible,
        {
            "next_mem": table_rows(spec, "next"),
            "out_mem": table_rows(spec, "output"),
        },
    )
    flexible_result = compiler.compile(flexible)
    bound_result = compiler.compile(bound)

    flex_gate = NetlistSim(flexible_result.netlist)
    for mem, which in (("next_mem", "next"), ("out_mem", "output")):
        for addr, word in enumerate(table_rows(spec, which)):
            flex_gate.step_words(
                {f"{mem}_we": 1, f"{mem}_waddr": addr, f"{mem}_wdata": word}
            )
    # Reset the state register (programming advanced the FSM).
    flex_gate.state.update(
        {
            name: value
            for name, value in flex_gate.state.items()
            if not name.startswith("state")
        }
    )
    for bit in range(spec.state_bits):
        flex_gate.state[f"state[{bit}]"] = (spec.reset_state >> bit) & 1

    bound_gate = NetlistSim(bound_result.netlist)
    for cycle in range(120):
        word = rng.getrandbits(2)
        flex_out = flex_gate.step_words(
            {"in": word, "next_mem_we": 0, "out_mem_we": 0}
        )
        bound_out = bound_gate.step_words({"in": word})
        assert flex_out["out"] == bound_out["out"], f"cycle {cycle}"


def test_annotated_compile_reports_folding_work():
    rng = random.Random(4)
    spec = random_fsm(2, 4, 5, rng)
    module = fsm_to_table_rtl(spec)
    result = DesignCompiler().compile(
        module,
        CompileOptions(
            state_annotations=[StateAnnotation("state", tuple(range(5)))],
        ),
    )
    assert result.honoured_annotations
    assert any("stateprop" in line or "encode" in line for line in result.log)
