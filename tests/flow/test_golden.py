"""Golden numbers: the pipeline-backed facade vs the seed monolith.

The seed implementation of ``DesignCompiler.compile`` (one 170-line
function) was run on the quickstart handshake controller before the
flow-API redesign and its area/timing outputs recorded below.  The
redesigned facade must reproduce them exactly -- not approximately:
same passes, same order, same RNG seed, same convergence rule.
"""

import pytest

from repro.controllers import FsmSpec, fsm_to_case_rtl, fsm_to_table_rtl
from repro.controllers.fsm_rtl import table_rows
from repro.pe import bind_tables
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import CompileOptions, StateAnnotation

#: (comb um^2, seq um^2, total um^2, critical delay ns) per variant,
#: captured from the seed flow at 5 ns on examples/quickstart.py's FSM.
SEED_GOLDEN = {
    "flexible": (390.4, 588.2, 978.6, 0.632),
    "bound": (14.6, 34.6, 49.2, 0.435),
    "annotated": (15.2, 34.6, 49.8, 0.522),
    "direct": (15.2, 34.6, 49.8, 0.522),
}


def quickstart_spec():
    """The handshake controller examples/quickstart.py builds."""
    return FsmSpec(
        "handshake",
        num_inputs=1,
        num_outputs=2,
        num_states=3,
        reset_state=0,
        next_state=[[0, 1], [2, 2], [0, 0]],
        output=[[0b00, 0b00], [0b01, 0b01], [0b10, 0b10]],
    )


def test_quickstart_module_matches_seed_flow_exactly():
    spec = quickstart_spec()
    compiler = DesignCompiler()
    options = CompileOptions(clock_period_ns=5.0)

    flexible = fsm_to_table_rtl(spec, flexible=True)
    bound = bind_tables(
        flexible,
        {
            "next_mem": table_rows(spec, "next"),
            "out_mem": table_rows(spec, "output"),
        },
    )
    runs = {
        "flexible": compiler.compile(flexible, options),
        "bound": compiler.compile(bound, options),
        "annotated": compiler.compile(
            bound,
            CompileOptions(
                clock_period_ns=5.0,
                state_annotations=[StateAnnotation("state", (0, 1, 2))],
            ),
        ),
        "direct": compiler.compile(fsm_to_case_rtl(spec), options),
    }
    for name, (comb, seq, total, delay) in SEED_GOLDEN.items():
        area = runs[name].area
        timing = runs[name].timing
        assert area.combinational == pytest.approx(comb, abs=1e-9), name
        assert area.sequential == pytest.approx(seq, abs=1e-9), name
        assert area.total == pytest.approx(total, abs=1e-9), name
        assert timing.critical_delay == pytest.approx(delay, abs=1e-9), name


def test_quickstart_direct_log_matches_seed_flow_exactly():
    """The full pass-by-pass log, byte for byte, for the direct style."""
    result = DesignCompiler().compile(
        fsm_to_case_rtl(quickstart_spec()),
        CompileOptions(clock_period_ns=5.0),
    )
    assert result.log == [
        "fsm_infer: state has 3 reachable states",
        "encode: state -> binary (3 states)",
        "elaborate: AIG: pi=1 po=2 latch=2 and=15 depth=8",
        "optimize[0]: 15 -> 4 ands, depth 3",
        "optimize[1]: 4 -> 4 ands, depth 3",
        "stateprop: 0 constants, 0 merges over 0 rounds "
        "(0 SAT calls, 0 skipped)",
        "optimize[0]: 4 -> 4 ands, depth 3",
        "map: netlist: 6 cells, 2 flops, area 49.8 um^2 "
        "(comb 15.2 / seq 34.6)",
        "size: met=True achieved=0.522 ns (0 upsizes)",
    ]
