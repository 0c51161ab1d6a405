"""PassRecord instrumentation, its JSON form, and the legacy log
rendering.

The free-form ``CompileResult.log`` the experiments print is now a
*rendering* of structured :class:`PassRecord` entries; these tests pin
both the structured side (wall times, before/after AIG stats) and the
exact legacy string formats the existing expts output depends on.
"""

import json
import re

from repro.flow import render_log
from repro.flow.core import AigStats, PassRecord
from repro.rtl.ast import Const
from repro.rtl.builder import ModuleBuilder, mux
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import CompileOptions, StateAnnotation

#: The legacy log-line formats, exactly as the seed flow emitted them,
#: except that the stateprop summary now ends with its SAT counters.
LEGACY_LINE_FORMATS = [
    r"fsm_infer: \w+ has \d+ reachable states",
    r"encode: \w+ -> (binary|onehot|gray) \(\d+ states\)",
    r"elaborate: AIG: pi=\d+ po=\d+ latch=\d+ and=\d+ depth=\d+",
    r"seq_sweep: removed \d+ registers",
    r"optimize\[\d+\]: \d+ -> \d+ ands, depth \d+",
    r"retime: moved \d+ flops back to \d+ cone inputs",
    r"stateprop: bus \w+ no longer exists \(dropped\)",
    r"stateprop: \d+ constants, \d+ merges over \d+ rounds "
    r"\(\d+ SAT calls, \d+ skipped\)",
    r"map: netlist: \d+ cells, \d+ flops, area \d+\.\d um\^2 "
    r"\(comb \d+\.\d / seq \d+\.\d\)",
    r"size: met=(True|False) achieved=\d+\.\d{3} ns \(\d+ upsizes\)",
]


def build_case_fsm():
    b = ModuleBuilder("fsm_case")
    go = b.input("go")
    state = b.reg("state", 2)
    nxt = b.case(
        state,
        {
            0: mux(go[0], Const(1, 2), Const(0, 2)),
            1: Const(2, 2),
            2: Const(0, 2),
        },
        Const(0, 2),
    )
    b.drive(state, nxt)
    b.output("busy", state.ne(0))
    b.output("done", state.eq(2))
    return b.build()


def compile_case_fsm():
    return DesignCompiler().compile(
        build_case_fsm(), CompileOptions(clock_period_ns=5.0)
    )


def test_every_log_line_matches_a_pinned_legacy_format():
    result = compile_case_fsm()
    assert result.log  # non-empty
    for line in result.log:
        assert any(
            re.fullmatch(fmt, line) for fmt in LEGACY_LINE_FORMATS
        ), f"log line {line!r} broke the legacy format"


def test_log_is_rendered_from_the_records():
    result = compile_case_fsm()
    assert result.log == render_log(result.records)
    assert result.log == [
        message for record in result.records for message in record.messages
    ]


def test_log_preserves_the_legacy_stage_order():
    result = compile_case_fsm()
    prefixes = []
    for line in result.log:
        prefix = line.split(":")[0].split("[")[0]
        if not prefixes or prefixes[-1] != prefix:
            prefixes.append(prefix)
    # The case FSM exercises infer -> encode -> elaborate -> optimize
    # -> stateprop -> optimize -> map -> size, in that order.
    assert prefixes == [
        "fsm_infer", "encode", "elaborate", "optimize",
        "stateprop", "optimize", "map", "size",
    ]


def test_records_carry_wall_time_and_aig_stats():
    result = compile_case_fsm()
    names = [record.name for record in result.records]
    for expected in ("fsm_infer", "elaborate", "seq_sweep", "tt_sweep",
                     "balance", "rewrite", "map", "size"):
        assert expected in names, f"no record for pass {expected}"
    for record in result.records:
        assert record.wall_time_s >= 0.0
    elaborate = next(r for r in result.records if r.name == "elaborate")
    assert elaborate.before is None  # no AIG yet
    assert elaborate.after is not None and elaborate.after.num_ands > 0
    rewrite = next(r for r in result.records if r.name == "rewrite")
    assert rewrite.before is not None and rewrite.after is not None
    assert rewrite.delta_ands is not None


def test_dropped_bus_message_keeps_legacy_format():
    # Annotating a register whose bus dissolves during optimization
    # (the constant-driven reg below) exercises the dropped-bus line.
    b = ModuleBuilder("dropbus")
    data = b.input("data", 2)
    dead = b.reg("dead", 2)
    b.drive(dead, Const(0, 2))
    live = b.reg("live", 2)
    b.drive(live, data)
    b.output("o", live.ne(0))
    result = DesignCompiler().compile(
        b.build(),
        CompileOptions(
            fsm_encoding="same",
            infer_fsm=False,
            state_annotations=[StateAnnotation("dead", (0, 1))],
        ),
    )
    dropped = [l for l in result.log if "no longer exists" in l]
    if dropped:  # the sweep removed the constant register first
        assert dropped == ["stateprop: bus dead no longer exists (dropped)"]


def test_pass_record_roundtrip_all_fields():
    record = PassRecord(
        name="rewrite",
        stage="aig",
        wall_time_s=0.125,
        before=AigStats(num_ands=100, num_latches=3),
        after=AigStats(num_ands=80, num_latches=3),
        messages=("line one", "line two"),
        skipped=True,
        rejected=True,
        failed=True,
    )
    back = PassRecord.from_json(
        json.loads(json.dumps(record.to_json(), allow_nan=False))
    )
    assert back == record
    assert back.failed and back.rejected and back.skipped
    assert back.delta_ands == -20


def test_pass_record_roundtrip_none_stats():
    record = PassRecord(
        name="fsm_infer", stage="rtl", wall_time_s=0.0,
        before=None, after=None,
    )
    assert PassRecord.from_json(record.to_json()) == record
