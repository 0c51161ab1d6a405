"""The spec typechecker: diagnostics, compile()-time rejection, parse
error messages, and the shipped-spec zero-diagnostic bar."""

import pytest

from repro.check import check_job, check_manager, check_spec, exit_code
from repro.check.spec import input_stage_of
from repro.controllers.fsm import FsmSpec
from repro.tables.truthtable import TruthTable
from repro.flow import CompileJob, PassManager
from repro.flow.core import FlowError


def small_fsm(name="f"):
    return FsmSpec(
        name, 1, 1, 2, 0, [[0, 1], [1, 0]], [[0, 0], [1, 1]]
    )


# -- clean pipelines ---------------------------------------------------
def test_default_style_pipelines_are_clean():
    assert check_spec(
        "fsm_encode,fsm_infer,honour_annotations,encode,elaborate,"
        "optimize,map,size",
        input_stage="ctrl",
        ir_kind="fsm",
    ) == []
    assert check_spec(
        "elaborate,optimize,map,size", input_stage="rtl"
    ) == []


def test_conditional_items_skip_stage_mismatches():
    # `retime_stage?` on an already-mapped flow: Conditional skips at
    # runtime, so the checker must not flag it either.
    assert check_spec(
        "elaborate,optimize,map,retime_stage?,size", input_stage="rtl"
    ) == []


def test_unknown_entry_stage_checks_internal_order_only():
    assert check_spec("optimize,map,size") == []
    bad = check_spec("map,optimize,size")
    assert bad and {d.code for d in bad} == {"CHK105"}


# -- individual codes --------------------------------------------------
def test_unknown_pass_suggests_neighbour():
    (diag,) = check_spec("rewritee")
    assert diag.code == "CHK101"
    assert "did you mean 'rewrite'?" in diag.suggestion


def test_unknown_option_suggests_neighbour():
    diags = check_spec("optimize{effort_round=3}")
    assert [d.code for d in diags] == ["CHK102"]
    assert "did you mean 'effort_rounds'?" in diags[0].suggestion


def test_type_and_range_are_distinct_codes():
    (type_diag,) = check_spec("rewrite{k=four}")
    assert type_diag.code == "CHK103"
    (range_diag,) = check_spec("size{clock_period_ns=0}")
    assert range_diag.code == "CHK104"


@pytest.mark.parametrize(
    "spec",
    [
        "rewrite{k=1}",
        "rewrite{k=7}",
        "rewrite{max_cuts=0}",
        "rewrite{max_cuts=-1}",
        "dc_rewrite{k=1}",
        "dc_rewrite{k=7}",
        "dc_rewrite{max_cuts=0}",
    ],
)
def test_cut_options_out_of_range_are_chk104(spec):
    """Cut widths outside 2..6 and empty cut sets are range errors up
    front, not a failure deep inside cut enumeration or a pass that
    silently does nothing."""
    (diag,) = check_spec(spec)
    assert diag.code == "CHK104"
    with pytest.raises(FlowError, match="CHK104"):
        PassManager.parse(spec)


def test_choice_violation_names_choices():
    (diag,) = check_spec("encode{style=grey}")
    assert diag.code == "CHK104"
    assert "gray" in diag.message


def test_stage_error_embeds_runtime_phrase():
    (diag,) = check_spec(
        "fsm_encode,map,size", input_stage="ctrl", ir_kind="fsm"
    )
    assert diag.code == "CHK105"
    assert "needs an elaborated AIG" in diag.message
    assert "insert 'elaborate'" in diag.suggestion


def test_repeated_lowering_is_flagged():
    diags = check_spec("elaborate[2],optimize,map,size", input_stage="rtl")
    assert [d.code for d in diags] == ["CHK105"]
    assert "repeating it 2 times" in diags[0].message


def test_ir_kind_mismatch_names_the_class():
    diags = check_spec(
        "table_rom,elaborate,optimize,map,size",
        input_stage="ctrl",
        ir_kind="fsm",
    )
    assert [d.code for d in diags] == ["CHK106"]
    assert "TruthTable" in diags[0].message


def test_missing_bindings_is_flagged_only_when_known_absent():
    spec = "pe_bind,elaborate,optimize,map,size"
    assert [d.code for d in check_spec(spec, has_bindings=False)] == [
        "CHK107"
    ]
    assert check_spec(spec, has_bindings=True) == []
    assert check_spec(spec, has_bindings=None) == []


def test_malformed_spec_reports_and_continues():
    diags = check_spec("elaborate,opt imize,map,size", input_stage="rtl")
    # The bad item is CHK100; 'map' then follows 'elaborate' (aig) fine.
    assert diags[0].code == "CHK100"


# -- check_manager / check_job ----------------------------------------
def test_check_manager_flags_object_pipelines():
    manager = PassManager.parse("map,size,optimize")
    diags = check_manager(manager, input_stage="aig")
    assert [d.code for d in diags] == ["CHK105"]


def test_check_job_derives_inputs():
    job = CompileJob(
        "k", "elaborate,optimize,map,size", ctrl=small_fsm()
    )
    diags = check_job(job)
    assert "CHK105" in {d.code for d in diags}
    good = CompileJob(
        "k",
        "fsm_encode,elaborate,optimize,map,size",
        ctrl=small_fsm(),
    )
    assert check_job(good) == []


def test_input_stage_of_prefers_most_lowered():
    assert input_stage_of(ctrl=small_fsm(), module=None, aig=None) == (
        "ctrl",
        "fsm",
    )
    table = TruthTable.random(2, 2, __import__("random").Random(0))
    assert input_stage_of(ctrl=table, module=None, aig=None) == (
        "ctrl",
        "table",
    )
    assert input_stage_of(ctrl=None, module=None, aig=None) == (None, None)


# -- compile() runs the checker up front ------------------------------
def test_compile_rejects_statically_invalid_pipeline():
    manager = PassManager.parse("elaborate,optimize,map,size")
    with pytest.raises(FlowError) as excinfo:
        manager.compile(ctrl=small_fsm())
    message = str(excinfo.value)
    assert "pipeline spec check failed" in message
    assert "CHK105" in message


def test_compile_rejects_missing_bindings():
    manager = PassManager.parse("pe_bind,elaborate,optimize,map,size")
    from repro.rtl.builder import ModuleBuilder

    b = ModuleBuilder("m")
    b.output("y", b.input("x", 2))
    with pytest.raises(FlowError) as excinfo:
        manager.compile(b.build())
    assert "CHK107" in str(excinfo.value)


# -- parse() reuses typechecker diagnostics ---------------------------
def test_parse_errors_carry_code_position_and_suggestion():
    with pytest.raises(FlowError) as excinfo:
        PassManager.parse("elaborate,rewritee")
    message = str(excinfo.value)
    assert "[CHK101]" in message
    assert "at item 2" in message
    assert "did you mean 'rewrite'?" in message

    with pytest.raises(FlowError) as excinfo:
        PassManager.parse("optimize{effort_round=3}")
    message = str(excinfo.value)
    assert "[CHK102]" in message
    assert "did you mean 'effort_rounds'" in message


def test_exit_code_semantics():
    from repro.check import Diagnostic

    warning = Diagnostic("CHK201", "warning", "x", "y")
    error = Diagnostic("CHK101", "error", "x", "y")
    assert exit_code([]) == 0
    assert exit_code([warning]) == 0
    assert exit_code([warning], strict=True) == 1
    assert exit_code([error]) == 1
