"""One declaration per option: a registered pass's schema is what its
constructor checks, what its spec renders and what the spec check
reads, so a local compile accepts exactly the specs the compile
server admits."""

import re

import pytest

from repro.check.spec import check_spec
from repro.controllers.fsm import FsmSpec
from repro.flow import (
    CompileCache,
    CompileJob,
    FlowError,
    Pass,
    PassManager,
    compile_many,
    make_pass,
    register_pass,
    registered_pass_names,
)
from repro.flow.core import PASS_SCHEMAS, render_spec_value
from repro.flow.schema import Option, PassSchema
from repro.serve import CompileServer, SpecCheckError

#: One value of every spec type, ``none`` included: each option is
#: probed with all of them, so each wrong type is among them.
_EVERY_TYPE = ("x", 1, 1.5, True, None)


def _values(option):
    """Every probe value of one option: each type, each declared bound
    and its neighbours, each choice and one value outside them."""
    values = list(_EVERY_TYPE)
    for bound in (option.min, option.max, option.exclusive_min):
        if bound is not None:
            values += [bound - 1, bound, bound + 1]
    choices = option.choice_values()
    if choices is not None:
        values += ["bogus", *choices]
    return values


def _probes():
    """``(pass name, options)`` over every option of every registered
    pass, plus an unknown option on every pass and ``fsm_encode``'s one
    cross-option constraint."""
    probes = []
    for name in registered_pass_names():
        probes.append((name, {"frob": 1}))
        for key, option in sorted(PASS_SCHEMAS[name].options.items()):
            probes += [(name, {key: value}) for value in _values(option)]
    probes.append(("fsm_encode", {"realize": "case", "flexible": True}))
    return probes


def _spec(name, params):
    body = ",".join(
        f"{key}={render_spec_value(value)}" for key, value in params.items()
    )
    return f"{name}{{{body}}}"


def _raised_codes(build):
    """The diagnostic code ``build()`` raises with, as a list ([] when
    it builds)."""
    try:
        build()
    except FlowError as exc:
        return [re.search(r"\[(CHK\d+)\]", str(exc)).group(1)]
    return []


def test_parse_and_make_pass_reject_exactly_what_check_spec_reports():
    probes = _probes()
    assert {name for name, _ in probes} == set(registered_pass_names())
    disagreements = []
    for name, params in probes:
        spec = _spec(name, params)
        static = sorted(
            {d.code for d in check_spec(spec) if d.severity == "error"}
        )
        parsed = _raised_codes(lambda: PassManager.parse(spec))
        built = _raised_codes(lambda: make_pass(name, **params))
        if not parsed == built == static:
            disagreements.append((spec, static, parsed, built))
    assert disagreements == []


def test_check_spec_reports_every_option_problem_of_an_item():
    spec = "dc_rewrite{k=four,max_cuts=0,tfo_depht=2}"
    codes = [d.code for d in check_spec(spec)]
    assert codes == ["CHK102", "CHK103", "CHK104"]
    with pytest.raises(FlowError) as excinfo:
        PassManager.parse(spec)
    message = str(excinfo.value)
    # Runtime raises with the first code and lists every problem, in
    # the static check's words.
    assert re.findall(r"\[(CHK\d+)\]", message) == codes
    for diagnostic in check_spec(spec):
        assert diagnostic.message in message


def test_a_schema_whose_default_fails_its_own_option_is_refused():
    schema = PassSchema(options={"rounds": Option("int", default=0, min=1)})
    with pytest.raises(FlowError, match="default option rounds must be >= 1"):

        @register_pass("bad_default_probe", schema)
        class BadDefault(Pass):
            def run(self, ctx):
                pass

    assert "bad_default_probe" not in registered_pass_names()


def test_a_registered_pass_takes_its_stage_from_its_schema():
    """The schema is the one place a registered pass declares its
    stage; a class registered without one keeps its own."""
    from repro.flow.core import PASS_REGISTRY

    try:

        @register_pass("stage_probe", PassSchema(stage="rtl"))
        class StageProbe(Pass):
            def run(self, ctx):
                pass

        @register_pass("bare_probe")
        class BareProbe(Pass):
            stage = "netlist"

            def run(self, ctx):
                pass

        assert StageProbe.stage == "rtl" and StageProbe().stage == "rtl"
        assert BareProbe.stage == "netlist"
        assert PASS_SCHEMAS["bare_probe"].stage == "netlist"
    finally:
        for name in ("stage_probe", "bare_probe"):
            PASS_REGISTRY.pop(name, None)
            PASS_SCHEMAS.pop(name, None)


def test_passes_take_options_by_keyword_only():
    from repro.flow.passes import OptimizeLoop, SizePass

    with pytest.raises(TypeError):
        SizePass(2.0)
    with pytest.raises(TypeError):
        OptimizeLoop(3)


def small_fsm():
    return FsmSpec(
        "f", 1, 1, 2, 0, [[0, 1], [1, 0]], [[0, 0], [1, 1]]
    )


def test_every_compile_path_rejects_a_mistyped_option_before_running(
    monkeypatch,
):
    spec = "fsm_encode,elaborate,optimize,map,size{clock_period_ns=true}"
    executed = []
    execute = Pass.execute

    def counting(self, ctx):
        executed.append(self.name)
        return execute(self, ctx)

    monkeypatch.setattr(Pass, "execute", counting)
    job = CompileJob("bad", spec, ctrl=small_fsm())
    for cache in (None, CompileCache()):
        with pytest.raises(FlowError, match=r"\[CHK103\]"):
            compile_many([job], cache=cache)
    with pytest.raises(FlowError, match=r"\[CHK103\]"):
        PassManager.parse(spec).compile(ctrl=small_fsm())
    with CompileServer() as server:
        result = server.run_job(job, 0, frozenset())
    assert isinstance(result.error, SpecCheckError)
    assert [d.code for d in result.error.diagnostics] == ["CHK103"]
    assert executed == []
