"""The spec analysis memo: what a pipeline spec string alone determines
(canonical spec, prefix specs, spec-check diagnostics) is computed once
per process, equals a fresh computation, and follows the registries."""

import pytest

from repro.check.__main__ import shipped_specs
from repro.check.spec import check_job, check_spec, check_spec_once
from repro.expts.techsweep import build_jobs
from repro.flow import (
    PASS_REGISTRY,
    CompileJob,
    FlowError,
    Pass,
    PassManager,
    register_pass,
)
from repro.flow import manager, passes
from repro.flow.core import PASS_SCHEMAS
from repro.flow.parallel import _job_prefix_fingerprints
from repro.rtl.builder import ModuleBuilder
from repro.serve.protocol import encode_job
from repro.tech.cells import Library


def build_rom_module():
    b = ModuleBuilder("m")
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(3 * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def codes(diagnostics):
    return [d.code for d in diagnostics if d.severity == "error"]


def test_memo_follows_pass_registration_and_removal():
    spec = "memo_probe,elaborate"
    job = CompileJob("probe", spec, module=build_rom_module())
    assert codes(check_job(job)) == ["CHK101"]
    with pytest.raises(FlowError, match="unknown pass 'memo_probe'"):
        manager.prefix_specs_of(spec)
    with pytest.raises(FlowError, match="unknown pass 'memo_probe'"):
        _job_prefix_fingerprints(job)

    @register_pass("memo_probe")
    class MemoProbe(Pass):
        stage = "rtl"

        def run(self, ctx):
            pass

    try:
        assert codes(check_job(job)) == []
        assert manager.prefix_specs_of(spec) == [
            "memo_probe",
            "memo_probe,elaborate",
        ]
        assert len(_job_prefix_fingerprints(job)) == 2
        PASS_REGISTRY.pop("memo_probe")
        assert codes(check_job(job)) == ["CHK101"]
        with pytest.raises(FlowError, match="unknown pass 'memo_probe'"):
            manager.prefix_specs_of(spec)[-1]
    finally:
        PASS_REGISTRY.pop("memo_probe", None)
        PASS_SCHEMAS.pop("memo_probe", None)


def test_memo_sees_a_swapped_library_factory(monkeypatch):
    """Swapping a registered library's factory drops the memo's entry;
    the spec names the library, so it still renders the same."""
    spec = "elaborate,map{library=tsmc90ish}"
    analysed = []
    real_analyse = manager._analyse

    def counting_analyse(text):
        analysed.append(text)
        return real_analyse(text)

    monkeypatch.setattr(manager, "_analyse", counting_analyse)
    assert manager.prefix_specs_of(spec)[-1] == spec
    analysed.clear()
    assert manager.prefix_specs_of(spec)[-1] == spec
    assert analysed == []  # served from the memo
    monkeypatch.setitem(
        passes.LIBRARY_FACTORIES, "tsmc90ish", Library.generic45ish
    )
    assert manager.prefix_specs_of(spec)[-1] == spec
    assert analysed == [spec]  # the entry was dropped and recomputed


def memo_and_fresh(spec, **kwargs):
    """The memo's analysis of ``spec`` and a fresh one, side by side;
    a spec with no spec form compares its error message."""
    try:
        fresh = PassManager.parse(spec)
        expected = (fresh.spec(), fresh.prefix_specs())
    except FlowError as exc:
        expected = str(exc)
    try:
        memo = manager.prefix_specs_of(spec)
        got = (memo[-1], memo)
    except FlowError as exc:
        got = str(exc)
    return (got, check_spec_once(spec, **kwargs)), (
        expected,
        check_spec(spec, **kwargs),
    )


def test_memo_equals_a_fresh_analysis_of_every_shipped_spec():
    for label, spec, kwargs in shipped_specs():
        for _ in range(2):  # the first call fills the memo; the next reads it
            got, expected = memo_and_fresh(spec, **kwargs)
            assert got == expected, label
    for job in build_jobs("small"):
        for _ in range(2):
            got, expected = memo_and_fresh(job.pipeline, input_stage="ctrl")
            assert got == expected, job.key
            assert check_job(job) == check_spec(
                job.pipeline,
                input_stage="ctrl",
                ir_kind=job.ctrl.ir_stats()["kind"],
                has_bindings=False,
            )


def test_each_spec_is_analysed_once_per_process(monkeypatch):
    spec = "elaborate,optimize,map,size{clock_period_ns=13.25}"
    job = CompileJob("once", spec, module=build_rom_module())
    parses = []
    checks = []
    real_parse = PassManager.parse.__func__
    real_check = check_spec

    def counting_parse(cls, text):
        parses.append(text)
        return real_parse(cls, text)

    def counting_check(*args, **kwargs):
        checks.append(args)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(PassManager, "parse", classmethod(counting_parse))
    monkeypatch.setattr("repro.check.spec.check_spec", counting_check)
    for _ in range(5):
        encode_job(job, 0)
        assert codes(check_job(job)) == []
        _job_prefix_fingerprints(job)
    assert parses == [spec] and len(checks) == 1


def test_memo_stays_within_its_bound():
    bound = manager.MAX_SPEC_ANALYSES
    for period in range(bound + 20):
        spec = f"size{{clock_period_ns={period + 1}.5}}"
        assert manager.prefix_specs_of(spec)[-1] == spec
        check_spec_once(spec)
        assert len(manager._ANALYSES) <= bound
    assert len(manager._ANALYSES) == bound


def test_threads_sharing_the_memo_get_fresh_equal_analyses():
    import sys
    import threading

    bound = manager.MAX_SPEC_ANALYSES
    specs = [
        f"size{{clock_period_ns={period + 1}.25}}"
        for period in range(bound + 8)
    ]
    errors = []

    def worker(offset):
        try:
            for round_ in range(3 * len(specs)):
                spec = specs[(offset * 7 + round_) % len(specs)]
                assert manager.prefix_specs_of(spec) == [spec]
                assert check_spec_once(spec) == []
        except Exception as exc:  # surfaced below; threads swallow
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(manager._ANALYSES) <= bound
