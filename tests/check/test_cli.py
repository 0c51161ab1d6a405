"""The ``python -m repro.check`` entry point: exit codes, shipped-spec
cleanliness, and machine-readable output."""

import json

from repro.check.__main__ import main


def test_self_lint_is_clean(capsys):
    assert main(["--self"]) == 0
    assert "clean" in capsys.readouterr().out


def test_shipped_specs_are_clean(capsys):
    assert main(["specs"]) == 0
    assert "clean" in capsys.readouterr().out


def test_specs_lints_the_jobs_fig9_submits(monkeypatch):
    """``specs`` lints the jobs ``run_fig9`` actually submits (no
    ``encode``: Fig. 9 keeps its encodings), job for job and field for
    field."""
    from dataclasses import replace

    from repro.check.__main__ import shipped_jobs
    from repro.expts import fig9_pctrl

    submitted = []

    class Submitted(Exception):
        pass

    def capture(jobs, **kwargs):
        submitted.extend(jobs)
        raise Submitted

    monkeypatch.setattr(fig9_pctrl, "compile_many", capture)
    try:
        fig9_pctrl.run_fig9(scale="small")
    except Submitted:
        pass
    linted = [job for label, job in shipped_jobs() if label.startswith("fig9/")]

    def fields(jobs):
        # Each side built its own design: compare modules by content.
        return [
            replace(job, module=job.module.canonical_hash()) for job in jobs
        ]

    assert len(submitted) == 5
    assert fields(linted) == fields(submitted)
    assert not any("encode" in job.pipeline for job in submitted)


def test_shipped_irs_are_clean(capsys):
    assert main(["ir"]) == 0


def test_bad_spec_exits_nonzero(capsys):
    assert main(["spec", "rewritee"]) == 1
    out = capsys.readouterr().out
    assert "CHK101" in out
    assert "did you mean 'rewrite'?" in out


def test_clean_spec_exits_zero(capsys):
    assert main(["spec", "elaborate,optimize,map,size", "--stage", "rtl"]) == 0


def test_spec_stage_and_ir_flags(capsys):
    assert (
        main(
            [
                "spec",
                "fsm_encode,elaborate,optimize,map,size",
                "--stage",
                "ctrl",
                "--ir",
                "fsm",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "spec",
                "pe_bind,elaborate,optimize,map,size",
                "--stage",
                "rtl",
            ]
        )
        == 0
    )  # bindings unknown: no CHK107


def test_strict_promotes_warnings(capsys):
    # A spec with only warnings exits 0 normally, 1 under --strict.
    # CHK105 is an error, so use an IR warning via the spec path is not
    # possible -- exercise strict through exit_code semantics instead:
    from repro.check import Diagnostic, exit_code

    warning = Diagnostic("CHK302", "warning", "prog", "falls off")
    assert exit_code([warning]) == 0
    assert exit_code([warning], strict=True) == 1


def test_json_format_parses(capsys):
    assert main(["spec", "rewritee", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    assert payload[0]["code"] == "CHK101"
    assert payload[0]["severity"] == "error"
    assert "target" in payload[0]


def test_registry_renders_schemas(capsys):
    assert main(["registry"]) == 0
    out = capsys.readouterr().out
    assert "elaborate" in out
    assert "optimize" in out
    assert "effort_rounds" in out
    assert "clock_period_ns" in out


def test_no_subcommand_shows_help(capsys):
    assert main([]) == 2
