"""``python -m repro.check`` -- the static verification CLI.

Subcommands::

    spec SPEC        typecheck one pipeline spec (optionally against a
                     declared input stage / IR kind / bindings)
    specs            lint every shipped spec: the figure drivers, the
                     Fig. 9 and techsweep jobs, and the default flow
    ir               lint the techsweep IR corpus (FSMs, truth tables)
    dataflow         dataflow analyses over the IR
                     corpus (reachability, constants, dead logic --
                     the CHK7xx family)
    registry         the pass registry with per-pass option schemas
    self             lock-discipline lint over the serve stack, the
                     compile cache and the spec analysis memo
                     (``--self`` works as an alias)

Exit status: 0 clean, 1 findings (warnings count only under
``--strict``), 2 usage errors.  ``--format json`` emits one JSON array
of findings for tooling; ``--format sarif`` a SARIF 2.1.0 log (what CI
uploads); the default is one human line per finding, errors first.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.check.dataflow import analyze_ir
from repro.check.diagnostics import Diagnostic, exit_code
from repro.check.irlint import lint_ir
from repro.check.locks import check_lock_discipline, default_lock_paths
from repro.check.sarif import to_sarif
from repro.check.spec import check_job, check_spec

# ``specs`` lints shipped_specs() and shipped_jobs(); the acceptance
# bar is zero diagnostics, so a pass rename or schema change that
# breaks a figure driver fails CI before anyone runs the figure.


def shipped_specs() -> "list[tuple[str, str, dict]]":
    """(label, spec, check_spec kwargs) for every spec a figure driver
    renders on its own, and the default flows."""
    from repro.expts.fig5_tables import _comb_spec
    from repro.expts.fig6_fsm import LOWERINGS, default_body
    from repro.expts.fig8_stateprop import treatment_specs
    from repro.flow.pipeline import default_pipeline
    from repro.synth.dc_options import CompileOptions

    entries: list[tuple[str, str, dict]] = []
    comb = _comb_spec(20.0)
    entries.append(
        (
            "fig5/table",
            f"table_rom,{comb}",
            {"input_stage": "ctrl", "ir_kind": "table"},
        )
    )
    entries.append(
        (
            "fig5/sop",
            f"table_minimize,{comb}",
            {"input_stage": "ctrl", "ir_kind": "table"},
        )
    )
    body = default_body(20.0)
    for name, prefix in sorted(LOWERINGS.items()):
        entries.append(
            (
                f"fig6/{name}",
                f"{prefix},{body}",
                {"input_stage": "ctrl", "ir_kind": "fsm"},
            )
        )
    for name, spec in sorted(treatment_specs(20.0).items()):
        entries.append((f"fig8/{name}", spec, {"input_stage": "rtl"}))
    for label, options in (
        ("default", CompileOptions()),
        ("retimed", CompileOptions(retime=True, fold_sync_reset=True)),
        ("no-state-folding", CompileOptions(use_state_folding=False)),
    ):
        entries.append(
            (
                f"flow/{label}",
                default_pipeline(options).spec(),
                {"input_stage": "rtl"},
            )
        )
    return entries


def shipped_jobs() -> "list[tuple[str, object]]":
    """(label, compile job) for every job whose spec its figure builds
    per job: Fig. 9's five jobs and the techsweep grid, each built by
    the figure's own code at small scale."""
    from repro.expts import fig9_pctrl, techsweep
    from repro.smartmem.pctrl import build_pctrl

    design = build_pctrl(fig9_pctrl.Fig9Scale.named("small").params)
    labelled = [("fig9", job) for job in fig9_pctrl.build_jobs(design)]
    labelled += [("techsweep", job) for job in techsweep.build_jobs("small")]
    return [
        (f"{figure}/{'/'.join(map(str, job.key))}", job)
        for figure, job in labelled
    ]


def _findings_specs() -> "list[tuple[str, Diagnostic]]":
    findings = []
    for label, spec, kwargs in shipped_specs():
        for diagnostic in check_spec(spec, **kwargs):
            findings.append((label, diagnostic))
    for label, job in shipped_jobs():
        for diagnostic in check_job(job):
            findings.append((label, diagnostic))
    return findings


def _findings_ir() -> "list[tuple[str, Diagnostic]]":
    from repro.expts.techsweep import _designs

    findings = []
    for label, (_, ir) in sorted(_designs("small").items()):
        for diagnostic in lint_ir(ir):
            findings.append((f"ir/{label}", diagnostic))
    return findings


def _findings_dataflow() -> "list[tuple[str, Diagnostic]]":
    from repro.expts.techsweep import _designs

    findings = []
    for label, (_, ir) in sorted(_designs("small").items()):
        for diagnostic in analyze_ir(ir):
            findings.append((f"dataflow/{label}", diagnostic))
    return findings


def _findings_self() -> "list[tuple[str, Diagnostic]]":
    return [("locks", d) for d in check_lock_discipline()]


def _report(findings, strict: bool, output_format: str) -> int:
    diagnostics = [diagnostic for _, diagnostic in findings]
    status = exit_code(diagnostics, strict=strict)
    if output_format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
        return status
    if output_format == "json":
        print(
            json.dumps(
                [
                    {"target": label, **diagnostic.to_json()}
                    for label, diagnostic in findings
                ],
                indent=2,
            )
        )
        return status
    ordered = sorted(
        findings,
        key=lambda pair: (0 if pair[1].severity == "error" else 1, pair[0]),
    )
    for label, diagnostic in ordered:
        print(f"{label}: {diagnostic}")
    if not findings:
        print("clean: no diagnostics")
    else:
        errors = sum(1 for d in diagnostics if d.severity == "error")
        print(
            f"{len(findings)} finding(s): {errors} error(s), "
            f"{len(findings) - errors} warning(s)"
        )
    return status


def _render_registry(output_format: str) -> int:
    from repro.flow.passes import describe

    registry = describe()
    if output_format == "json":
        print(json.dumps(registry, indent=2, sort_keys=True))
        return 0
    for name in sorted(registry):
        entry = registry[name]
        stage = entry["stage"]
        arrow = (
            f"{stage}->{entry['produces']}"
            if entry.get("produces")
            else stage
        )
        print(f"{name} ({arrow}): {entry.get('summary', '')}")
        if entry.get("ir_kinds"):
            print(f"    accepts IR kinds: {', '.join(entry['ir_kinds'])}")
        if entry.get("needs_bindings"):
            print("    needs configuration bindings")
        for option_name, option in sorted(entry.get("options", {}).items()):
            bits = [option["type"]]
            if "default" in option:
                bits.append(f"default={option['default']!r}")
            if option.get("nullable"):
                bits.append("nullable")
            if option.get("choices"):
                bits.append(
                    "choices=" + "|".join(map(str, option["choices"]))
                )
            for bound in ("min", "max", "exclusive_min"):
                if option.get(bound) is not None:
                    bits.append(f"{bound}={option[bound]}")
            print(f"    {option_name}: {', '.join(bits)}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `python -m repro.check --self` is the documented CI shorthand.
    argv = ["self" if item == "--self" else item for item in argv]

    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static verification: spec typechecking, IR "
        "linting, lock-discipline analysis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings too, not just errors",
    )
    common.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings as human lines (default), one JSON array, or "
        "a SARIF 2.1.0 log",
    )
    commands = parser.add_subparsers(dest="command")

    spec_cmd = commands.add_parser(
        "spec", parents=[common], help="typecheck one pipeline spec"
    )
    spec_cmd.add_argument("spec", help="the pipeline spec string")
    spec_cmd.add_argument(
        "--stage",
        choices=("ctrl", "rtl", "aig", "netlist"),
        default=None,
        help="the input's stage (defaults to whatever the first pass "
        "needs)",
    )
    spec_cmd.add_argument(
        "--ir",
        dest="ir_kind",
        default=None,
        help="the controller IR kind of a ctrl-stage input "
        "(fsm, table, program, microcode, dispatch, sequencer)",
    )
    spec_cmd.add_argument(
        "--bindings",
        action="store_true",
        help="the compile context will carry configuration bindings",
    )

    commands.add_parser(
        "specs",
        parents=[common],
        help="lint every shipped figure/techsweep spec and the "
        "default flow",
    )
    commands.add_parser(
        "ir",
        parents=[common],
        help="lint the techsweep IR corpus",
    )
    commands.add_parser(
        "dataflow",
        parents=[common],
        help="dataflow analyses (CHK7xx) over the techsweep IR corpus",
    )
    commands.add_parser(
        "registry",
        parents=[common],
        help="print the pass registry with option schemas",
    )
    commands.add_parser(
        "self",
        parents=[common],
        help="lock-discipline lint over repro.serve, the compile "
        "cache and the spec analysis memo",
    )

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "registry":
        return _render_registry(args.output_format)
    if args.command == "spec":
        findings = [
            ("spec", diagnostic)
            for diagnostic in check_spec(
                args.spec,
                input_stage=args.stage,
                ir_kind=args.ir_kind,
                has_bindings=True if args.bindings else None,
            )
        ]
    elif args.command == "specs":
        findings = _findings_specs()
    elif args.command == "ir":
        findings = _findings_ir()
    elif args.command == "dataflow":
        findings = _findings_dataflow()
    else:
        findings = _findings_self()
    return _report(findings, args.strict, args.output_format)


if __name__ == "__main__":
    sys.exit(main())
