"""The one diagnostic model every ``repro.check`` analyzer reports in.

A :class:`Diagnostic` is a code (``CHK101``), a severity, a location
string, a message, and an optional suggestion.  Codes are grouped by
analyzer family:

* ``CHK1xx`` -- spec typechecker (:mod:`repro.check.spec`)
* ``CHK2xx`` -- FSM linter (:mod:`repro.check.irlint`)
* ``CHK3xx`` -- microcode/dispatch linter
* ``CHK4xx`` -- AIG structural linter
* ``CHK5xx`` -- mapped-netlist linter
* ``CHK6xx`` -- lock-discipline analyzer (:mod:`repro.check.locks`)
* ``CHK7xx`` -- dataflow engine (:mod:`repro.check.dataflow`)

The model is deliberately wire-friendly (``to_json``/``from_json``):
the compile server attaches diagnostics to rejected jobs' NDJSON
result lines, and :class:`repro.serve.SpecCheckError` carries them
back to the client intact.
"""

from __future__ import annotations

from dataclasses import dataclass

SEVERITIES = ("error", "warning")

#: Code -> one-line title, the closed set of diagnostics any analyzer
#: may emit.  ``repro.check registry``-adjacent tooling and the docs
#: render from this, so adding a code here is adding it everywhere.
CODES = {
    # -- spec typechecker ---------------------------------------------
    "CHK100": "malformed pipeline spec",
    "CHK101": "unknown pass",
    "CHK102": "unknown option",
    "CHK103": "option type mismatch",
    "CHK104": "option value rejected",
    "CHK105": "stage-ordering error",
    "CHK106": "controller-IR kind mismatch",
    "CHK107": "missing configuration bindings",
    # -- FSM linter ---------------------------------------------------
    "CHK201": "unreachable FSM state",
    "CHK202": "dead (trap) FSM state",
    "CHK203": "overlapping transitions with conflicting next state",
    "CHK204": "uncovered (state, input) combination",
    # -- microcode / dispatch linter ----------------------------------
    "CHK300": "program fails to assemble",
    "CHK301": "jump target out of range",
    "CHK302": "fall-through past the end of the program",
    "CHK303": "field width violation",
    "CHK304": "unreachable microcode addresses",
    "CHK305": "undefined dispatch label",
    # -- AIG structural linter ----------------------------------------
    "CHK401": "AIG structural invariant violated",
    "CHK402": "dangling AND nodes",
    # -- mapped-netlist linter ----------------------------------------
    "CHK501": "combinational loop",
    "CHK502": "multiple drivers on a net",
    "CHK503": "floating input net",
    # -- lock-discipline analyzer -------------------------------------
    "CHK601": "guarded field accessed without its lock",
    "CHK602": "conflicting guarded-by annotations",
    # -- dataflow engine ----------------------------------------------
    "CHK701": "semantically unreachable FSM state",
    "CHK702": "transition guard unsatisfiable",
    "CHK703": "dead microcode branch",
    "CHK704": "register provably constant",
    "CHK705": "dispatch target never taken",
    "CHK706": "output-independent logic cone",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analyzer.

    Args:
        code: a key of :data:`CODES`.
        severity: ``"error"`` (the artifact is wrong) or ``"warning"``
            (the artifact is suspicious -- unreachable states, dangling
            nodes -- but executes).
        location: where, as a human-readable anchor -- a spec item
            (``item 2 ('rewritee')``), an IR element (``state 3``), or
            a ``file:line``.
        message: what is wrong, in one sentence.
        suggestion: an optional actionable fix (``did you mean ...``).
    """

    code: str
    severity: str
    location: str
    message: str
    suggestion: "str | None" = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")

    def __str__(self) -> str:
        text = f"{self.code} {self.severity} at {self.location}: {self.message}"
        if self.suggestion:
            text += f" ({self.suggestion})"
        return text

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.suggestion is not None:
            out["suggestion"] = self.suggestion
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Diagnostic":
        return cls(
            code=str(data["code"]),
            severity=str(data["severity"]),
            location=str(data["location"]),
            message=str(data["message"]),
            suggestion=(
                None if data.get("suggestion") is None
                else str(data["suggestion"])
            ),
        )


def errors(diagnostics) -> "list[Diagnostic]":
    """Just the error-severity findings."""
    return [d for d in diagnostics if d.severity == "error"]


def has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def render(diagnostics) -> str:
    """One line per finding, errors first (stable within severity)."""
    ordered = sorted(
        diagnostics, key=lambda d: 0 if d.severity == "error" else 1
    )
    return "\n".join(str(d) for d in ordered)


def exit_code(diagnostics, strict: bool = False) -> int:
    """The CLI exit status for a finding set: 0 clean, 1 findings.

    Warnings only fail under ``--strict``.
    """
    if has_errors(diagnostics):
        return 1
    if strict and any(d.severity == "warning" for d in diagnostics):
        return 1
    return 0
