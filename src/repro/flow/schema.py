"""Per-pass option schemas: the one declaration of a pass's contract.

Every pass registered with :func:`repro.flow.core.register_pass`
carries a :class:`PassSchema` describing what the pass consumes and
produces (stages, controller-IR kinds) and which options it takes
(:class:`Option`: type, default, range, choices).  The schema is the
only place an option is declared: :func:`resolve_options` checks the
values a pass is built with and fills in the defaults,
:meth:`repro.flow.core.Pass.params` renders the values that differ
from them, and :mod:`repro.check.spec` walks a spec against the same
schemas -- through the same :func:`option_problems` -- to catch
unknown passes, bad options, stage-ordering errors, and IR-kind
mismatches before any elaboration happens: the paper's
analyzable-intent claim applied to the flow itself.

Constructors enforce their schema, so a spec the checker accepts is a
spec the constructors accept, and the other way round.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable


class FlowError(Exception):
    """A malformed pipeline: unknown pass, bad spec, stage misuse."""


#: The controller-IR ``kind`` tags (from ``ir_stats()``) mapped to the
#: class a pass's runtime ``_require_ir`` check would name.  Used by
#: diagnostics so static messages match runtime ones.
IR_KIND_CLASSES = {
    "fsm": "FsmSpec",
    "table": "TruthTable",
    "program": "Program",
    "microcode": "AssembledProgram",
    "dispatch": "DispatchTable",
    "sequencer": "SequencerSpec",
}

#: Option value types a schema may declare.  ``float`` accepts ints
#: (kept as ints: ``size{clock_period_ns=20}`` renders back as
#: written); ``bool`` is checked before ``int`` because
#: Python bools *are* ints but ``encode{style=true}`` is still wrong.
OPTION_TYPES = ("int", "float", "str", "bool")


@dataclass(frozen=True)
class Option:
    """One option of a registered pass.

    Args:
        type: one of :data:`OPTION_TYPES`.
        default: the value a pass built without this option runs
            with; a value equal to it is left out of the pass's spec.
        nullable: whether ``none`` is an accepted value.
        min: inclusive lower bound.
        max: inclusive upper bound.
        exclusive_min: exclusive lower bound (``size`` wants a
            strictly positive clock period).
        choices: the closed set of accepted values -- a tuple, or a
            zero-argument callable returning the current set (used by
            ``map`` so the schema tracks library registration).
        help: a one-line description for ``repro.check registry``.
    """

    type: str
    default: object = None
    nullable: bool = False
    min: "int | float | None" = None
    max: "int | float | None" = None
    exclusive_min: "int | float | None" = None
    choices: "tuple | Callable[[], list] | None" = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in OPTION_TYPES:
            raise ValueError(
                f"option type must be one of {OPTION_TYPES}, "
                f"got {self.type!r}"
            )

    def choice_values(self) -> "tuple | None":
        """The current accepted-value set, resolving callables."""
        if self.choices is None:
            return None
        if callable(self.choices):
            return tuple(self.choices())
        return tuple(self.choices)

    def describe(self) -> dict:
        """A JSON-safe form for registry introspection."""
        out: dict = {"type": self.type, "default": self.default}
        if self.nullable:
            out["nullable"] = True
        if self.min is not None:
            out["min"] = self.min
        if self.max is not None:
            out["max"] = self.max
        if self.exclusive_min is not None:
            out["exclusive_min"] = self.exclusive_min
        choices = self.choice_values()
        if choices is not None:
            out["choices"] = list(choices)
        if self.help:
            out["help"] = self.help
        return out


_TYPE_CLASSES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
}


def check_option(option: Option, name: str, value) -> "tuple[str, str] | None":
    """Validate one option value against its schema.

    Returns:
        ``None`` when the value is acceptable, else ``(kind, message)``
        where ``kind`` is ``"type"`` (wrong value type) or ``"range"``
        (right type, out of bounds / not in the choice set).
    """
    if value is None:
        if option.nullable:
            return None
        return ("type", f"option {name} expects {option.type}, got none")
    if isinstance(value, bool) != (option.type == "bool"):
        return (
            "type",
            f"option {name} expects {option.type}, "
            f"got {type(value).__name__} {value!r}",
        )
    if not isinstance(value, _TYPE_CLASSES[option.type]):
        return (
            "type",
            f"option {name} expects {option.type}, "
            f"got {type(value).__name__} {value!r}",
        )
    if option.min is not None and value < option.min:
        return ("range", f"option {name} must be >= {option.min}, got {value}")
    if option.max is not None and value > option.max:
        return ("range", f"option {name} must be <= {option.max}, got {value}")
    if option.exclusive_min is not None and value <= option.exclusive_min:
        return (
            "range",
            f"option {name} must be > {option.exclusive_min}, got {value}",
        )
    choices = option.choice_values()
    if choices is not None and value not in choices:
        return (
            "range",
            f"option {name} must be one of "
            f"{', '.join(repr(c) for c in choices)}; got {value!r}",
        )
    return None


def suggest_name(name: str, candidates) -> "str | None":
    """The closest near-miss to ``name`` among ``candidates``, for
    did-you-mean diagnostics (``None`` when nothing is close)."""
    matches = difflib.get_close_matches(name, list(candidates), n=1)
    return matches[0] if matches else None


@dataclass(frozen=True)
class OptionProblem:
    """One thing wrong with the options a pass is given: ``code`` is
    CHK102 (unknown name), CHK103 (wrong type) or CHK104 (out of
    range, or not one of the choices)."""

    code: str
    message: str
    suggestion: "str | None" = None

    def __str__(self) -> str:
        hint = "" if self.suggestion is None else f" ({self.suggestion})"
        return f"[{self.code}] {self.message}{hint}"


def option_problems(
    pass_name: str, declared: "dict[str, Option]", params: dict
) -> "list[OptionProblem]":
    """Every problem with ``params`` as the options of ``pass_name``,
    whose schema declares ``declared``: unknown names first, then
    values, each in name order.  The spec check reports all of them;
    :func:`resolve_options` raises them."""
    problems: list[OptionProblem] = []
    accepted = (
        f"accepted: {', '.join(sorted(declared))}" if declared
        else "it takes none"
    )
    for key in sorted(set(params) - set(declared)):
        hint = suggest_name(key, declared)
        problems.append(
            OptionProblem(
                "CHK102",
                f"pass {pass_name!r} has no option {key!r}; {accepted}",
                None if hint is None else f"did you mean {hint!r}?",
            )
        )
    for key in sorted(set(params) & set(declared)):
        problem = check_option(declared[key], key, params[key])
        if problem is not None:
            kind, message = problem
            problems.append(
                OptionProblem(
                    "CHK103" if kind == "type" else "CHK104",
                    f"pass {pass_name!r}: {message}",
                )
            )
    return problems


def resolve_options(
    pass_name: str, declared: "dict[str, Option]", params: dict
) -> dict:
    """The options a pass built with ``params`` runs with: every
    declared option, at its default unless given.

    Raises:
        FlowError: tagged with the code of the first of
            :func:`option_problems`, listing all of them.
    """
    problems = option_problems(pass_name, declared, params)
    if problems:
        raise FlowError("; ".join(map(str, problems)))
    return {
        key: params.get(key, option.default)
        for key, option in declared.items()
    }


@dataclass(frozen=True)
class PassSchema:
    """The static contract of one registered pass.

    Args:
        stage: the representation the pass consumes (one of
            :data:`repro.flow.core.STAGES`).
        produces: the representation it leaves the context in;
            ``None`` means the pass stays at ``stage`` (the common
            case -- only lowerings like ``elaborate`` and ``map``
            advance the stage).
        ir_kinds: for ``ctrl``-stage passes, the controller-IR
            ``kind`` tags the pass accepts (``None``: any IR).
        produces_kind: for ``ctrl``-to-``ctrl`` transforms, the IR
            kind left behind (``microcode_pack`` turns a ``program``
            into ``microcode``).
        needs_bindings: the pass requires configuration bindings on
            the context (``pe_bind``).
        options: option name -> :class:`Option`.
    """

    stage: str = "aig"
    produces: "str | None" = None
    ir_kinds: "tuple[str, ...] | None" = None
    produces_kind: "str | None" = None
    needs_bindings: bool = False
    options: "dict[str, Option]" = field(default_factory=dict)

    @property
    def out_stage(self) -> str:
        """The stage the context is at after this pass runs."""
        return self.produces if self.produces is not None else self.stage

    def describe(self) -> dict:
        """A JSON-safe form for registry introspection."""
        out: dict = {"stage": self.stage, "produces": self.out_stage}
        if self.ir_kinds is not None:
            out["ir_kinds"] = list(self.ir_kinds)
        if self.produces_kind is not None:
            out["produces_kind"] = self.produces_kind
        if self.needs_bindings:
            out["needs_bindings"] = True
        out["options"] = {
            name: option.describe()
            for name, option in sorted(self.options.items())
        }
        return out
