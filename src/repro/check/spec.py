"""The spec typechecker: validate a pipeline spec without executing.

A pipeline spec is a little program over the pass registry; this
module is its typechecker.  Given a spec string (or an already-built
:class:`~repro.flow.manager.PassManager`) and optionally what the
pipeline will be fed (input stage, controller-IR kind, bindings), it
simulates the stage machine ``ctrl -> rtl -> aig -> netlist`` against
the registered :class:`~repro.flow.schema.PassSchema` contracts and
reports every problem as a :class:`~repro.check.diagnostics.Diagnostic`
-- unknown passes and options (with near-miss suggestions), option
type/range violations, stage-ordering errors, IR-kind mismatches, and
missing bindings.

``PassManager.compile`` and the compile server's ``POST /compile``
handler run this checker up front, so a statically-invalid pipeline is
rejected with structured diagnostics instead of burning a worker; the
error messages deliberately embed the exact phrases the runtime stage
check would have raised (``needs an elaborated AIG``, ...), so nothing
downstream has to care *when* the problem was caught.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.diagnostics import Diagnostic
from repro.flow.combinators import Conditional, Repeat
from repro.flow.core import (
    PASS_REGISTRY,
    PASS_SCHEMAS,
    STAGE_REQUIREMENTS,
    STAGES,
    FlowError,
    is_controller_ir,
    make_pass,
    registered_pass_names,
    suggest_name,
)
from repro.flow.manager import (
    _parse_item,
    _parse_options,
    _split_items,
    remember_analysis,
)
from repro.flow.schema import IR_KIND_CLASSES, PassSchema, option_problems

_STAGE_ORDER = {stage: index for index, stage in enumerate(STAGES)}

#: How to advance one stage, for CHK105 suggestions.
_LOWERING_HINTS = {
    ("ctrl", "rtl"): (
        "insert a lowering pass (fsm_encode, table_rom, table_minimize, "
        "or dispatch_rom) before this item"
    ),
    ("rtl", "aig"): "insert 'elaborate' before this item",
    ("aig", "netlist"): "insert 'map' before this item",
}


@dataclass(frozen=True)
class _Item:
    """One pipeline entry, normalized for simulation."""

    location: str
    name: str
    params: "dict | None"  # None: options did not parse / not rendered
    times: "int | None"
    conditional: bool
    instantiate: bool  # try the constructor for cross-option checks


def _split_code(message: str) -> "tuple[str, str]":
    """A registry error message's leading ``[CHKxxx] `` tag and the
    rest (an untagged message is a CHK104: a value the constructor
    rejected)."""
    if message.startswith("[CHK") and "] " in message:
        tag, rest = message.split("] ", 1)
        return tag[1:], rest
    return "CHK104", message


def input_stage_of(*, ctrl=None, module=None, aig=None):
    """The stage a compile with these inputs starts at, plus the
    controller-IR kind when at the ``ctrl`` stage.

    Mirrors :meth:`repro.flow.core.Pass.ready`: a controller IR only
    counts while no lowered representation exists, RTL only before
    elaboration.  All-``None`` inputs return ``(None, None)`` --
    statically unknown, so the checker only validates the pipeline's
    internal consistency.
    """
    if aig is not None:
        return "aig", None
    if module is not None:
        return "rtl", None
    if ctrl is not None:
        kind = None
        if is_controller_ir(ctrl):
            try:
                kind = str(ctrl.ir_stats()["kind"])
            except Exception:
                kind = None
        return "ctrl", kind
    return None, None


def check_spec(
    spec: str,
    *,
    input_stage: "str | None" = None,
    ir_kind: "str | None" = None,
    has_bindings: "bool | None" = None,
) -> "list[Diagnostic]":
    """Typecheck a pipeline spec string.

    Args:
        spec: the comma-separated pipeline spec.
        input_stage: the stage the design enters at (one of
            :data:`~repro.flow.core.STAGES`), or ``None`` when unknown
            -- the first pass's stage then seeds the simulation, so
            only internal ordering is checked.
        ir_kind: the controller-IR ``kind`` tag of the input, when
            ``input_stage`` is ``"ctrl"`` and it is known.
        has_bindings: whether the compile will carry configuration
            bindings; ``None`` skips the CHK107 check.

    Returns:
        Every finding, in spec order (parse problems first for an
        unsplittable spec).
    """
    items, diagnostics = _parse_spec(spec)
    diagnostics.extend(
        _simulate(
            items,
            input_stage=input_stage,
            ir_kind=ir_kind,
            has_bindings=has_bindings,
        )
    )
    return diagnostics


def check_manager(
    manager,
    *,
    input_stage: "str | None" = None,
    ir_kind: "str | None" = None,
    has_bindings: "bool | None" = None,
) -> "list[Diagnostic]":
    """Typecheck an already-built :class:`PassManager`.

    The constructors have run, and every registered pass checks its
    options against its schema when it is built, so options are
    already valid; this checks stage ordering, IR kinds, and bindings.
    The walk stops at the first pass whose name is not in the registry
    (hand-built or test-local passes carry no schema, and guessing
    their stage contract would produce false positives).
    """
    items: list[_Item] = []
    for position, entry in enumerate(manager, start=1):
        conditional = isinstance(entry, Conditional)
        inner = entry.inner if conditional else entry
        if isinstance(inner, Repeat):
            inner = inner.inner
        name = getattr(inner, "name", None)
        if name not in PASS_REGISTRY:
            break
        items.append(
            _Item(
                location=f"pass {position} ({name})",
                name=name,
                params=None,
                times=None,
                conditional=conditional,
                instantiate=False,
            )
        )
    return _simulate(
        items,
        input_stage=input_stage,
        ir_kind=ir_kind,
        has_bindings=has_bindings,
    )


def check_spec_once(
    spec: str,
    *,
    input_stage: "str | None" = None,
    ir_kind: "str | None" = None,
    has_bindings: "bool | None" = None,
) -> "list[Diagnostic]":
    """:func:`check_spec`, computed once per process for each spec and
    argument set.

    The result is kept in the spec analysis memo
    (:func:`~repro.flow.manager.remember_analysis`), which forgets it
    when a pass, schema or library factory is registered, removed or
    swapped, and which is bounded.  A compile server checks the same
    few specs over and over, and checking one builds every pass.
    """
    found = remember_analysis(
        ("check", spec, input_stage, ir_kind, has_bindings),
        lambda: tuple(
            check_spec(
                spec,
                input_stage=input_stage,
                ir_kind=ir_kind,
                has_bindings=has_bindings,
            )
        ),
    )
    return list(found)


def check_job(job) -> "list[Diagnostic]":
    """Typecheck one :class:`~repro.flow.parallel.CompileJob` -- the
    compile server's admission check.  The job's inputs determine the
    entry stage; its spec is checked once per process for each entry
    stage, IR kind and bindings flag it arrives with
    (:func:`check_spec_once`)."""
    input_stage, ir_kind = input_stage_of(ctrl=job.ctrl, module=job.module)
    return check_spec_once(
        job.pipeline,
        input_stage=input_stage,
        ir_kind=ir_kind,
        has_bindings=job.bindings is not None,
    )


def _parse_spec(spec: str) -> "tuple[list[_Item], list[Diagnostic]]":
    """Split a spec into normalized items, reporting parse problems as
    CHK100 diagnostics (an unparseable item is dropped; the rest of
    the spec still simulates)."""
    diagnostics: list[Diagnostic] = []
    try:
        raw_items = _split_items(spec)
    except FlowError as exc:
        return [], [
            Diagnostic(
                code="CHK100",
                severity="error",
                location=f"pipeline spec {spec!r}",
                message=str(exc),
            )
        ]
    items: list[_Item] = []
    for position, item in enumerate(raw_items, start=1):
        location = f"item {position} ({item!r})"
        try:
            name, opts, times, cond = _parse_item(item)
            params = _parse_options(opts, item)
        except FlowError as exc:
            diagnostics.append(
                Diagnostic(
                    code="CHK100",
                    severity="error",
                    location=location,
                    message=str(exc),
                )
            )
            continue
        if times is not None and times < 1:
            diagnostics.append(
                Diagnostic(
                    code="CHK100",
                    severity="error",
                    location=location,
                    message=f"repeat count must be >= 1 in {item!r}",
                )
            )
            times = None
        items.append(
            _Item(
                location=location,
                name=name,
                params=params,
                times=times,
                conditional=cond,
                instantiate=True,
            )
        )
    return items, diagnostics


def _check_options(item: _Item, schema: PassSchema) -> "list[Diagnostic]":
    """Option-level checks for one item: every problem the schema's
    resolver finds (:func:`~repro.flow.schema.option_problems`:
    CHK102 unknown names, CHK103 wrong types, CHK104 out-of-range or
    off-choice values), else what building the pass raises."""
    params = item.params or {}
    if schema.options:
        diagnostics = [
            Diagnostic(
                code=problem.code,
                severity="error",
                location=item.location,
                message=problem.message,
                suggestion=problem.suggestion,
            )
            for problem in option_problems(item.name, schema.options, params)
        ]
        if diagnostics:
            return diagnostics
    if not item.instantiate:
        return []
    # The schema has no complaint (or declares no options, leaving
    # them to the constructor): building the pass is the authority on
    # cross-option constraints ("a case-statement FSM cannot be
    # flexible") and on options of passes registered without them.
    try:
        make_pass(item.name, **params)
    except FlowError as exc:
        code, message = _split_code(str(exc))
        return [
            Diagnostic(
                code=code,
                severity="error",
                location=item.location,
                message=message,
            )
        ]
    return []


def _simulate(
    items: "list[_Item]",
    *,
    input_stage: "str | None",
    ir_kind: "str | None",
    has_bindings: "bool | None",
) -> "list[Diagnostic]":
    """Walk the stage machine over normalized items."""
    diagnostics: list[Diagnostic] = []
    current = input_stage
    kind = ir_kind if input_stage == "ctrl" else None
    for item in items:
        if item.name not in PASS_REGISTRY:
            hint = suggest_name(item.name, PASS_REGISTRY)
            diagnostics.append(
                Diagnostic(
                    code="CHK101",
                    severity="error",
                    location=item.location,
                    message=(
                        f"unknown pass {item.name!r}; registered passes: "
                        f"{', '.join(registered_pass_names())}"
                    ),
                    suggestion=None if hint is None
                    else f"did you mean {hint!r}?",
                )
            )
            continue  # an unknown pass cannot move the stage
        schema = PASS_SCHEMAS[item.name]
        diagnostics.extend(_check_options(item, schema))
        stage = schema.stage
        if current is None:
            # Unknown entry point: the first concrete pass seeds the
            # simulation, and only internal ordering is checked.
            current = stage
        if stage != current:
            if item.conditional:
                continue  # `name?` skips instead of erroring
            hint = _LOWERING_HINTS.get((current, stage))
            if hint is None and _STAGE_ORDER[stage] < _STAGE_ORDER[current]:
                hint = "move this pass earlier in the pipeline"
            diagnostics.append(
                Diagnostic(
                    code="CHK105",
                    severity="error",
                    location=item.location,
                    message=(
                        f"pass {item.name!r} (stage {stage}) "
                        f"{STAGE_REQUIREMENTS[stage]}, but the design here "
                        f"is at the {current} stage"
                    ),
                    suggestion=hint,
                )
            )
            # Assume the pass somehow ran, to limit cascades: one
            # misplaced 'elaborate' should not flag the whole tail.
            current = schema.out_stage
            kind = None
            continue
        if stage == "ctrl":
            if (
                kind is not None
                and schema.ir_kinds is not None
                and kind not in schema.ir_kinds
            ):
                wanted = " or ".join(
                    f"a {IR_KIND_CLASSES.get(k, k)}" for k in schema.ir_kinds
                )
                diagnostics.append(
                    Diagnostic(
                        code="CHK106",
                        severity="error",
                        location=item.location,
                        message=(
                            f"pass {item.name!r} needs {wanted} controller "
                            f"IR (kind "
                            f"{' or '.join(repr(k) for k in schema.ir_kinds)}"
                            f"), but the input IR kind is {kind!r}"
                        ),
                    )
                )
            if schema.produces_kind is not None:
                kind = schema.produces_kind
        if (
            item.times is not None
            and item.times > 1
            and schema.out_stage != stage
        ):
            # Repeating a lowering: iteration 2 finds its input gone.
            diagnostics.append(
                Diagnostic(
                    code="CHK105",
                    severity="error",
                    location=item.location,
                    message=(
                        f"pass {item.name!r} (stage {stage}) "
                        f"{STAGE_REQUIREMENTS[stage]}, but repeating it "
                        f"{item.times} times leaves the design at the "
                        f"{schema.out_stage} stage after the first run"
                    ),
                    suggestion="drop the repeat count",
                )
            )
        if schema.needs_bindings and has_bindings is False:
            diagnostics.append(
                Diagnostic(
                    code="CHK107",
                    severity="error",
                    location=item.location,
                    message=(
                        f"pass {item.name!r} needs configuration bindings "
                        f"on the context (compile(bindings=...) or "
                        f"CompileJob.bindings), and this compile has none"
                    ),
                )
            )
        current = schema.out_stage
        if current != "ctrl":
            kind = None
    return diagnostics
