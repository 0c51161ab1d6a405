"""Core of the pass pipeline: context, records, passes, registry.

The design state a synthesis run threads from RTL to sized netlist
lives in one :class:`FlowContext`.  A :class:`Pass` is a named,
stage-declared transform over that context; running one through
:meth:`Pass.execute` appends a structured :class:`PassRecord`
(wall-clock time, before/after AIG statistics, and any human-readable
detail lines) to the context, which is what
``CompileResult.log`` renders for backward compatibility.

Passes register themselves under a short name with
:func:`register_pass`, which is what makes string pipeline specs like
``"seq_sweep,balance,rewrite[2]"`` parseable (see
:mod:`repro.flow.manager`).
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

# FlowError and suggest_name live with the option resolver that uses
# them; they are re-exported here, where the rest of the flow looks.
from repro.flow.schema import (
    FlowError,
    PassSchema,
    check_option,
    resolve_options,
    suggest_name,
)

if TYPE_CHECKING:
    from repro.aig.graph import AIG
    from repro.rtl.module import Module
    from repro.synth.dc_options import StateAnnotation
    from repro.synth.elaborate import Elaboration
    from repro.synth.stateprop import FoldStats
    from repro.tech.netlist import AreaReport, MappedNetlist
    from repro.tech.sizing import SizingResult
    from repro.tech.sta import TimingReport

#: Elaborating deep RTL expressions recurses; keep plenty of headroom.
RECURSION_HEADROOM = 100_000

#: The representations a pass may declare it operates on.  ``ctrl`` is
#: the frontend stage: the context holds a controller intermediate
#: representation (FSM spec, microprogram, truth table, ...) that has
#: not been lowered to RTL yet.
STAGES = ("ctrl", "rtl", "aig", "netlist")

#: What a pass of each stage needs of the context: the runtime stage
#: error says it, and the spec checker's CHK105 repeats it verbatim.
STAGE_REQUIREMENTS = {
    "ctrl": "needs a controller IR not yet lowered to RTL",
    "rtl": "needs an un-elaborated RTL module",
    "aig": "needs an elaborated AIG",
    "netlist": "needs a mapped netlist",
}


def is_controller_ir(value) -> bool:
    """Does ``value`` implement the :class:`ControllerIR` protocol?"""
    return hasattr(value, "ir_hash") and hasattr(value, "ir_stats")


class ControllerIR:
    """The structural protocol of a controller intermediate
    representation (duck-typed -- IR classes do not inherit from this).

    A controller IR is what a chip generator emits *before* RTL: an
    :class:`~repro.controllers.fsm.FsmSpec`, a symbolic or assembled
    microprogram, a dispatch table, a sequencer spec, or a truth
    table.  To participate in the flow's ``ctrl`` stage an IR class
    implements two methods (and nothing else -- the IR layer stays
    free of any dependency on the pass framework):

    * ``ir_hash() -> str``: a stable content hash covering everything
      a lowering's output can depend on; the compile cache keys warm
      runs on it, so two IRs with equal hashes must lower to
      equal hardware.
    * ``ir_stats() -> dict``: cheap summary statistics with the keys
      ``kind`` (a short IR-type tag), ``items`` (states /
      instructions / rows), and ``bits`` (the IR's characteristic
      word width) -- the frontend analogue of :class:`AigStats`,
      recorded on ``ctrl``-stage :class:`PassRecord` entries.
    """


@dataclass(frozen=True)
class CtrlStats:
    """A cheap snapshot of a controller IR (the frontend counterpart
    of :class:`AigStats`): what kind of IR the context holds, how many
    items it has (states, instructions, table rows), and its
    characteristic bit width."""

    kind: str
    items: int
    bits: int

    @classmethod
    def of(cls, ir) -> "CtrlStats | None":
        if ir is None or not is_controller_ir(ir):
            return None
        stats = ir.ir_stats()
        return cls(
            kind=str(stats["kind"]),
            items=int(stats["items"]),
            bits=int(stats["bits"]),
        )

    def to_json(self) -> dict:
        """A plain-JSON form (see :meth:`from_json` for the inverse)."""
        return {"kind": self.kind, "items": self.items, "bits": self.bits}

    @classmethod
    def from_json(cls, data: "dict | None") -> "CtrlStats | None":
        """Rebuild from :meth:`to_json` output (``None`` passes
        through, mirroring the optional slots of a record)."""
        if data is None:
            return None
        return cls(
            kind=str(data["kind"]),
            items=int(data["items"]),
            bits=int(data["bits"]),
        )


@dataclass(frozen=True)
class AigStats:
    """A cheap structural snapshot of the AIG for instrumentation."""

    num_ands: int
    num_latches: int

    @classmethod
    def of(cls, aig: "AIG | None") -> "AigStats | None":
        if aig is None:
            return None
        return cls(num_ands=aig.num_ands, num_latches=len(aig.latches))

    def to_json(self) -> dict:
        """A plain-JSON form (see :meth:`from_json` for the inverse)."""
        return {"num_ands": self.num_ands, "num_latches": self.num_latches}

    @classmethod
    def from_json(cls, data: "dict | None") -> "AigStats | None":
        """Rebuild from :meth:`to_json` output (``None`` passes through,
        mirroring the optional before/after slots of a record)."""
        if data is None:
            return None
        return cls(
            num_ands=int(data["num_ands"]),
            num_latches=int(data["num_latches"]),
        )


@dataclass(frozen=True)
class PassRecord:
    """What one pass execution did: the structured successor of the
    old free-form ``log: list[str]``."""

    name: str
    stage: str
    wall_time_s: float
    before: AigStats | None
    after: AigStats | None
    messages: tuple[str, ...] = ()
    skipped: bool = False
    #: True when a fixed-point combinator rolled this round back: the
    #: stats describe work that never reached the final design (the
    #: legacy log line is still emitted, matching the seed flow).
    rejected: bool = False
    #: True when ``run()`` raised: the record preserves whatever notes
    #: the pass emitted before dying, so error reports (and parallel
    #: job failures) keep their log context.
    failed: bool = False
    #: Frontend statistics, recorded by ``ctrl``-stage passes only:
    #: the controller-IR snapshots beside the AIG ones, so lowering
    #: passes are instrumented the same way synthesis passes are.
    ctrl_before: CtrlStats | None = None
    ctrl_after: CtrlStats | None = None

    @property
    def delta_ands(self) -> int | None:
        """AND-node change (negative means the pass shrank the AIG)."""
        if self.before is None or self.after is None:
            return None
        return self.after.num_ands - self.before.num_ands

    def to_json(self) -> dict:
        """A plain-JSON form of the record.

        Every field round-trips (including the ``skipped`` /
        ``rejected`` / ``failed`` flags); :meth:`from_json` is the
        exact inverse.
        """
        return {
            "name": self.name,
            "stage": self.stage,
            "wall_time_s": self.wall_time_s,
            "before": None if self.before is None else self.before.to_json(),
            "after": None if self.after is None else self.after.to_json(),
            "messages": list(self.messages),
            "skipped": self.skipped,
            "rejected": self.rejected,
            "failed": self.failed,
            "ctrl_before": (
                None if self.ctrl_before is None else self.ctrl_before.to_json()
            ),
            "ctrl_after": (
                None if self.ctrl_after is None else self.ctrl_after.to_json()
            ),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PassRecord":
        """Rebuild a record from :meth:`to_json` output (records
        written before the ``ctrl`` stage existed load with empty
        frontend slots)."""
        return cls(
            name=data["name"],
            stage=data["stage"],
            wall_time_s=float(data["wall_time_s"]),
            before=AigStats.from_json(data["before"]),
            after=AigStats.from_json(data["after"]),
            messages=tuple(data["messages"]),
            skipped=bool(data["skipped"]),
            rejected=bool(data["rejected"]),
            failed=bool(data["failed"]),
            ctrl_before=CtrlStats.from_json(data.get("ctrl_before")),
            ctrl_after=CtrlStats.from_json(data.get("ctrl_after")),
        )


def render_log(records: list["PassRecord"]) -> list[str]:
    """Flatten pass records back into the legacy log-line format."""
    return [message for record in records for message in record.messages]


@dataclass
class FlowContext:
    """The design state threaded through a pipeline.

    A context starts from a controller IR (``ctrl``), RTL
    (``module``), an elaborated ``aig``, or a combination; passes move
    the design forward and deposit their results (netlist, reports,
    fold statistics) and instrumentation (``records``) here.
    """

    module: "Module | None" = None
    aig: "AIG | None" = None
    netlist: "MappedNetlist | None" = None
    annotations: list["StateAnnotation"] = field(default_factory=list)
    elaboration: "Elaboration | None" = None
    inferred_fsms: list = field(default_factory=list)
    fold_stats: "FoldStats | None" = None
    sizing: "SizingResult | None" = None
    timing: "TimingReport | None" = None
    area: "AreaReport | None" = None
    records: list[PassRecord] = field(default_factory=list)
    #: Set by passes that made structural progress this round; reset
    #: and read by the fixed-point combinators.
    progress: bool = False
    #: The controller IR (:class:`ControllerIR` protocol) a frontend
    #: pipeline starts from; ``ctrl``-stage passes transform or lower
    #: it.  Left in place after lowering for provenance.
    ctrl: object | None = None
    #: Configuration-memory contents for :class:`PeBindPass`
    #: (``{memory name: row words}``) -- design state like
    #: ``annotations``, seeded at compile time, fingerprinted by the
    #: cache.
    bindings: "dict[str, list[int]] | None" = None
    #: Free-form JSON-safe provenance recorded by the executors (where
    #: a resumed compile restarted, how many passes it skipped).  Never
    #: part of the fingerprint: two byte-identical results may
    #: legitimately differ here.
    meta: dict = field(default_factory=dict)

    def mark_progress(self) -> None:
        self.progress = True

    def aig_stats(self) -> AigStats | None:
        return AigStats.of(self.aig)

    def ctrl_stats(self) -> CtrlStats | None:
        return CtrlStats.of(self.ctrl)

    def emit(
        self,
        name: str,
        *messages: str,
        stage: str = "aig",
        wall_time_s: float = 0.0,
        before: AigStats | None = None,
    ) -> PassRecord:
        """Append an inline record (used by combinators for per-round
        lines so the legacy log order is preserved exactly)."""
        record = PassRecord(
            name=name,
            stage=stage,
            wall_time_s=wall_time_s,
            before=before,
            after=self.aig_stats(),
            messages=messages,
        )
        self.records.append(record)
        return record

    @property
    def log(self) -> list[str]:
        """The legacy free-form log, rendered from the records."""
        return render_log(self.records)


class Pass:
    """One named transform over a :class:`FlowContext`.

    A pass has a ``stage`` -- the representation it consumes
    (``"ctrl"`` passes transform or lower a controller IR before any
    RTL exists, ``"rtl"`` passes run before elaboration, ``"aig"``
    passes need an elaborated graph, ``"netlist"`` passes need a
    mapped netlist); a registered pass declares it in its
    :class:`PassSchema`, and :func:`register_pass` sets the attribute.
    Subclasses implement :meth:`run`.  Detail lines for the legacy log
    are reported through :meth:`note`.

    A registered pass takes the options its :class:`PassSchema`
    declares, by keyword, and reads them from :attr:`options`; the
    schema alone decides which names, types, bounds and defaults are
    valid (:func:`~repro.flow.schema.resolve_options`).
    """

    name: str = "pass"
    stage: str = "aig"
    #: The pass's static contract; :func:`register_pass` sets it.
    schema: "PassSchema | None" = None

    def __init__(self, **options) -> None:
        self._notes: list[str] = []
        declared = {} if self.schema is None else self.schema.options
        #: Every option the schema declares, at its default unless
        #: given: checked, so ``run`` can trust it.
        self.options = resolve_options(self.name, declared, options)

    # -- the transform ------------------------------------------------
    def run(self, ctx: FlowContext) -> None:
        raise NotImplementedError

    def note(self, message: str) -> None:
        """Attach a legacy-format log line to this execution's record."""
        self._notes.append(message)

    # -- applicability ------------------------------------------------
    def ready(self, ctx: FlowContext) -> bool:
        """Is the context in the representation this pass consumes?"""
        if self.stage == "ctrl":
            return (
                ctx.ctrl is not None
                and ctx.module is None
                and ctx.aig is None
            )
        if self.stage == "rtl":
            return ctx.module is not None and ctx.aig is None
        if self.stage == "aig":
            return ctx.aig is not None
        return ctx.netlist is not None

    def applies(self, ctx: FlowContext) -> bool:
        """Would running this pass do anything useful?  Conditional
        pipeline entries (``name?``) are skipped when this is False."""
        return True

    # -- execution ----------------------------------------------------
    def execute(self, ctx: FlowContext) -> PassRecord:
        """Stage-check, run, and record this pass on ``ctx``."""
        if not self.ready(ctx):
            raise FlowError(
                f"pass {self.name!r} (stage {self.stage}) cannot run here: "
                f"{STAGE_REQUIREMENTS[self.stage]}"
            )
        before = ctx.aig_stats()
        # Frontend stats only on ctrl-stage passes: downstream records
        # keep their exact legacy shape.
        ctrl_before = ctx.ctrl_stats() if self.stage == "ctrl" else None
        self._notes = []
        start = time.perf_counter()
        try:
            self.run(ctx)
        except Exception:
            # Record the failed execution anyway: the notes emitted up
            # to the failure are exactly the log context an error
            # report needs, and dropping them here would also leak
            # stale notes into the next execution.
            ctx.records.append(
                PassRecord(
                    name=self.name,
                    stage=self.stage,
                    wall_time_s=time.perf_counter() - start,
                    before=before,
                    after=ctx.aig_stats(),
                    messages=tuple(self._notes),
                    failed=True,
                    ctrl_before=ctrl_before,
                    ctrl_after=(
                        ctx.ctrl_stats() if self.stage == "ctrl" else None
                    ),
                )
            )
            raise
        finally:
            notes = tuple(self._notes)
            self._notes = []
        record = PassRecord(
            name=self.name,
            stage=self.stage,
            wall_time_s=time.perf_counter() - start,
            before=before,
            after=ctx.aig_stats(),
            messages=notes,
            ctrl_before=ctrl_before,
            ctrl_after=ctx.ctrl_stats() if self.stage == "ctrl" else None,
        )
        ctx.records.append(record)
        return record

    def params(self) -> dict:
        """The options that differ from their schema default, for spec
        rendering and fingerprinting.  A pass overriding this must
        return only spec-representable values (numbers, strings,
        bools, None)."""
        return {
            key: value
            for key, value in self.options.items()
            if value != self.schema.options[key].default
        }

    def spec(self) -> str:
        """The pipeline-spec syntax that reconstructs this pass,
        including non-default parameters (``encode{style=gray}``).

        ``spec()`` doubles as the compile-cache fingerprint, so an
        anonymous pass (one that never set ``name``) has no spec form:
        two distinct anonymous passes would otherwise fingerprint --
        and cache -- identically.
        """
        if self.name == Pass.name:
            raise FlowError(
                f"{type(self).__name__} has no spec form: set a "
                f"distinct `name` (or register it) so pipelines "
                f"containing it render and fingerprint unambiguously"
            )
        params = self.params()
        if not params:
            return self.name
        body = ",".join(
            f"{key}={render_spec_value(value)}"
            for key, value in sorted(params.items())
        )
        return f"{self.name}{{{body}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            return f"<{type(self).__name__} {self.spec()!r}>"
        except FlowError:
            return f"<{type(self).__name__} (no spec form)>"


#: Global registry: spec name -> zero-argument pass factory.
PASS_REGISTRY: dict[str, Callable[[], Pass]] = {}

#: Spec name -> :class:`PassSchema` (the registered class's
#: ``schema``), populated alongside the registry.  Passes registered
#: without an explicit schema get a stage-only default, and any
#: keyword argument is then their constructor's question.
PASS_SCHEMAS: dict[str, PassSchema] = {}


def register_pass(name: str, schema: "PassSchema | None" = None):
    """Class decorator adding a pass to the global registry and giving
    it its schema.

    The registered class must be constructible with no arguments: its
    schema's defaults are what a string pipeline spec gets.
    Re-registering a name is a hard error -- silent shadowing would
    make specs ambiguous -- and so is a schema whose default fails its
    own option.

    Args:
        name: the spec name the pass registers under.
        schema: the pass's static contract (stages, IR kinds,
            options); the class's ``stage`` is set from it.  Defaults
            to a bare stage-only schema derived from the class's own
            ``stage`` attribute.
    """

    def decorate(cls):
        if name in PASS_REGISTRY:
            raise FlowError(
                f"pass name {name!r} already registered by "
                f"{PASS_REGISTRY[name].__qualname__}"
            )
        resolved = schema if schema is not None else PassSchema(stage=cls.stage)
        for key, option in resolved.options.items():
            problem = check_option(option, key, option.default)
            if problem is not None:
                raise FlowError(f"pass {name!r}: default {problem[1]}")
        cls.name = name
        cls.stage = resolved.stage
        cls.schema = resolved
        PASS_REGISTRY[name] = cls
        PASS_SCHEMAS[name] = resolved
        return cls

    return decorate


def registered_pass_names() -> list[str]:
    return sorted(PASS_REGISTRY)


def registry_snapshot(*registries: dict) -> "tuple[tuple, tuple]":
    """The names and the objects ``registries`` bind, in order.  A
    snapshot holds the objects themselves, so their ids cannot be
    reused while it lives, and :func:`same_registry` can compare two
    snapshots by identity."""
    names: tuple = ()
    objects: tuple = ()
    for registry in registries:
        names += tuple(registry)
        objects += tuple(registry.values())
    return names, objects


def same_registry(old: tuple, new: tuple) -> bool:
    """Do two :func:`registry_snapshot` results bind the same objects
    under the same names?"""
    return old[0] == new[0] and all(map(operator.is_, old[1], new[1]))


def describe_registry() -> "dict[str, dict]":
    """Every registered pass with its stage and option schema, as
    JSON-safe dicts -- the single source ``repro.check registry`` and
    the docs render from, so neither drifts from the code."""
    out: dict[str, dict] = {}
    for name in registered_pass_names():
        doc = (PASS_REGISTRY[name].__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        out[name] = {"summary": summary, **PASS_SCHEMAS[name].describe()}
    return out


def make_pass(name: str, /, **params) -> Pass:
    """Instantiate a registered pass, with optional options (from a
    spec's ``{key=value,...}`` block).  The registry name is
    positional-only so a pass may itself take a ``name`` option
    (``table_rom{name=tbl_x}``).

    Errors carry ``repro.check`` diagnostic codes: ``CHK101`` unknown
    pass; ``CHK102``, ``CHK103`` or ``CHK104`` from the pass's schema
    (:func:`~repro.flow.schema.resolve_options`); ``CHK104`` for
    anything else the constructor rejects (``fsm_encode``'s
    case-versus-flexible check, say).
    """
    try:
        factory = PASS_REGISTRY[name]
    except KeyError:
        hint = suggest_name(name, PASS_REGISTRY)
        did_you_mean = "" if hint is None else f"did you mean {hint!r}? "
        raise FlowError(
            f"[CHK101] unknown pass {name!r}; {did_you_mean}"
            f"registered passes: {', '.join(registered_pass_names())}"
        ) from None
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise FlowError(
            f"[CHK104] pass {name!r} rejected options {sorted(params)}: {exc}"
        ) from None


#: Characters a bare (unquoted) string value may not contain: spec
#: structure (item/option separators, braces, repeat/conditional
#: markers) and the quoting machinery itself.
_SPEC_UNSAFE_CHARS = frozenset(",{}[]=?'\"\\")


def render_spec_value(value) -> str:
    """Render a parameter value in spec syntax: the exact inverse of
    :func:`parse_spec_value`.

    Strings that would not read back verbatim -- because they contain
    spec structure characters (``,``, ``{``, ``}``, ``=``, ...), hold
    whitespace, or would re-parse as a different type (``"none"``,
    ``"true"``, ``"42"``, ``"nan"``) -- are emitted in single quotes
    with backslash escapes.  Values with no faithful spec form
    (non-finite floats, arbitrary objects) raise :class:`FlowError`
    instead of silently producing an ambiguous spec: ``Pass.spec()``
    is a cache fingerprint, so it must never lie.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise FlowError(
                f"non-finite float {value!r} is not spec-representable "
                f"(it would read back as a quoted string)"
            )
        return repr(value)
    if isinstance(value, str):
        if _renders_bare(value):
            return value
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    raise FlowError(
        f"{type(value).__name__} value {value!r} is not spec-representable"
    )


def _renders_bare(value: str) -> bool:
    """Would this string survive a bare (unquoted) round-trip?"""
    if not value:
        return False
    if any(ch in _SPEC_UNSAFE_CHARS or ch.isspace() for ch in value):
        return False
    parsed = parse_spec_value(value)
    return type(parsed) is str and parsed == value


def parse_spec_value(text: str):
    """Parse a spec option value: a ``'...'``-quoted string (escapes:
    ``\\'`` and ``\\\\``), none/true/false, int, float, or a bare
    string."""
    if text.startswith("'"):
        return _parse_quoted(text)
    lowered = text.lower()
    if lowered == "none":
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_quoted(text: str):
    """Decode a single-quoted spec value (must span the whole text)."""
    out: list[str] = []
    escaped = False
    for index in range(1, len(text)):
        char = text[index]
        if escaped:
            out.append(char)
            escaped = False
            continue
        if char == "\\":
            escaped = True
            continue
        if char == "'":
            if index != len(text) - 1:
                raise FlowError(
                    f"malformed quoted value {text!r}: content after "
                    f"the closing quote"
                )
            return "".join(out)
        out.append(char)
    raise FlowError(f"unterminated quoted value {text!r}")


def ensure_recursion_headroom() -> None:
    """Deep RTL expression trees recurse during elaboration."""
    if sys.getrecursionlimit() < RECURSION_HEADROOM:
        sys.setrecursionlimit(RECURSION_HEADROOM)
