"""The pass manager: an ordered pipeline of passes over one context.

A :class:`PassManager` can be built three ways:

* directly from pass objects -- ``PassManager([ElaboratePass(), ...])``;
* from a string spec over the global registry --
  ``PassManager.parse("seq_sweep,tt_sweep,balance,rewrite[2],retime?")``
  where ``name{key=value,...}`` sets constructor parameters
  (``encode{style=gray}``), ``name[k]`` repeats a pass ``k`` times,
  and ``name?`` makes it conditional (skipped instead of erroring
  when not applicable); string values containing spec structure are
  single-quoted with backslash escapes (``tag='a,b'``);
* by the synthesis facade, which assembles the default pipeline from
  :class:`repro.synth.dc_options.CompileOptions`.

``spec()`` renders a manager back to the string form; for pipelines
built purely from registered passes the two round-trip.

What a spec string alone determines -- its canonical rendering, its
prefix specs and its spec-check diagnostics -- is computed once per
distinct spec per process, in one bounded memo
(:func:`prefix_specs_of`, :func:`remember_analysis`).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from repro.flow.combinators import Conditional, Repeat
from repro.flow.core import (
    PASS_REGISTRY,
    PASS_SCHEMAS,
    FlowContext,
    FlowError,
    Pass,
    ensure_recursion_headroom,
    make_pass,
    parse_spec_value,
    registry_snapshot,
    same_registry,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TIMES_RE = re.compile(r"\[(\d+)\]")

#: Bound of the spec-analysis memo: how many analyses (one per distinct
#: spec string, plus one per distinct spec-check argument set) a
#: process keeps, least recently used out first.  A constant, so a
#: client sending endless distinct specs cannot grow a server.
MAX_SPEC_ANALYSES = 128

_T = TypeVar("_T")


def _split_top_level(
    text: str, source: str, *, track_braces: bool
) -> list[str]:
    """Split on top-level commas, honouring single-quoted values (and,
    optionally, ``{...}`` nesting).  Unbalanced braces and unterminated
    quotes are hard errors -- silently clamping them would mis-split
    items instead of reporting the malformed spec."""
    items: list[str] = []
    current: list[str] = []
    depth = 0
    in_quote = False
    escaped = False
    for char in text:
        if in_quote:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == "'":
                in_quote = False
            continue
        if char == "'":
            in_quote = True
            current.append(char)
            continue
        if char == "," and depth == 0:
            items.append("".join(current))
            current = []
            continue
        if track_braces and char == "{":
            depth += 1
        elif track_braces and char == "}":
            if depth == 0:
                raise FlowError(f"unbalanced '}}' in pipeline spec {source!r}")
            depth -= 1
        current.append(char)
    if in_quote:
        raise FlowError(f"unterminated quote in pipeline spec {source!r}")
    if depth:
        raise FlowError(f"unbalanced '{{' in pipeline spec {source!r}")
    items.append("".join(current))
    return items


def _split_items(spec: str) -> list[str]:
    """Split a spec on top-level commas (commas inside ``{...}``
    option blocks and quoted values belong to the item)."""
    stripped = [
        item.strip()
        for item in _split_top_level(spec, spec, track_braces=True)
    ]
    for position, item in enumerate(stripped, start=1):
        if not item:
            raise FlowError(
                f"empty pass name at item {position} of pipeline spec "
                f"{spec!r}"
            )
    return stripped


def _option_block_end(text: str, item: str) -> int:
    """Index of the ``}`` closing the option block ``text`` starts
    with, honouring nesting and quoted values."""
    depth = 0
    in_quote = False
    escaped = False
    for index, char in enumerate(text):
        if in_quote:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == "'":
                in_quote = False
            continue
        if char == "'":
            in_quote = True
        elif char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return index
    raise FlowError(f"unbalanced '{{' in spec item {item!r}")


def _parse_item(item: str) -> tuple[str, str | None, int | None, bool]:
    """Decompose one spec item into (name, options, times, cond)."""
    syntax_hint = (
        f"cannot parse pipeline spec item {item!r} "
        f"(expected NAME, NAME{{k=v}}, NAME[count], or NAME?)"
    )
    match = _NAME_RE.match(item)
    if match is None:
        raise FlowError(syntax_hint)
    name = match.group()
    rest = item[match.end():]
    opts: str | None = None
    if rest.startswith("{"):
        end = _option_block_end(rest, item)
        opts = rest[1:end]
        rest = rest[end + 1:]
    times: int | None = None
    if rest.startswith("["):
        times_match = _TIMES_RE.match(rest)
        if times_match is None:
            raise FlowError(syntax_hint)
        times = int(times_match.group(1))
        rest = rest[times_match.end():]
    cond = rest == "?"
    if rest and not cond:
        raise FlowError(syntax_hint)
    return name, opts, times, cond


def _parse_options(opts: str | None, item: str) -> dict:
    """Parse a ``{key=value,...}`` option block into kwargs."""
    if opts is None:
        return {}
    params: dict = {}
    for chunk in _split_top_level(opts, item, track_braces=False):
        chunk = chunk.strip()
        if not chunk or "=" not in chunk:
            raise FlowError(
                f"malformed option {chunk!r} in spec item {item!r} "
                f"(expected key=value)"
            )
        key, _, value = chunk.partition("=")
        params[key.strip()] = parse_spec_value(value.strip())
    return params


class PassManager:
    """An ordered list of passes executed over a :class:`FlowContext`."""

    def __init__(self, passes: Sequence[Pass] = ()) -> None:
        self.passes: list[Pass] = list(passes)

    # -- construction -------------------------------------------------
    def append(self, item: Pass) -> "PassManager":
        self.passes.append(item)
        return self

    def extend(self, items: Iterable[Pass]) -> "PassManager":
        self.passes.extend(items)
        return self

    @classmethod
    def parse(cls, spec: str) -> "PassManager":
        """Build a pipeline from a comma-separated spec string.

        Grammar per item: ``NAME``, optionally ``{key=value,...}``
        (constructor parameters, e.g. ``encode{style=gray}``),
        optionally ``[count]`` (repeat the pass ``count`` >= 1 times),
        optionally a trailing ``?`` (run only if applicable).  Unknown
        names, unknown options, and malformed items raise
        :class:`FlowError` quoting the offending item and its
        1-based position in the spec.
        """
        passes: list[Pass] = []
        for position, item in enumerate(_split_items(spec), start=1):
            try:
                name, opts, times, cond = _parse_item(item)
                instance = make_pass(name, **_parse_options(opts, item))
                if times is not None:
                    if times < 1:
                        raise FlowError(
                            f"repeat count must be >= 1 in {item!r}"
                        )
                    instance = Repeat(instance, times)
            except FlowError as exc:
                # Re-raise with the failing item pinpointed: a long
                # generated spec is unreadable without knowing *which*
                # entry the complaint is about.
                raise FlowError(
                    f"at item {position} ({item!r}) of pipeline spec "
                    f"{spec!r}: {exc}"
                ) from None
            if cond:
                instance = Conditional(instance)
            passes.append(instance)
        return cls(passes)

    def spec(self) -> str:
        """Render back to the string form ``parse`` accepts (for
        pipelines made of registered passes, a round-trip)."""
        return ",".join(item.spec() for item in self.passes)

    def prefix_specs(self) -> list[str]:
        """The rendered spec of every pipeline prefix, shortest first
        (element ``k`` covers passes ``0..k``; the last element equals
        :meth:`spec`).  Because :meth:`spec` is a comma-join, a prefix
        spec is exactly what a pipeline genuinely ending there would
        render -- which is what makes prefix fingerprints shareable."""
        parts: list[str] = []
        specs: list[str] = []
        for item in self.passes:
            parts.append(item.spec())
            specs.append(",".join(parts))
        return specs

    def prefix_fingerprints(
        self,
        *,
        ctrl=None,
        module=None,
        aig=None,
        annotations: Sequence = (),
        bindings=None,
    ) -> list[str]:
        """:func:`~repro.flow.cache.fingerprint_prefixes` over this
        pipeline's prefixes with these inputs.  The last element is
        the full compile fingerprint."""
        from repro.flow.cache import fingerprint_prefixes

        return fingerprint_prefixes(
            self.prefix_specs(),
            ctrl=ctrl,
            module=module,
            aig=aig,
            annotations=annotations,
            bindings=bindings,
        )

    # -- execution ----------------------------------------------------
    def run(self, ctx: FlowContext) -> FlowContext:
        """Execute every pass in order on ``ctx`` and return it."""
        ensure_recursion_headroom()
        for item in self.passes:
            item.execute(ctx)
        return ctx

    def compile(
        self,
        module=None,
        *,
        ctrl=None,
        aig=None,
        annotations: Sequence = (),
        bindings=None,
        cache=None,
    ) -> FlowContext:
        """Convenience: build a fresh context and run the pipeline.

        Start from a controller IR (``ctrl`` -- the frontend stage
        lowers it), RTL (``module``), an already-elaborated ``aig``,
        or a combination; ``annotations`` seed the context's state
        annotations and ``bindings`` its configuration-memory contents
        (consumed by the ``pe_bind`` pass).

        With a :class:`~repro.flow.cache.CompileCache` as ``cache``,
        the run is keyed on the fingerprint of (inputs, rendered
        pipeline spec) -- the last of the pipeline's
        :meth:`prefix_fingerprints`: a hit returns the cached
        completed context without executing any pass -- for an IR
        input that means zero lowerings *and* zero synthesis -- a miss
        runs the pipeline and stores the result.  Treat cached
        contexts as read-only -- in-memory hits share one object.

        This is the path ``compile_many`` and the compile server take
        too: look up the key, resume, run, store.  A miss resumes from
        the deepest stage snapshot of a pipeline prefix that an
        earlier batch left in the cache (:func:`prepare_resume`), with
        the resume point recorded in ``ctx.meta``
        (``resumed_at``/``passes_skipped``); a resumed result is
        byte-identical to a from-scratch run (canonical hashes and
        pass records modulo wall times).  A lone compile shares no
        prefix with another job, so it writes no snapshot.

        The spec typechecker (:mod:`repro.check.spec`) runs first:
        a pipeline that is statically wrong for these inputs (stage
        ordering, IR kind, missing bindings) raises :class:`FlowError`
        carrying the diagnostics before any pass executes.  Pass
        failures propagate unwrapped.
        """
        # Imported here: repro.check.spec imports this module.
        from repro.check.spec import check_manager, input_stage_of

        input_stage, ir_kind = input_stage_of(
            ctrl=ctrl, module=module, aig=aig
        )
        problems = [
            diagnostic
            for diagnostic in check_manager(
                self,
                input_stage=input_stage,
                ir_kind=ir_kind,
                has_bindings=bindings is not None,
            )
            if diagnostic.severity == "error"
        ]
        if problems:
            raise FlowError(
                "pipeline spec check failed: "
                + "; ".join(str(problem) for problem in problems)
            )
        inputs = dict(
            ctrl=ctrl,
            module=module,
            aig=aig,
            annotations=annotations,
            bindings=bindings,
        )
        fingerprints: list[str] = []
        if cache is not None:
            fingerprints = self.prefix_fingerprints(**inputs)
            hit = cache.get(fingerprints[-1])
            if hit is not None:
                return hit
        ctx, start = prepare_resume(
            self, cache=cache, prefix_fingerprints=fingerprints, **inputs
        )
        run_resumable(
            self,
            ctx,
            start=start,
            cache=cache,
            prefix_fingerprints=fingerprints,
        )
        if cache is not None:
            cache.put(fingerprints[-1], ctx)
        return ctx

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            return f"PassManager({self.spec()!r})"
        except FlowError:
            return f"PassManager(<{len(self.passes)} passes, no spec form>)"


def _registry_snapshot() -> "tuple[tuple, tuple]":
    """Every name -> object binding a spec's analysis reads: the pass
    registry, the pass schemas and the library factories."""
    # Imported here: the library registry loads after this module.
    from repro.flow.passes import LIBRARY_FACTORIES

    return registry_snapshot(PASS_REGISTRY, PASS_SCHEMAS, LIBRARY_FACTORIES)


class _AnalysisMemo:
    """The bounded LRU behind :func:`remember_analysis`.  Its entries
    are valid only for the registry snapshot they were computed under:
    any pass, schema or library factory added, removed or swapped
    empties it on the next lookup."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock
        self._registry: tuple = ((), ())  # guarded-by: _lock

    def lookup(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        registry = _registry_snapshot()
        with self._lock:
            if not same_registry(self._registry, registry):
                self._entries.clear()
                self._registry = registry
            registry = self._registry
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        # Computed outside the lock: an analysis can take milliseconds,
        # and two threads racing on one key compute equal values.
        value = compute()
        if not same_registry(registry, _registry_snapshot()):
            return value  # the registry moved under the computation
        with self._lock:
            if self._registry is registry:
                self._entries[key] = value
                while len(self._entries) > MAX_SPEC_ANALYSES:
                    self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_ANALYSES = _AnalysisMemo()


def remember_analysis(key: Hashable, compute: Callable[[], _T]) -> _T:
    """``compute()``, or what it returned for ``key`` before.

    The one memo of everything a pipeline spec string determines,
    shared by :func:`prefix_specs_of` and the spec check
    (:func:`repro.check.spec.check_job`).  ``compute`` must depend on
    nothing but ``key`` and the registries (passes, schemas, library
    factories): an entry is dropped as soon as any of them binds a
    different object, and at most :data:`MAX_SPEC_ANALYSES` entries
    are kept.  Values are shared between callers, so make them
    immutable.
    """
    return _ANALYSES.lookup(key, compute)


def prefix_specs_of(spec: str) -> "list[str]":
    """``PassManager.parse(spec).prefix_specs()`` -- the last element is
    the canonical spec -- computed once per distinct spec per process
    (:func:`remember_analysis`).  A compile server sees the same few
    specs over and over, and parsing one builds every pass.

    Raises:
        FlowError: what parsing or rendering the spec raised.
    """
    specs, error = remember_analysis(("spec", spec), lambda: _analyse(spec))
    if error is not None:
        raise FlowError(error)
    return list(specs)


def _analyse(spec: str) -> "tuple[tuple[str, ...], str | None]":
    try:
        return tuple(PassManager.parse(spec).prefix_specs()), None
    except FlowError as exc:
        return (), str(exc)


def prepare_resume(
    pipeline: PassManager,
    *,
    ctrl=None,
    module=None,
    aig=None,
    annotations: Sequence = (),
    bindings=None,
    cache=None,
    prefix_fingerprints: Sequence[str] = (),
) -> tuple[FlowContext, int]:
    """The context a miss starts from: the deepest restorable stage
    snapshot, or a fresh context.

    Probes ``cache`` for a stage snapshot under each of the pipeline's
    ``prefix_fingerprints``, deepest first; snapshots are the only
    resume source.  The deepest probe is the full pipeline: a batch
    job whose whole pipeline another job shares snapshots its final
    boundary too.  A restored context gets the resume provenance
    written into ``ctx.meta``: ``resumed_at`` (the name of the last
    skipped pass), ``passes_skipped`` (top-level count), and
    ``resumed_records`` (how many pass records came from the resume
    point rather than this run -- what lets pass-execution accounting
    subtract them).

    Returns:
        ``(ctx, start)`` -- run the pipeline from top-level pass index
        ``start`` (0 means from scratch).
    """
    if cache is not None:
        for done in range(len(prefix_fingerprints), 0, -1):
            restored = cache.get_snapshot(prefix_fingerprints[done - 1])
            if restored is None:
                continue
            restored.meta.update(
                resumed_at=pipeline.passes[done - 1].name,
                passes_skipped=done,
                resumed_records=len(restored.records),
            )
            return restored, done
    return (
        FlowContext(
            ctrl=ctrl,
            module=module,
            aig=aig,
            annotations=list(annotations),
            bindings=bindings,
        ),
        0,
    )


def run_resumable(
    pipeline: PassManager,
    ctx: FlowContext,
    *,
    start: int = 0,
    cache=None,
    prefix_fingerprints: Sequence[str] = (),
    snapshot_after: frozenset[int] | set[int] = frozenset(),
) -> FlowContext:
    """Execute ``pipeline`` on ``ctx`` from pass ``start``, snapshotting
    the boundary after each top-level pass index in ``snapshot_after``.

    ``snapshot_after`` comes from the batch planner
    (:func:`repro.flow.parallel._plan_waves`): exactly the boundaries
    whose prefix fingerprint another job of the same batch shares,
    the final one included.  It is empty for a lone compile.

    Failures propagate exactly as :meth:`PassManager.run`'s would --
    no snapshot is taken at or after a failing pass.
    """
    ensure_recursion_headroom()
    for index in range(start, len(pipeline.passes)):
        pipeline.passes[index].execute(ctx)
        if index in snapshot_after:
            cache.put_snapshot(prefix_fingerprints[index], ctx)
    return ctx
