"""The registered synthesis passes.

Each pass wraps one engine from :mod:`repro.synth`, :mod:`repro.aig`,
or :mod:`repro.tech` and declares the representation it consumes:

======================  =======  =============================================
spec name               stage    engine
======================  =======  =============================================
``fsm_infer``           rtl      :func:`repro.synth.fsm_infer.infer_fsms`
``honour_annotations``  rtl      :func:`repro.synth.dc_options.effective_annotations`
``encode``              rtl      :func:`repro.synth.encode.reencode_register`
``elaborate``           rtl      :func:`repro.synth.elaborate.elaborate`
``seq_sweep``           aig      :func:`repro.synth.sweep.seq_sweep`
``tt_sweep``            aig      :func:`repro.aig.rewrite.tt_sweep`
``balance``             aig      :func:`repro.aig.balance.balance`
``rewrite``             aig      :func:`repro.aig.rewrite.rewrite`
``resub``               aig      :func:`repro.aig.resub.resub`
``dc_rewrite``          aig      :func:`repro.aig.dontcare.dc_rewrite`
``retime``              aig      :func:`repro.synth.retime.retime_backward`
``stateprop``           aig      :func:`repro.synth.stateprop.fold_states`
``optimize``            aig      fixed point of sweep/balance/rewrite
``map``                 aig      :func:`repro.tech.mapper.map_aig`
``size``                netlist  sizing + STA + area report
======================  =======  =============================================

The message strings passes :meth:`~repro.flow.core.Pass.note` are the
exact legacy ``CompileResult.log`` lines; do not reword them casually.
"""

from __future__ import annotations

import random

from repro.aig.balance import balance
from repro.aig.cuts import MAX_CUT_SIZE, MIN_CUT_SIZE
from repro.aig.dontcare import dc_rewrite
from repro.aig.graph import AIG
from repro.aig.resub import MAX_RESUB_K, resub
from repro.aig.rewrite import rewrite, tt_sweep
from repro.flow.combinators import FixedPoint, WhileProgress
from repro.flow.core import (
    FlowContext,
    FlowError,
    Pass,
    describe_registry,
    register_pass,
)
from repro.flow.schema import Option, PassSchema
from repro.synth.dc_options import (
    ENCODING_STYLES,
    StateAnnotation,
    effective_annotations,
)
from repro.synth.elaborate import elaborate
from repro.synth.encode import reencode_register
from repro.synth.fsm_infer import infer_fsms
from repro.synth.retime import retime_backward
from repro.synth.stateprop import fold_states
from repro.synth.statesets import ValueSet
from repro.synth.sweep import seq_sweep
from repro.tech.cells import Library, default_library
from repro.tech.mapper import map_aig
from repro.tech.sizing import size_for_clock
from repro.tech.sta import analyze_timing


@register_pass("fsm_infer", PassSchema(stage="rtl"))
class FsmInferPass(Pass):
    """Recognise case-style FSMs and add their state sets as
    annotations (user annotations on the same register win)."""

    stage = "rtl"

    def run(self, ctx: FlowContext) -> None:
        inferred = infer_fsms(ctx.module)
        ctx.inferred_fsms = list(inferred)
        for fsm in inferred:
            if any(a.reg_name == fsm.reg_name for a in ctx.annotations):
                continue
            ctx.annotations.append(StateAnnotation(fsm.reg_name, fsm.states))
            self.note(
                f"fsm_infer: {fsm.reg_name} has {fsm.num_states} "
                f"reachable states"
            )


@register_pass("honour_annotations", PassSchema(stage="rtl"))
class HonourAnnotationsPass(Pass):
    """Drop annotations the tool cannot honour (unknown registers,
    state vectors wider than the 32-bit cap) with a warning."""

    stage = "rtl"

    def run(self, ctx: FlowContext) -> None:
        reg_widths = {
            name: reg.width for name, reg in ctx.module.regs.items()
        }
        ctx.annotations = effective_annotations(ctx.annotations, reg_widths)


@register_pass(
    "encode",
    PassSchema(
        stage="rtl",
        options={
            "style": Option(
                "str",
                default="binary",
                choices=tuple(ENCODING_STYLES),
                help="target state encoding for annotated registers",
            ),
        },
    ),
)
class EncodePass(Pass):
    """Re-encode every annotated state register (``set_fsm_encoding``)."""

    stage = "rtl"

    def __init__(self, style: str = "binary") -> None:
        super().__init__()
        if style not in ENCODING_STYLES:
            raise ValueError(f"unknown fsm encoding {style!r}")
        self.style = style

    def params(self) -> dict:
        return {"style": self.style} if self.style != "binary" else {}

    def applies(self, ctx: FlowContext) -> bool:
        return self.style != "same" and bool(ctx.annotations)

    def run(self, ctx: FlowContext) -> None:
        if self.style == "same":
            return
        reencoded: list[StateAnnotation] = []
        for annotation in ctx.annotations:
            ctx.module, new_annotation = reencode_register(
                ctx.module,
                annotation.reg_name,
                annotation.values,
                self.style,
            )
            reencoded.append(new_annotation)
            self.note(
                f"encode: {annotation.reg_name} -> "
                f"{self.style} ({len(annotation.values)} states)"
            )
        ctx.annotations = reencoded


@register_pass(
    "elaborate",
    PassSchema(
        stage="rtl",
        produces="aig",
        options={
            "fold_sync_reset": Option(
                "bool",
                default=False,
                help="constant-propagate the synchronous reset state",
            ),
        },
    ),
)
class ElaboratePass(Pass):
    """Elaborate RTL to a sequential AIG (bound tables partially
    evaluate here by construction)."""

    stage = "rtl"

    def __init__(self, fold_sync_reset: bool = False) -> None:
        super().__init__()
        self.fold_sync_reset = fold_sync_reset

    def params(self) -> dict:
        return {"fold_sync_reset": True} if self.fold_sync_reset else {}

    def run(self, ctx: FlowContext) -> None:
        ctx.elaboration = elaborate(
            ctx.module, fold_sync_reset=self.fold_sync_reset
        )
        ctx.aig = ctx.elaboration.aig
        self.note(f"elaborate: {ctx.aig.stats()}")


@register_pass("seq_sweep", PassSchema(stage="aig"))
class SeqSweepPass(Pass):
    """Remove stuck/duplicate registers; flags progress when it does."""

    def run(self, ctx: FlowContext) -> None:
        ctx.aig, removed = seq_sweep(ctx.aig)
        if removed:
            self.note(f"seq_sweep: removed {removed} registers")
            ctx.mark_progress()


@register_pass(
    "tt_sweep",
    PassSchema(
        stage="aig",
        options={
            "support_limit": Option(
                "int",
                default=None,
                nullable=True,
                min=1,
                help="skip nodes whose cone support exceeds this",
            ),
        },
    ),
)
class TtSweepPass(Pass):
    """Functional sweep: merge nodes with identical truth tables."""

    def __init__(self, support_limit: int | None = None) -> None:
        super().__init__()
        if support_limit is not None and support_limit < 1:
            raise ValueError(
                f"support_limit must be None or >= 1, got {support_limit}"
            )
        self.support_limit = support_limit

    def params(self) -> dict:
        if self.support_limit is None:
            return {}
        return {"support_limit": self.support_limit}

    def run(self, ctx: FlowContext) -> None:
        ctx.aig = tt_sweep(ctx.aig, support_limit=self.support_limit)


@register_pass("balance", PassSchema(stage="aig"))
class BalancePass(Pass):
    """Tree-balance AND cones to reduce depth."""

    def run(self, ctx: FlowContext) -> None:
        ctx.aig = balance(ctx.aig)


def _cut_options() -> dict:
    """The cut-enumeration options ``rewrite`` and ``dc_rewrite``
    share; the bounds are :class:`~repro.aig.cuts.CutSet`'s."""
    return {
        "k": Option(
            "int", default=4, min=MIN_CUT_SIZE, max=MAX_CUT_SIZE,
            help="cut input size",
        ),
        "max_cuts": Option(
            "int", default=6, min=1, help="cuts enumerated per node"
        ),
    }


def _check_cut_options(k: int, max_cuts: int) -> None:
    if k < MIN_CUT_SIZE or k > MAX_CUT_SIZE:
        raise ValueError(
            f"k must be in {MIN_CUT_SIZE}..{MAX_CUT_SIZE}, got {k}"
        )
    if max_cuts < 1:
        raise ValueError(f"max_cuts must be >= 1, got {max_cuts}")


@register_pass("rewrite", PassSchema(stage="aig", options=_cut_options()))
class RewritePass(Pass):
    """Cut-based rewriting: each node's cut functions are re-expressed
    through ISOP covers, adopted when they add fewer nodes than the
    node's MFFC holds."""

    def __init__(self, k: int = 4, max_cuts: int = 6) -> None:
        super().__init__()
        _check_cut_options(k, max_cuts)
        self.k = k
        self.max_cuts = max_cuts

    def params(self) -> dict:
        params = {}
        if self.k != 4:
            params["k"] = self.k
        if self.max_cuts != 6:
            params["max_cuts"] = self.max_cuts
        return params

    def run(self, ctx: FlowContext) -> None:
        ctx.aig = rewrite(ctx.aig, k=self.k, max_cuts=self.max_cuts)


@register_pass(
    "resub",
    PassSchema(
        stage="aig",
        options={
            "k": Option(
                "int",
                default=3,
                min=1,
                max=MAX_RESUB_K,
                help="divisors substituted per node",
            ),
            "max_divisors": Option(
                "int", default=16, min=1, help="candidate divisors per node"
            ),
            "support_limit": Option(
                "int", default=8, min=1,
                help="skip nodes whose cone support exceeds this",
            ),
        },
    ),
)
class ResubPass(Pass):
    """Resubstitution: re-express nodes through existing divisors
    (:func:`repro.aig.resub.resub`); flags progress when the AND count
    actually dropped, so convergence loops can gate on it."""

    def __init__(
        self,
        k: int = 3,
        max_divisors: int = 16,
        support_limit: int = 8,
    ) -> None:
        super().__init__()
        if k < 1 or k > MAX_RESUB_K:
            raise ValueError(f"k must be in 1..{MAX_RESUB_K}, got {k}")
        if max_divisors < 1:
            raise ValueError(f"max_divisors must be >= 1, got {max_divisors}")
        if support_limit < 1:
            raise ValueError(
                f"support_limit must be >= 1, got {support_limit}"
            )
        self.k = k
        self.max_divisors = max_divisors
        self.support_limit = support_limit

    def params(self) -> dict:
        params = {}
        if self.k != 3:
            params["k"] = self.k
        if self.max_divisors != 16:
            params["max_divisors"] = self.max_divisors
        if self.support_limit != 8:
            params["support_limit"] = self.support_limit
        return params

    def run(self, ctx: FlowContext) -> None:
        before = ctx.aig.num_ands
        ctx.aig = resub(
            ctx.aig,
            k=self.k,
            max_divisors=self.max_divisors,
            support_limit=self.support_limit,
        )
        saved = before - ctx.aig.num_ands
        if saved:
            self.note(f"resub: -{saved} ands via divisor substitution")
            ctx.mark_progress()


@register_pass(
    "dc_rewrite",
    PassSchema(
        stage="aig",
        options={
            **_cut_options(),
            "tfo_depth": Option(
                "int", default=2, min=1,
                help="fanout-window depth for observability don't-cares",
            ),
            "support_limit": Option(
                "int", default=10, min=1,
                help="skip windows whose support exceeds this",
            ),
        },
    ),
)
class DcRewritePass(Pass):
    """Don't-care-aware rewriting (:func:`repro.aig.dontcare.dc_rewrite`):
    windowed satisfiability/observability don't-cares relax each cut's
    ON-set before ISOP resynthesis, accepting covers the exact
    ``rewrite`` pass must reject."""

    def __init__(
        self,
        k: int = 4,
        max_cuts: int = 6,
        tfo_depth: int = 2,
        support_limit: int = 10,
    ) -> None:
        super().__init__()
        _check_cut_options(k, max_cuts)
        if tfo_depth < 1:
            raise ValueError(f"tfo_depth must be >= 1, got {tfo_depth}")
        if support_limit < 1:
            raise ValueError(
                f"support_limit must be >= 1, got {support_limit}"
            )
        self.k = k
        self.max_cuts = max_cuts
        self.tfo_depth = tfo_depth
        self.support_limit = support_limit

    def params(self) -> dict:
        params = {}
        if self.k != 4:
            params["k"] = self.k
        if self.max_cuts != 6:
            params["max_cuts"] = self.max_cuts
        if self.tfo_depth != 2:
            params["tfo_depth"] = self.tfo_depth
        if self.support_limit != 10:
            params["support_limit"] = self.support_limit
        return params

    def run(self, ctx: FlowContext) -> None:
        before = ctx.aig.num_ands
        ctx.aig = dc_rewrite(
            ctx.aig,
            k=self.k,
            max_cuts=self.max_cuts,
            tfo_depth=self.tfo_depth,
            support_limit=self.support_limit,
        )
        saved = before - ctx.aig.num_ands
        if saved:
            self.note(f"dc_rewrite: -{saved} ands via don't-cares")
            ctx.mark_progress()


@register_pass("retime", PassSchema(stage="aig"))
class RetimePass(Pass):
    """One backward-retime step; flags progress when flops moved."""

    def run(self, ctx: FlowContext) -> None:
        ctx.aig, stats = retime_backward(ctx.aig)
        if stats.changed:
            self.note(
                f"retime: moved {stats.latches_removed} flops back to "
                f"{stats.latches_added} cone inputs"
            )
            ctx.mark_progress()


@register_pass(
    "stateprop",
    PassSchema(
        stage="aig",
        options={
            "rounds": Option(
                "int", default=2, min=1,
                help="value-set propagation rounds",
            ),
        },
    ),
)
class FoldStatesPass(Pass):
    """Fold unreachable states under the honoured annotations.

    Locates each annotated register's latch bus in the AIG (annotations
    whose bus optimization already dissolved are dropped with a log
    line), then runs randomized value-set propagation.  Flags progress
    when any folding actually ran, which is what gates the follow-up
    re-optimization in the default flow.
    """

    def __init__(self, rounds: int = 2) -> None:
        super().__init__()
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds

    def params(self) -> dict:
        return {"rounds": self.rounds} if self.rounds != 2 else {}

    def applies(self, ctx: FlowContext) -> bool:
        return bool(ctx.annotations)

    def run(self, ctx: FlowContext) -> None:
        if not ctx.annotations:
            return
        buses = {}
        for annotation in ctx.annotations:
            if ctx.module is not None:
                width = (
                    ctx.module.regs[annotation.reg_name].width
                    if annotation.reg_name in ctx.module.regs
                    else None
                )
            else:
                # AIG-only context: recover the width from latch names.
                width = latch_bus_width(ctx.aig, annotation.reg_name)
            if width is None:
                continue
            bus = find_bus(ctx.aig, annotation.reg_name, width)
            if bus is None:
                self.note(
                    f"stateprop: bus {annotation.reg_name} no longer "
                    f"exists (dropped)"
                )
                continue
            buses[annotation.reg_name] = (
                bus,
                ValueSet(width, tuple(sorted(annotation.values))),
            )
        if not buses:
            return
        ctx.aig, ctx.fold_stats = fold_states(
            ctx.aig, buses, rounds=self.rounds, rng=random.Random(ctx.seed)
        )
        stats = ctx.fold_stats
        self.note(
            f"stateprop: {stats.constants_proven} constants, "
            f"{stats.merges_proven} merges over {stats.rounds} rounds "
            f"({stats.sat_calls} SAT calls, {stats.sat_skipped} skipped)"
        )
        ctx.mark_progress()


@register_pass(
    "optimize",
    PassSchema(
        stage="aig",
        options={
            "effort_rounds": Option(
                "int", default=2, min=1,
                help="maximum sweep/balance/rewrite rounds",
            ),
            "support_limit": Option(
                "int", default=None, nullable=True, min=1,
                help="tt_sweep support cap inside the loop",
            ),
        },
    ),
)
class OptimizeLoop(FixedPoint):
    """The classic sweep/balance/rewrite rounds, as a fixed point."""

    def __init__(
        self, effort_rounds: int = 2, support_limit: int | None = None
    ) -> None:
        self.effort_rounds = effort_rounds
        self.support_limit = support_limit
        super().__init__(
            [
                SeqSweepPass(),
                TtSweepPass(support_limit),
                BalancePass(),
                RewritePass(),
            ],
            max_rounds=effort_rounds,
            label="optimize",
        )

    def params(self) -> dict:
        params = {}
        if self.effort_rounds != 2:
            params["effort_rounds"] = self.effort_rounds
        if self.support_limit is not None:
            params["support_limit"] = self.support_limit
        return params

    def spec(self) -> str:
        # The registered name plus the effort knobs; the body is fixed.
        return Pass.spec(self)


@register_pass(
    "retime_stage",
    PassSchema(
        stage="aig",
        options={
            "effort_rounds": Option(
                "int", default=2, min=1,
                help="optimize rounds after each retime step",
            ),
            "support_limit": Option(
                "int", default=None, nullable=True, min=1,
                help="tt_sweep support cap inside the loop",
            ),
            "max_rounds": Option(
                "int", default=4, min=1, help="maximum retime steps"
            ),
        },
    ),
)
class RetimeStage(WhileProgress):
    """The classic retiming stage: backward retiming with
    re-optimization after each move, while flops keep moving.

    Registered so pipeline specs can place it freely -- the ROADMAP's
    "retime before vs after folding" ablations need no code changes.
    """

    def __init__(
        self,
        effort_rounds: int = 2,
        support_limit: int | None = None,
        max_rounds: int = 4,
    ) -> None:
        self.effort_rounds = effort_rounds
        self.support_limit = support_limit
        super().__init__(
            RetimePass(),
            then=[OptimizeLoop(effort_rounds, support_limit)],
            max_rounds=max_rounds,
            label="retime_stage",
        )

    def params(self) -> dict:
        params = {}
        if self.effort_rounds != 2:
            params["effort_rounds"] = self.effort_rounds
        if self.support_limit is not None:
            params["support_limit"] = self.support_limit
        if self.max_rounds != 4:
            params["max_rounds"] = self.max_rounds
        return params

    def spec(self) -> str:
        # The registered name plus the knobs; the body is fixed.
        return Pass.spec(self)


@register_pass(
    "state_folding",
    PassSchema(
        stage="aig",
        options={
            "effort_rounds": Option(
                "int", default=2, min=1,
                help="stateprop rounds and follow-up optimize rounds",
            ),
            "support_limit": Option(
                "int", default=None, nullable=True, min=1,
                help="tt_sweep support cap inside the loop",
            ),
        },
    ),
)
class StateFoldingStage(WhileProgress):
    """Annotation-driven state folding, re-optimizing if it fired --
    the classic flow's folding stage as a registered, spec-placeable
    pass."""

    def __init__(
        self, effort_rounds: int = 2, support_limit: int | None = None
    ) -> None:
        self.effort_rounds = effort_rounds
        self.support_limit = support_limit
        super().__init__(
            FoldStatesPass(effort_rounds),
            then=[OptimizeLoop(effort_rounds, support_limit)],
            max_rounds=1,
            label="state_folding",
        )

    def params(self) -> dict:
        params = {}
        if self.effort_rounds != 2:
            params["effort_rounds"] = self.effort_rounds
        if self.support_limit is not None:
            params["support_limit"] = self.support_limit
        return params

    def spec(self) -> str:
        return Pass.spec(self)


#: Libraries reconstructible from a spec string (``map{library=...}``).
#: Every entry is a zero-argument factory; registering here is what
#: makes a library addressable from pipeline specs, the ``techsweep``
#: experiment driver, and cache fingerprints.
LIBRARY_FACTORIES = {
    "tsmc90ish": Library.tsmc90ish,
    "generic45ish": Library.generic45ish,
    "lowpowerish": Library.lowpowerish,
}


def registered_library_names() -> list[str]:
    """The library names ``map{library=...}`` accepts, sorted."""
    return sorted(LIBRARY_FACTORIES)


#: (registry snapshot the digest was computed from, digest) -- the
#: snapshot holds the factory objects themselves, so the identity
#: check can never be fooled by object-id reuse.
_LIBRARIES_DIGEST_CACHE: tuple[tuple, str] | None = None


def registered_libraries_digest() -> str:
    """One content digest over every registered library.

    ``map{library=...}`` renders a library into specs (and hence cache
    fingerprints) by *name*; the definitions behind the names live in
    code, which fingerprints deliberately do not cover -- so an edit
    to a registered library's cells would otherwise replay stale
    cached results under the new definition's label.  Mixing this
    digest into :func:`repro.flow.cache.flow_fingerprint` closes that
    hole: any change to any registered kit (or registering a new one)
    invalidates the cache.  Memoized per registry snapshot -- the
    factories are module-level code objects, so recomputation only
    happens when a test swaps one in.
    """
    global _LIBRARIES_DIGEST_CACHE
    snapshot = tuple(
        sorted(LIBRARY_FACTORIES.items(), key=lambda item: item[0])
    )
    if _LIBRARIES_DIGEST_CACHE is not None:
        cached_snapshot, cached_digest = _LIBRARIES_DIGEST_CACHE
        if len(cached_snapshot) == len(snapshot) and all(
            old[0] == new[0] and old[1] is new[1]
            for old, new in zip(cached_snapshot, snapshot)
        ):
            return cached_digest
    import hashlib

    digest = hashlib.sha256()
    for name, factory in snapshot:
        digest.update(repr((name, factory().canonical_hash())).encode())
    _LIBRARIES_DIGEST_CACHE = (snapshot, digest.hexdigest())
    return _LIBRARIES_DIGEST_CACHE[1]


@register_pass(
    "map",
    PassSchema(
        stage="aig",
        produces="netlist",
        options={
            # choices is the registry accessor itself, so the schema
            # can never drift from LIBRARY_FACTORIES.
            "library": Option(
                "str",
                default=None,
                nullable=True,
                choices=registered_library_names,
                help="registered cell library (default: context's)",
            ),
        },
    ),
)
class TechMapPass(Pass):
    """Technology-map the AIG onto the context's cell library.

    A library pinned on the pass (object or registered name) overrides
    the context's; it is rendered into ``spec()`` by name so pipelines
    differing only in library fingerprint differently.
    """

    def __init__(self, library: Library | str | None = None) -> None:
        super().__init__()
        if isinstance(library, str):
            try:
                library = LIBRARY_FACTORIES[library]()
            except KeyError:
                raise ValueError(
                    f"unknown library {library!r}; known: "
                    f"{', '.join(sorted(LIBRARY_FACTORIES))}"
                ) from None
        self.library = library

    def params(self) -> dict:
        if self.library is None:
            return {}
        factory = LIBRARY_FACTORIES.get(self.library.name)
        if (
            factory is None
            or factory().canonical_hash() != self.library.canonical_hash()
        ):
            # The name alone would render (and fingerprint) a modified
            # library as the stock one.
            raise FlowError(
                f"library {self.library.name!r} pinned on map is not a "
                f"registered library; the pipeline has no spec form"
            )
        return {"library": self.library.name}

    def run(self, ctx: FlowContext) -> None:
        # The same default the cache fingerprint resolves
        # (flow_fingerprint hashes default_library() for a None
        # library), so a changed default can never serve stale hits.
        library = self.library or ctx.library or default_library()
        ctx.netlist = map_aig(ctx.aig, library)
        self.note(f"map: {ctx.netlist.stats()}")


@register_pass(
    "size",
    PassSchema(
        stage="netlist",
        options={
            "clock_period_ns": Option(
                "float", default=5.0, exclusive_min=0,
                help="target clock period for sizing and STA",
            ),
        },
    ),
)
class SizePass(Pass):
    """Gate sizing against the clock target, then STA + area report."""

    stage = "netlist"

    def __init__(self, clock_period_ns: float = 5.0) -> None:
        super().__init__()
        if clock_period_ns <= 0:
            raise ValueError("clock period must be positive")
        self.clock_period_ns = clock_period_ns

    def params(self) -> dict:
        if self.clock_period_ns == 5.0:
            return {}
        return {"clock_period_ns": self.clock_period_ns}

    def run(self, ctx: FlowContext) -> None:
        ctx.sizing = size_for_clock(ctx.netlist, self.clock_period_ns)
        ctx.timing = analyze_timing(ctx.netlist)
        ctx.area = ctx.netlist.area_report()
        self.note(
            f"size: met={ctx.sizing.met} "
            f"achieved={ctx.sizing.achieved_delay:.3f} ns "
            f"({ctx.sizing.upsized} upsizes)"
        )


def describe() -> "dict[str, dict]":
    """Every registered pass with its stage and option schema
    (:func:`repro.flow.core.describe_registry`), after making sure the
    frontend lowerings have registered too -- importing this module
    alone must still describe the whole registry."""
    import repro.flow.frontend  # noqa: F401  (registration side effect)

    return describe_registry()


def latch_bus_width(aig: AIG, reg_name: str) -> int | None:
    """Infer a register's width from its ``name[bit]`` latches (used
    when a pipeline starts from an AIG with no RTL module attached)."""
    prefix = f"{reg_name}["
    bits = [
        int(latch.name[len(prefix):-1])
        for latch in aig.latches
        if latch.name.startswith(prefix) and latch.name.endswith("]")
        and latch.name[len(prefix):-1].isdigit()
    ]
    if not bits:
        return None
    return max(bits) + 1


def find_bus(aig: AIG, reg_name: str, width: int) -> list[int] | None:
    """Locate the latch-output literals of a register by name."""
    by_name = {latch.name: latch.node << 1 for latch in aig.latches}
    bus = []
    for bit in range(width):
        lit = by_name.get(f"{reg_name}[{bit}]")
        if lit is None:
            return None
        bus.append(lit)
    return bus
