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

Each pass's options are declared once, in the schema it registers
with; ``run`` reads them from ``self.options`` (and often hands them
on whole, as the engine's keyword arguments).

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
    Pass,
    describe_registry,
    register_pass,
    registry_snapshot,
    same_registry,
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
from repro.tech import cells
from repro.tech.cells import Library, default_library
from repro.tech.mapper import map_aig
from repro.tech.sizing import size_for_clock
from repro.tech.sta import analyze_timing


@register_pass("fsm_infer", PassSchema(stage="rtl"))
class FsmInferPass(Pass):
    """Recognise case-style FSMs and add their state sets as
    annotations (user annotations on the same register win)."""

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

    def applies(self, ctx: FlowContext) -> bool:
        return self.options["style"] != "same" and bool(ctx.annotations)

    def run(self, ctx: FlowContext) -> None:
        style = self.options["style"]
        if style == "same":
            return
        reencoded: list[StateAnnotation] = []
        for annotation in ctx.annotations:
            ctx.module, new_annotation = reencode_register(
                ctx.module,
                annotation.reg_name,
                annotation.values,
                style,
            )
            reencoded.append(new_annotation)
            self.note(
                f"encode: {annotation.reg_name} -> "
                f"{style} ({len(annotation.values)} states)"
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

    def run(self, ctx: FlowContext) -> None:
        ctx.elaboration = elaborate(ctx.module, **self.options)
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

    def run(self, ctx: FlowContext) -> None:
        ctx.aig = tt_sweep(ctx.aig, **self.options)


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


@register_pass("rewrite", PassSchema(stage="aig", options=_cut_options()))
class RewritePass(Pass):
    """Cut-based rewriting: each node's cut functions are re-expressed
    through ISOP covers, adopted when they add fewer nodes than the
    node's MFFC holds."""

    def run(self, ctx: FlowContext) -> None:
        ctx.aig = rewrite(ctx.aig, **self.options)


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

    def run(self, ctx: FlowContext) -> None:
        before = ctx.aig.num_ands
        ctx.aig = resub(ctx.aig, **self.options)
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

    def run(self, ctx: FlowContext) -> None:
        before = ctx.aig.num_ands
        ctx.aig = dc_rewrite(ctx.aig, **self.options)
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


#: The seed of the random simulation behind ``stateprop``'s candidate
#: folds: a constant, so a compile is a function of its design and
#: spec alone.
STATEPROP_SEED = 2011


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
    line), then runs randomized value-set propagation, seeded with
    :data:`STATEPROP_SEED`.  Flags progress when any folding actually
    ran, which is what gates the follow-up re-optimization in the
    default flow.
    """

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
            ctx.aig,
            buses,
            rounds=self.options["rounds"],
            rng=random.Random(STATEPROP_SEED),
        )
        stats = ctx.fold_stats
        self.note(
            f"stateprop: {stats.constants_proven} constants, "
            f"{stats.merges_proven} merges over {stats.rounds} rounds "
            f"({stats.sat_calls} SAT calls, {stats.sat_skipped} skipped)"
        )
        ctx.mark_progress()


class _Stage(Pass):
    """A registered pass whose work is a combinator (``body``) built
    from its options; its records and log lines are the body's."""

    body: Pass

    def applies(self, ctx: FlowContext) -> bool:
        return self.body.applies(ctx)

    def run(self, ctx: FlowContext) -> None:
        self.body.run(ctx)


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
class OptimizeLoop(_Stage):
    """The classic sweep/balance/rewrite rounds, as a fixed point."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.body = FixedPoint(
            [
                SeqSweepPass(),
                TtSweepPass(support_limit=self.options["support_limit"]),
                BalancePass(),
                RewritePass(),
            ],
            max_rounds=self.options["effort_rounds"],
            label="optimize",
        )


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
class RetimeStage(_Stage):
    """The classic retiming stage: backward retiming with
    re-optimization after each move, while flops keep moving.

    Registered so pipeline specs can place it freely -- the ROADMAP's
    "retime before vs after folding" ablations need no code changes.
    """

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.body = WhileProgress(
            RetimePass(),
            then=[
                OptimizeLoop(
                    effort_rounds=self.options["effort_rounds"],
                    support_limit=self.options["support_limit"],
                )
            ],
            max_rounds=self.options["max_rounds"],
        )


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
class StateFoldingStage(_Stage):
    """Annotation-driven state folding, re-optimizing if it fired --
    the classic flow's folding stage as a registered, spec-placeable
    pass."""

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self.body = WhileProgress(
            FoldStatesPass(rounds=self.options["effort_rounds"]),
            then=[
                OptimizeLoop(
                    effort_rounds=self.options["effort_rounds"],
                    support_limit=self.options["support_limit"],
                )
            ],
        )


#: The cell libraries a flow can map onto, by the name
#: ``map{library=...}`` gives.  Every entry is a zero-argument factory;
#: registering a kit here is the only way to use it in a flow (the
#: ``techsweep`` driver sweeps them all), and
#: :func:`registered_libraries_digest` covers it in cache fingerprints.
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
    """One content digest over every registered library and the
    default one.

    A spec names its library (``map{library=...}``, or no option for
    the default), and so does the cache fingerprint; the definitions
    behind the names live in code, which fingerprints deliberately do
    not cover -- so an edit to a registered library's cells, or a
    change of :data:`repro.tech.cells.DEFAULT_LIBRARY_FACTORY`, would
    otherwise replay stale cached results under the new definition's
    label.  Mixing this digest into
    :func:`repro.flow.cache.flow_fingerprint` closes that hole: any
    change to any registered kit, registering a new one, or changing
    the default invalidates the cache.  Memoized per snapshot of the
    factories (the default read at call time) -- they are
    module-level code objects, so recomputation only happens when a
    test swaps one in.
    """
    global _LIBRARIES_DIGEST_CACHE
    snapshot = registry_snapshot(
        LIBRARY_FACTORIES, {None: cells.DEFAULT_LIBRARY_FACTORY}
    )
    cached = _LIBRARIES_DIGEST_CACHE
    if cached is not None and same_registry(cached[0], snapshot):
        return cached[1]
    import hashlib

    digest = hashlib.sha256()
    for name, factory in zip(*snapshot):
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
                help="registered cell library (none: the default library)",
            ),
        },
    ),
)
class TechMapPass(Pass):
    """Technology-map the AIG onto a registered cell library.

    The ``library`` option names the library (a key of
    :data:`LIBRARY_FACTORIES`); without it the pass maps onto
    :func:`repro.tech.cells.default_library`.  The library is built
    here, when the pass runs, and nowhere else: parsing, rendering
    and checking a spec build none.
    """

    def run(self, ctx: FlowContext) -> None:
        name = self.options["library"]
        library = (
            default_library() if name is None else LIBRARY_FACTORIES[name]()
        )
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

    def run(self, ctx: FlowContext) -> None:
        ctx.sizing = size_for_clock(
            ctx.netlist, self.options["clock_period_ns"]
        )
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
