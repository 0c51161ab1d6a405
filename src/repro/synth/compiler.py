"""The synthesis driver: a Design Compiler-shaped facade.

``DesignCompiler.compile`` runs the full flow the experiments measure:

1. FSM handling -- inference from case-style RTL (automatic) and/or
   user state annotations (``set_fsm_state_vector``), with optional
   re-encoding (``set_fsm_encoding``), subject to the 32-bit state
   vector cap;
2. elaboration to a sequential AIG (bound tables partially evaluate
   here by construction);
3. combinational optimization rounds: functional sweep, balancing,
   cut rewriting;
4. retiming (opt-in), which also folds synchronous resets into logic
   the way the real tool's register-moving engine does;
5. state propagation/folding under the honoured annotations;
6. technology mapping, then gate sizing against the clock target.

Since the flow API redesign the facade is thin: it builds the default
:class:`repro.flow.PassManager` pipeline from the options (see
:func:`repro.flow.pipeline.default_pipeline`) and packages the final
:class:`repro.flow.FlowContext` as a :class:`CompileResult`.  The
facade's entry point stays RTL; pipelines that start one stage
higher -- at a controller IR, via the ``ctrl``-stage lowerings of
:mod:`repro.flow.frontend` -- compose the same passes directly
(``PassManager.compile(ctrl=...)``) and package results through
:func:`result_from_context` identically.  The
result carries the area split (combinational vs sequential -- the axes
of the paper's Fig. 9), achieved timing, and per-pass
:class:`~repro.flow.PassRecord` instrumentation; the legacy
pass-by-pass string log is still available as :attr:`CompileResult.log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.graph import AIG
from repro.flow.core import FlowContext, PassRecord, render_log
from repro.flow.pipeline import run_default_flow
from repro.rtl.module import Module
from repro.synth.dc_options import CompileOptions, StateAnnotation
from repro.synth.stateprop import FoldStats
from repro.tech.netlist import AreaReport, MappedNetlist
from repro.tech.sizing import SizingResult
from repro.tech.sta import TimingReport


@dataclass
class CompileResult:
    """Everything a caller might want to know about a synthesis run."""

    module: Module
    options: CompileOptions
    aig: AIG
    netlist: MappedNetlist
    area: AreaReport
    timing: TimingReport
    sizing: SizingResult
    inferred_fsms: list = field(default_factory=list)
    honoured_annotations: list[StateAnnotation] = field(default_factory=list)
    fold_stats: FoldStats | None = None
    records: list[PassRecord] = field(default_factory=list)

    @property
    def log(self) -> list[str]:
        """The pass-by-pass log in its legacy string format, rendered
        from the structured :attr:`records`."""
        return render_log(self.records)

    def summary(self) -> str:
        return (
            f"{self.module.name}: area {self.area.total:.1f} um^2 "
            f"(comb {self.area.combinational:.1f}, "
            f"seq {self.area.sequential:.1f}), "
            f"delay {self.timing.critical_delay:.3f} ns "
            f"@ target {self.options.clock_period_ns} ns"
        )


def result_from_context(
    ctx: FlowContext, options: CompileOptions
) -> CompileResult:
    """Package a completed flow context as a :class:`CompileResult`.

    List state is copied out so a caller mutating the result cannot
    corrupt a context that may live on in a compile cache; the big
    structural objects (AIG, netlist, reports) are shared and must be
    treated as read-only for the same reason.
    """
    return CompileResult(
        module=ctx.module,
        options=options,
        aig=ctx.aig,
        netlist=ctx.netlist,
        area=ctx.area,
        timing=ctx.timing,
        sizing=ctx.sizing,
        inferred_fsms=list(ctx.inferred_fsms),
        honoured_annotations=list(ctx.annotations),
        fold_stats=ctx.fold_stats,
        records=list(ctx.records),
    )


class DesignCompiler:
    """Synthesize RTL modules to mapped netlists.

    A thin facade over :mod:`repro.flow`: every ``compile`` call builds
    the default pipeline for the given options and runs it on a fresh
    context, mapping onto the default cell library
    (:func:`repro.tech.cells.default_library`).  Callers who need to
    compose, reorder, or instrument the flow, or to map onto another
    registered library (``map{library=...}``), construct a
    :class:`~repro.flow.PassManager` directly.
    """

    def compile(
        self,
        module: Module,
        options: CompileOptions | None = None,
        cache=None,
    ) -> CompileResult:
        """Run the full flow on ``module``.

        ``cache`` is a :class:`~repro.flow.cache.CompileCache`; on a
        fingerprint hit the synthesis is skipped entirely and the
        result is repackaged from the cached context.
        """
        options = options or CompileOptions()
        ctx = run_default_flow(module, options, cache=cache)
        return result_from_context(ctx, options)
