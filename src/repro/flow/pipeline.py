"""The facade's default pipeline.

:func:`default_pipeline` assembles, from a
:class:`~repro.synth.dc_options.CompileOptions`, exactly the flow the
old monolithic ``DesignCompiler.compile`` ran -- same passes, same
order, same convergence rules -- which is what keeps the facade
byte-compatible with the seed implementation.  Experiments compose
the same stages directly: ``OptimizeLoop()``, ``RetimeStage()`` and
``StateFoldingStage()`` from :mod:`repro.flow.passes`.
"""

from __future__ import annotations

from repro.flow.manager import PassManager
from repro.flow.passes import (
    ElaboratePass,
    EncodePass,
    FsmInferPass,
    HonourAnnotationsPass,
    OptimizeLoop,
    RetimeStage,
    SizePass,
    StateFoldingStage,
    TechMapPass,
)
from repro.synth.dc_options import CompileOptions


def run_default_flow(module, options: CompileOptions, cache=None):
    """Run the facade's flow on ``module`` and return the context.

    Seeds the context with ``options.state_annotations`` -- the one
    piece of a ``CompileOptions`` that is design state rather than
    pipeline structure -- so this helper, unlike calling
    ``default_pipeline(options).compile(module)`` bare, honours the
    options completely.  ``cache`` is a
    :class:`~repro.flow.cache.CompileCache`; see
    :meth:`PassManager.compile`.
    """
    return default_pipeline(options).compile(
        module,
        annotations=list(options.state_annotations),
        cache=cache,
    )


def default_pipeline(options: CompileOptions) -> PassManager:
    """The facade's flow, assembled from the classic option knobs.

    Note that ``options.state_annotations`` are *context* state, not
    pipeline structure: pass them to ``compile(annotations=...)`` (or
    use :func:`run_default_flow`, which does) -- a bare
    ``default_pipeline(options).compile(module)`` runs un-annotated.
    """
    pipeline = PassManager()
    if options.infer_fsm:
        pipeline.append(FsmInferPass())
    pipeline.append(HonourAnnotationsPass())
    if options.fsm_encoding != "same":
        pipeline.append(EncodePass(style=options.fsm_encoding))
    pipeline.append(
        ElaboratePass(
            fold_sync_reset=options.fold_sync_reset or options.retime
        )
    )
    effort = dict(
        effort_rounds=options.effort_rounds,
        support_limit=options.sweep_support_limit,
    )
    pipeline.append(OptimizeLoop(**effort))
    if options.retime:
        pipeline.append(RetimeStage(**effort))
    if options.use_state_folding:
        pipeline.append(StateFoldingStage(**effort))
    pipeline.append(TechMapPass())
    pipeline.append(SizePass(clock_period_ns=options.clock_period_ns))
    return pipeline
