"""``repro.flow`` -- a composable pass-pipeline API for synthesis.

The paper's argument is that explicit intermediate representations let
the tool chain transform controllers aggressively; this package applies
the same argument to the tool chain itself.  Instead of one monolithic
``compile`` function, the flow is a :class:`PassManager` over small
:class:`Pass` objects threading a :class:`FlowContext` (RTL module,
AIG, annotations, netlist) from elaboration to sized
netlist, in the style of MLIR's and Calyx's pass managers.

Quick tour::

    from repro.flow import PassManager, FlowContext
    from repro.flow.passes import (
        ElaboratePass, OptimizeLoop, SizePass, TechMapPass,
    )

    # String specs over the registry: repeats ([k]) and conditionals (?).
    comb = PassManager.parse("seq_sweep,tt_sweep,balance,rewrite[2]")
    ctx = comb.compile(aig=my_elaborated_aig)

    # Or compose pass objects, mixing in fixed-point stages.
    full = PassManager([
        ElaboratePass(),
        OptimizeLoop(effort_rounds=3),
        TechMapPass(),
        SizePass(clock_period_ns=5.0),
    ])
    ctx = full.compile(my_module)
    print(ctx.area.total, ctx.timing.critical_delay)
    for record in ctx.records:          # structured instrumentation
        print(record.name, record.wall_time_s, record.delta_ands)

New transforms plug in by registering a pass, declaring its options
once, in its schema::

    from repro.flow.schema import Option, PassSchema

    @register_pass("my_pass", PassSchema(
        stage="aig",
        options={"rounds": Option("int", default=1, min=1)},
    ))
    class MyPass(Pass):
        def run(self, ctx):
            ctx.aig = my_transform(ctx.aig, self.options["rounds"])

after which ``PassManager.parse("...,my_pass{rounds=3},...")`` just
works: the schema checks the value, fills in the default, and renders
``my_pass{rounds=3}`` back (``MyPass(rounds=3)`` in Python).  The
``DesignCompiler`` facade in :mod:`repro.synth.compiler` is a thin
wrapper that builds :func:`~repro.flow.pipeline.default_pipeline` from
``CompileOptions`` -- same numbers, same logs, but every stage now
composable, reorderable, and individually timed.

Compiles are cacheable and parallelizable::

    from repro.flow import CompileCache, CompileJob, compile_many

    cache = CompileCache(".repro-cache")        # memory LRU + disk
    ctx = full.compile(my_module, cache=cache)  # fingerprint-keyed
    results = compile_many(                     # process-pool fan-out
        [CompileJob(i, full.spec(), module=m) for i, m in enumerate(modules)],
        workers=8, cache=cache,
    )

(see :mod:`repro.flow.cache` and :mod:`repro.flow.parallel`).
"""

from repro.flow.cache import (
    CompileCache,
    LocalDirBackend,
    SweepStats,
    fingerprint_prefixes,
    flow_fingerprint,
)
from repro.flow.combinators import (
    Conditional,
    FixedPoint,
    Repeat,
    WhileProgress,
    until_converged,
)
from repro.flow.core import (
    PASS_REGISTRY,
    AigStats,
    ControllerIR,
    CtrlStats,
    FlowContext,
    FlowError,
    Pass,
    PassRecord,
    is_controller_ir,
    make_pass,
    register_pass,
    registered_pass_names,
    render_log,
)
from repro.flow.manager import PassManager
from repro.flow.parallel import (
    CompileJob,
    CompileJobError,
    compile_many,
    default_workers,
)
from repro.flow.pipeline import default_pipeline, run_default_flow

# Importing the pass modules populates the registry: the synthesis
# passes first, then the frontend (controller-IR) lowerings.
from repro.flow import passes as passes  # noqa: F401
from repro.flow import frontend as frontend  # noqa: F401

__all__ = [
    "AigStats",
    "CompileCache",
    "CompileJob",
    "CompileJobError",
    "Conditional",
    "ControllerIR",
    "CtrlStats",
    "FixedPoint",
    "FlowContext",
    "FlowError",
    "LocalDirBackend",
    "PASS_REGISTRY",
    "Pass",
    "PassManager",
    "PassRecord",
    "Repeat",
    "SweepStats",
    "WhileProgress",
    "compile_many",
    "default_pipeline",
    "default_workers",
    "fingerprint_prefixes",
    "flow_fingerprint",
    "frontend",
    "is_controller_ir",
    "make_pass",
    "passes",
    "register_pass",
    "registered_pass_names",
    "render_log",
    "run_default_flow",
    "until_converged",
]
