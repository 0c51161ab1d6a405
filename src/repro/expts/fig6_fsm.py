"""Fig. 6: table-based FSMs vs case-statement FSMs.

For random Mealy machines over the paper's (m, n, s) grid, ship the
:class:`~repro.controllers.fsm.FsmSpec` controller IR into the flow
and lower it per treatment:

* ``fsm_encode{realize=case}`` -- the *direct* case-statement style
  (FSM inference re-encodes it),
* ``fsm_encode`` (table realisation) with no help ("Regular"), and
* the same lowering with ``set_fsm_state_vector`` /
  ``set_fsm_encoding`` supplied as seeded annotations
  ("State annotated"),

and scatter table-based areas against the case-statement areas.  The
paper's claims: Regular shows upward variance concentrated at
non-power-of-two state counts (s in {3, 17}), while annotated tables
synthesize nearly identically to the case style.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.controllers.fsm_random import random_fsm
from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    format_table,
)
from repro.expts.scatter import render_scatter
from repro.flow import (
    CompileJob,
    PassManager,
    compile_many,
    optimize_loop,
    state_folding,
)
from repro.flow.passes import (
    ElaboratePass,
    EncodePass,
    FsmInferPass,
    HonourAnnotationsPass,
    SizePass,
    TechMapPass,
)
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import StateAnnotation

PAPER_INPUTS = (2, 8)
PAPER_OUTPUTS = (2, 8, 16)
PAPER_STATES = (2, 3, 8, 16, 17)

#: The lowering prefix per treatment; ``run_fig6`` prepends one of
#: these to the shared RTL-onward body.
LOWERINGS = {
    "case": "fsm_encode{realize=case}",
    "table": "fsm_encode",
}


def default_body(clock_period_ns: float = 20.0) -> str:
    """The shared RTL-onward pipeline body of every Fig. 6 treatment,
    as a spec string (``repro.check specs`` lints this without running
    the experiment, so it must stay the exact pipeline
    :func:`run_fig6` builds)."""
    return PassManager(
        [
            FsmInferPass(),
            HonourAnnotationsPass(),
            EncodePass("binary"),
            ElaboratePass(),
            optimize_loop(),
            state_folding(),
            TechMapPass(),
            SizePass(clock_period_ns),
        ]
    ).spec()


@dataclass(frozen=True)
class Fig6Scale:
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    states: tuple[int, ...]
    seeds: tuple[int, ...]

    @classmethod
    def named(cls, name: str) -> "Fig6Scale":
        if name == "small":
            return cls((2,), (2, 8), (2, 3, 8), (0,))
        if name == "medium":
            return cls((2,), PAPER_OUTPUTS, PAPER_STATES, (0, 1))
        if name == "paper":
            return cls(PAPER_INPUTS, PAPER_OUTPUTS, PAPER_STATES, (0, 1))
        raise ValueError(f"unknown scale {name!r}")


def run_fig6(
    scale: str = "small",
    compiler: DesignCompiler | None = None,
    clock_period_ns: float = 20.0,
    workers: int = 1,
    cache=None,
    pipeline: "PassManager | str | None" = None,
    server: "str | None" = None,
) -> ExperimentResult:
    """Run the Fig. 6 sweep at the given scale.

    ``workers`` fans the independent compiles out across processes and
    ``cache`` (a :class:`~repro.flow.CompileCache`) skips jobs whose
    fingerprints were already compiled; both leave the result tables
    byte-identical to a cold serial run.  ``pipeline`` (a spec string
    or a ready pipeline ending in map/size stages) replaces the default
    RTL-onward flow for every treatment -- the ROADMAP's pass-order
    ablations; the driver prepends each treatment's ``fsm_encode``
    lowering item.
    """
    config = Fig6Scale.named(scale)
    library = (compiler or DesignCompiler()).library
    result = ExperimentResult(
        "Fig. 6 -- FSM synthesis: table-based vs case-statement",
        f"Random FSMs, m in {config.inputs}, n in {config.outputs}, "
        f"s in {config.states}, seeds {config.seeds}; identical "
        f"relaxed timing target ({clock_period_ns} ns).",
    )
    # One RTL-onward body serves all three treatments: FSM inference
    # plus binary re-encoding of whatever annotations are present
    # (inferred for the case style, user-supplied for the annotated
    # treatment, none for the regular treatment).  The treatments
    # differ only in the lowering prefix and the seeded annotations.
    if pipeline is None:
        body = default_body(clock_period_ns)
    elif isinstance(pipeline, str):
        body = PassManager.parse(pipeline).spec()
    else:
        body = pipeline.spec()
    lowerings = LOWERINGS

    grid = [
        (m, n, s, seed)
        for m in config.inputs
        for n in config.outputs
        for s in config.states
        for seed in config.seeds
    ]
    jobs = []
    for m, n, s, seed in grid:
        rng = random.Random(hash((m, n, s, seed)) & 0xFFFFFFFF)
        spec = random_fsm(m, n, s, rng)
        label = f"m{m}n{n}s{s}x{seed}"
        jobs.append(
            CompileJob(
                (label, "case"), f"{lowerings['case']},{body}",
                ctrl=spec, library=library,
            )
        )
        jobs.append(
            CompileJob(
                (label, "regular"), f"{lowerings['table']},{body}",
                ctrl=spec, library=library,
            )
        )
        jobs.append(
            CompileJob(
                (label, "annotated"), f"{lowerings['table']},{body}",
                ctrl=spec,
                annotations=(StateAnnotation("state", tuple(range(s))),),
                library=library,
            )
        )
    compiled = compile_many(jobs, workers=workers, cache=cache, server=server)
    result.meta["pipeline"] = body
    result.meta["lowerings"] = dict(lowerings)
    result.meta["clock_period_ns"] = clock_period_ns

    rows = []
    for m, n, s, seed in grid:
        label = f"m{m}n{n}s{s}x{seed}"
        case_area = compiled[(label, "case")].area.total
        regular_area = compiled[(label, "regular")].area.total
        annotated_area = compiled[(label, "annotated")].area.total
        result.points.append(
            ExperimentPoint(
                "regular", case_area, regular_area, label,
                {"m": m, "n": n, "s": s},
            )
        )
        result.points.append(
            ExperimentPoint(
                "state annotated", case_area, annotated_area,
                label, {"m": m, "n": n, "s": s},
            )
        )
        rows.append(
            [
                str(m), str(n), str(s), str(seed),
                f"{case_area:.1f}",
                f"{regular_area:.1f}",
                f"{annotated_area:.1f}",
            ]
        )
    result.tables["Area per FSM (um^2)"] = format_table(
        ["m", "n", "s", "seed", "case", "table", "table+annot"], rows
    )
    result.tables["Scatter"] = render_scatter(
        result.points,
        title="Fig. 6: y=table-based vs x=case-statement area (um^2)",
    )
    regular = result.ratio_stats("regular")
    annotated = result.ratio_stats("state annotated")
    result.notes.append(
        f"regular geomean ratio {regular.geomean:.3f} "
        f"(spread {regular.log_spread:.3f}); annotated geomean "
        f"{annotated.geomean:.3f} (spread {annotated.log_spread:.3f}) -- "
        f"paper: annotation makes table-based 'nearly identical'"
    )
    odd = [
        p.ratio
        for p in result.series("regular")
        if p.meta["s"] in (3, 17)
    ]
    if odd:
        worst = max(odd)
        result.notes.append(
            f"worst regular ratio at s in {{3,17}}: {worst:.3f} "
            f"(paper: variance concentrates at non-power-of-two s)"
        )
    return result
