"""Fig. 8: state propagation across flop boundaries.

For the Fig. 7 design at each bus width, compile the generic version
under three treatments -- Regular, Retimed, State annotated -- for each
flop style, and scatter generic area against the direct version's
area.  The paper's observations, all of which this driver reproduces
mechanically:

* purely combinational variants always reach the ideal (the tool's
  windowed sweeping *is* state propagation within combinational logic);
* flopped variants do not (value sets stop at registers);
* retiming helps when legal, and legality depends on the reset style
  (a one-hot decoder's all-zero reset vector has no pre-image);
* manual annotation recovers the ideal -- up to the tool's 32-bit
  state-vector cap, so n in {64, 128} stay unoptimized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    format_table,
)
from repro.expts.fig7_design import FLOP_STYLES, build_fig7, onehot_values
from repro.expts.scatter import render_scatter
from repro.flow import (
    CompileJob,
    PassManager,
    compile_many,
    optimize_loop,
    retime_stage,
    state_folding,
)
from repro.flow.passes import (
    ElaboratePass,
    HonourAnnotationsPass,
    SizePass,
    TechMapPass,
)
from repro.synth.compiler import DesignCompiler
from repro.synth.dc_options import StateAnnotation

PAPER_WIDTHS = (2, 4, 8, 16, 32, 64, 128)


def treatment_specs(clock_period_ns: float = 20.0) -> "dict[str, str]":
    """The three treatment pipelines as spec strings (no FSM
    inference, no re-encoding -- the annotated treatment asserts value
    sets on the existing one-hot codes).  The object pipelines only
    exist to render the specs, which keeps every non-default parameter
    faithful; ``repro.check specs`` lints these without running the
    experiment, so :func:`run_fig8` must build its jobs from here."""

    def back_end():
        return [TechMapPass(), SizePass(clock_period_ns)]

    return {
        "regular": PassManager(
            [ElaboratePass(), optimize_loop(), *back_end()]
        ).spec(),
        "retimed": PassManager(
            [
                ElaboratePass(fold_sync_reset=True),
                optimize_loop(),
                retime_stage(),
                *back_end(),
            ]
        ).spec(),
        "annotated": PassManager(
            [
                HonourAnnotationsPass(),
                ElaboratePass(),
                optimize_loop(),
                state_folding(),
                *back_end(),
            ]
        ).spec(),
    }


@dataclass(frozen=True)
class Fig8Scale:
    widths: tuple[int, ...]

    @classmethod
    def named(cls, name: str) -> "Fig8Scale":
        if name == "small":
            return cls((2, 4, 8, 16))
        if name == "medium":
            return cls((2, 4, 8, 16, 32, 64))
        if name == "paper":
            return cls(PAPER_WIDTHS)
        raise ValueError(f"unknown scale {name!r}")


def run_fig8(
    scale: str = "small",
    compiler: DesignCompiler | None = None,
    clock_period_ns: float = 20.0,
    workers: int = 1,
    cache=None,
    server: "str | None" = None,
) -> ExperimentResult:
    """Run the Fig. 8 sweep at the given scale.

    ``workers``/``cache`` fan the independent compiles out across
    processes and skip fingerprint-identical jobs (see
    :func:`repro.flow.compile_many`); the result tables stay
    byte-identical to a cold serial run.
    """
    config = Fig8Scale.named(scale)
    library = (compiler or DesignCompiler()).library
    result = ExperimentResult(
        "Fig. 8 -- generic vs direct area for the Fig. 7 design",
        f"Bus widths {config.widths}; flop styles {FLOP_STYLES}; "
        f"treatments regular/retimed/annotated at a "
        f"{clock_period_ns} ns target.",
    )

    # Each treatment is its own explicit pipeline over the registry
    # (see treatment_specs).
    specs = treatment_specs(clock_period_ns)
    regular = specs["regular"]
    retimed = specs["retimed"]
    annotated = specs["annotated"]

    def treatments_for(n, style):
        treatments = {"regular": (regular, ())}
        if style != "comb":
            treatments["retimed"] = (retimed, ())
            treatments["annotated"] = (
                annotated,
                (StateAnnotation("y", onehot_values(n)),),
            )
        return treatments

    jobs = []
    for n in config.widths:
        for style in FLOP_STYLES:
            direct = build_fig7(n, style, direct=True)
            generic = build_fig7(n, style, direct=False)
            for treatment, (pipeline, annotations) in treatments_for(
                n, style
            ).items():
                # Both designs of a pair get identical settings, the
                # paper's methodology ("we synthesized these pairs of
                # designs ...").
                for role, module in (("direct", direct), ("generic", generic)):
                    jobs.append(
                        CompileJob(
                            (n, style, treatment, role), pipeline,
                            module=module, annotations=annotations,
                            library=library,
                        )
                    )
    with warnings.catch_warnings():
        # The >32-bit annotation warning is the point here.  Workers
        # inherit the filter under the fork start method; under spawn
        # they may still print it to stderr, which is harmless noise.
        warnings.simplefilter("ignore")
        compiled = compile_many(jobs, workers=workers, cache=cache, server=server)
    result.meta["pipelines"] = {
        "regular": regular,
        "retimed": retimed,
        "annotated": annotated,
    }
    result.meta["clock_period_ns"] = clock_period_ns

    rows = []
    for n in config.widths:
        for style in FLOP_STYLES:
            for treatment in treatments_for(n, style):
                direct_area = compiled[(n, style, treatment, "direct")].area.total
                generic_area = compiled[(n, style, treatment, "generic")].area.total
                series = f"{style}/{treatment}"
                result.points.append(
                    ExperimentPoint(
                        series, direct_area, generic_area, f"n{n}",
                        {"n": n, "style": style, "treatment": treatment},
                    )
                )
                rows.append(
                    [
                        str(n), style, treatment,
                        f"{direct_area:.1f}", f"{generic_area:.1f}",
                        f"{generic_area / direct_area:.3f}",
                    ]
                )
    result.tables["Area per variant (um^2)"] = format_table(
        ["n", "flop", "treatment", "direct", "generic", "ratio"], rows
    )
    result.tables["Scatter"] = render_scatter(
        result.points,
        title="Fig. 8: y=generic vs x=direct area (um^2)",
    )
    _add_shape_notes(result)
    return result


def _add_shape_notes(result: ExperimentResult) -> None:
    def ratios(style: str, treatment: str, predicate=lambda n: True):
        return [
            p.ratio
            for p in result.points
            if p.meta["style"] == style
            and p.meta["treatment"] == treatment
            and predicate(p.meta["n"])
        ]

    comb = ratios("comb", "regular")
    if comb:
        result.notes.append(
            f"no-flop regular: max ratio {max(comb):.3f} "
            f"(paper: combinational cases 'always synthesized to the "
            f"ideal case')"
        )
    plain_regular = ratios("plain", "regular")
    if plain_regular:
        result.notes.append(
            f"flopped regular: min ratio {min(plain_regular):.3f} "
            f"(paper: 'all of the synthesized designs failed to achieve "
            f"ideal areas')"
        )
    plain_retime = ratios("plain", "retimed")
    async_retime = ratios("async", "retimed")
    if plain_retime and async_retime:
        result.notes.append(
            f"retimed: plain-flop max ratio {max(plain_retime):.3f} vs "
            f"async-flop min ratio {min(async_retime):.3f} "
            f"(paper: retiming effect 'inconsistent', flop type matters)"
        )
    annotated_small = ratios("plain", "annotated", lambda n: n <= 32)
    annotated_big = ratios("plain", "annotated", lambda n: n > 32)
    if annotated_small:
        result.notes.append(
            f"annotated n<=32: max ratio {max(annotated_small):.3f} "
            f"(paper: 'manual state annotation allows synthesis to "
            f"perform the necessary optimizations in cases where n <= 32')"
        )
    if annotated_big:
        result.notes.append(
            f"annotated n>32: min ratio {min(annotated_big):.3f} "
            f"(annotation dropped by the state-vector cap)"
        )
