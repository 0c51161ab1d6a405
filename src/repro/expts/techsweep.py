"""Technology exploration: optimization recipes x cell libraries.

The paper's late-binding argument applied to the *backend*: the same
controller IRs are pushed through several optimization pipelines and
mapped against every registered cell library, in one ``compile_many``
fan-out.  Each (pipeline, library) variant is an ordinary spec string
-- the library rides on ``map{library=...}``, the recipe on the
``resub``/``dc_rewrite`` ablation -- so every job is fingerprinted,
cached, and parallelized like any other compile, and a warm re-run
performs zero synthesis compiles.

The report answers two questions per library: what does each design
cost (area, um^2, in that library's own units) and how do the
libraries compare on identical logic -- every point's ``x`` is the
reference-library area of the same (design, recipe), so the per-series
geomean is the library's area ratio against the reference.
"""

from __future__ import annotations

import random

from repro.controllers.fsm_random import random_fsm
from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    format_table,
)
from repro.flow import CompileJob, PassManager, compile_many
from repro.flow.passes import registered_library_names
from repro.tables.truthtable import TruthTable

#: The library every point's x-axis is measured in.
REFERENCE_LIBRARY = "tsmc90ish"

#: Optimization recipes ablated per library: the classic exact flow
#: against the resubstitution + don't-care-aware extension.
RECIPES = {
    "classic": "elaborate,optimize",
    "resub+dc": "elaborate,optimize,resub,dc_rewrite",
}


def _designs(scale: str) -> dict[str, tuple[str, object]]:
    """Benchmark controllers: {label: (lowering spec prefix, IR)}.

    FSMs enter through ``fsm_encode`` (case realisation + inference +
    re-encoding, like the fig6 case treatment), truth tables through
    ``table_rom`` -- both pure controller IRs, so the sweep exercises
    the frontend stage too.
    """
    if scale == "small":
        fsm_shapes = [(2, 4, 5), (2, 8, 8)]
        table_shapes = [(4, 6)]
    elif scale == "medium":
        fsm_shapes = [(2, 4, 5), (2, 8, 8), (2, 8, 17)]
        table_shapes = [(4, 6), (5, 8), (6, 8)]
    elif scale == "paper":
        fsm_shapes = [
            (2, 4, 5), (2, 8, 8), (2, 8, 16), (2, 8, 17), (2, 16, 17),
        ]
        table_shapes = [(4, 6), (5, 8), (6, 8), (6, 16), (8, 16)]
    else:
        raise ValueError(f"unknown scale {scale!r}")

    fsm_prefix = (
        "fsm_encode{realize=case},fsm_infer,honour_annotations,encode"
    )
    designs: dict[str, tuple[str, object]] = {}
    # Seeds derive from the shape labels, not built-in hash(): the
    # sweep must draw identical designs under every interpreter
    # version, or its pinned table would not hold.
    for inputs, outputs, states in fsm_shapes:
        label = f"fsm_m{inputs}n{outputs}s{states}"
        designs[label] = (
            fsm_prefix,
            random_fsm(
                inputs, outputs, states, random.Random(label), name=label
            ),
        )
    for inputs, width in table_shapes:
        label = f"tbl_i{inputs}w{width}"
        designs[label] = (
            "table_rom",
            TruthTable.random(inputs, width, random.Random(label)),
        )
    return designs


def variant_spec(
    prefix: str, recipe: str, library: str, clock_period_ns: float
) -> str:
    """The complete spec of one (design lowering, recipe, library)."""
    spec = (
        f"{prefix},{recipe},map{{library={library}}},"
        f"size{{clock_period_ns={clock_period_ns!r}}}"
    )
    return PassManager.parse(spec).spec()


def resolve_libraries(
    libraries: tuple[str, ...] | None,
) -> tuple[str, ...]:
    """The library list a sweep explores: the caller's, or every
    registered kit -- always including :data:`REFERENCE_LIBRARY`,
    which the x-axis is measured in."""
    libraries = tuple(libraries or registered_library_names())
    if REFERENCE_LIBRARY not in libraries:
        libraries = (REFERENCE_LIBRARY,) + libraries
    return libraries


def build_jobs(
    scale: str = "small",
    clock_period_ns: float = 20.0,
    libraries: tuple[str, ...] | None = None,
) -> list[CompileJob]:
    """The sweep's complete job grid (designs x recipes x libraries),
    keyed ``(design, recipe, library)``.

    Shared between :func:`run_techsweep` and the prefix-resume pins in
    ``tests/flow/test_prefix_planner.py`` and
    ``tests/serve/test_prefix_flight.py``, which compile this grid
    cold with and without a cache.
    """
    libraries = resolve_libraries(libraries)
    jobs = []
    for label, (prefix, ir) in _designs(scale).items():
        for recipe_name, recipe in RECIPES.items():
            for library in libraries:
                spec = variant_spec(
                    prefix, recipe, library, clock_period_ns
                )
                jobs.append(
                    CompileJob((label, recipe_name, library), spec, ctrl=ir)
                )
    return jobs


def run_techsweep(
    scale: str = "small",
    clock_period_ns: float = 20.0,
    workers: int = 1,
    cache=None,
    server: "str | None" = None,
    libraries: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Fan every design through recipes x libraries and report.

    Args:
        scale: sweep size (``small``/``medium``/``paper``).
        clock_period_ns: common relaxed timing target.
        workers: process fan-out for :func:`repro.flow.compile_many`.
        cache: a :class:`~repro.flow.CompileCache`; warm re-runs
            perform zero compiles.
        libraries: library names to explore; defaults to every
            registered library (``map{library=...}`` names).

    Returns:
        An :class:`ExperimentResult` with one series per explored
        library; each point's ``y`` is a (design, recipe) area in that
        library and ``x`` the same variant's area in
        :data:`REFERENCE_LIBRARY`, so series geomeans read as
        area ratios against the reference kit.
    """
    libraries = resolve_libraries(libraries)
    designs = _designs(scale)

    result = ExperimentResult(
        "Technology exploration -- recipes x libraries",
        f"{len(designs)} controller designs x {len(RECIPES)} "
        f"optimization recipes x {len(libraries)} libraries at a "
        f"{clock_period_ns} ns target; x = {REFERENCE_LIBRARY} area "
        f"of the identical variant.",
    )

    jobs = build_jobs(scale, clock_period_ns, libraries)
    compiled = compile_many(jobs, workers=workers, cache=cache, server=server)

    rows = []
    for label in designs:
        for recipe_name in RECIPES:
            reference = compiled[(label, recipe_name, REFERENCE_LIBRARY)]
            for library in libraries:
                ctx = compiled[(label, recipe_name, library)]
                rows.append(
                    [
                        label,
                        recipe_name,
                        library,
                        f"{ctx.area.total:.1f}",
                        f"{ctx.timing.critical_delay:.3f}",
                        "yes" if ctx.sizing.met else "NO",
                    ]
                )
                if reference.area.total <= 0:
                    continue  # degenerate design: no meaningful ratio
                result.points.append(
                    ExperimentPoint(
                        library,
                        reference.area.total,
                        ctx.area.total,
                        f"{label}/{recipe_name}",
                        {
                            "design": label,
                            "recipe": recipe_name,
                            "library": library,
                        },
                    )
                )
    result.tables["Area/delay per (design, recipe, library)"] = format_table(
        ["design", "recipe", "library", "area", "delay_ns", "met"], rows
    )
    result.meta["libraries"] = list(libraries)
    result.meta["recipes"] = dict(RECIPES)
    result.meta["reference_library"] = REFERENCE_LIBRARY
    result.meta["clock_period_ns"] = clock_period_ns
    for library in libraries:
        stats = result.ratio_stats(library)
        result.notes.append(
            f"{library}: geomean area ratio vs {REFERENCE_LIBRARY} = "
            f"{stats.geomean:.3f} over {stats.count} variants"
        )
    classic_ands = _recipe_and_total(compiled, "classic")
    ablated_ands = _recipe_and_total(compiled, "resub+dc")
    result.notes.append(
        f"resub+dc recipe removes {classic_ands - ablated_ands} more "
        f"AND nodes than the classic recipe across the sweep"
    )
    return result


def _recipe_and_total(compiled, recipe_name: str) -> int:
    """Final AND-node total across one recipe's compiles (reference
    library only, so each design counts once)."""
    total = 0
    for (label, recipe, library), ctx in compiled.items():
        if recipe == recipe_name and library == REFERENCE_LIBRARY:
            total += ctx.aig.num_ands
    return total

