"""Fig. 5: table-based combinational logic vs direct sum-of-products.

For random multi-output functions over a (depth x width) grid, build
the :class:`~repro.tables.truthtable.TruthTable` controller IR once
per grid point and lower it two ways *inside the flow*:

* ``table_rom`` -- the *table-based* implementation: the function
  bound into a ROM read (what a generator emits; partial evaluation
  folds it into logic), and
* ``table_minimize`` -- the *direct* implementation: per-output
  two-level sum-of-products RTL (what a designer would hand-write),

synthesize both to the same achievable timing target, and scatter the
areas against the equal-area line.  The paper's claim: the points
hug the line over ~3 decades, with table-based occasionally *winning*
at large depths because SOP starting points are not ideal either.

Each compile job carries the IR, not a pre-built module -- the whole
run is spec strings over ``compile_many``, so the lowering is cached
and fingerprinted together with the synthesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.expts.common import (
    ExperimentPoint,
    ExperimentResult,
    format_table,
)
from repro.expts.scatter import render_scatter
from repro.flow import CompileJob, PassManager, compile_many
from repro.flow.passes import (
    ElaboratePass,
    OptimizeLoop,
    SizePass,
    TechMapPass,
)
from repro.tables.truthtable import TruthTable

#: The paper's full grid.
PAPER_DEPTHS = (2, 8, 16, 32, 64, 256, 1024)
PAPER_WIDTHS = (2, 4, 16, 32, 64)


@dataclass(frozen=True)
class Fig5Scale:
    """Sweep sizes per scale level."""

    depths: tuple[int, ...]
    widths: tuple[int, ...]
    seeds: tuple[int, ...]

    @classmethod
    def named(cls, name: str) -> "Fig5Scale":
        if name == "small":
            return cls((2, 8, 16, 32), (2, 4, 8), (0,))
        if name == "medium":
            return cls((2, 8, 16, 32, 64, 256), (2, 4, 16), (0, 1))
        if name == "paper":
            return cls(PAPER_DEPTHS, PAPER_WIDTHS, (0, 1))
        raise ValueError(f"unknown scale {name!r}")


def _comb_spec(clock_period_ns: float) -> str:
    """The combinational RTL-onward flow, rendered to spec syntax."""
    return PassManager(
        [
            ElaboratePass(),
            OptimizeLoop(),
            TechMapPass(),
            SizePass(clock_period_ns=clock_period_ns),
        ]
    ).spec()


def run_fig5(
    scale: str = "small",
    clock_period_ns: float = 20.0,
    sweep_timing: bool = False,
    workers: int = 1,
    cache=None,
    pipeline: "str | None" = None,
    server: "str | None" = None,
) -> ExperimentResult:
    """Run the Fig. 5 sweep at the given scale.

    With ``sweep_timing`` each pair is additionally synthesized to a
    *tightened* common target (80% of the slower design's achieved
    delay), reproducing the paper's sweep over achievable timing
    targets; pairs where either design misses the tight target are
    dropped, per the paper's "only compare designs that synthesized to
    identical timing targets".

    ``workers``/``cache`` fan the independent compiles out across
    processes and skip fingerprint-identical jobs (see
    :func:`repro.flow.compile_many`); the result tables stay
    byte-identical to a cold serial run.  ``pipeline`` (a spec string)
    replaces the default relaxed-target RTL flow; each treatment's
    lowering pass (``table_rom`` / ``table_minimize``) is prepended by
    the driver.  The tightened phase always uses the standard
    combinational pipeline.
    """
    config = Fig5Scale.named(scale)
    # Purely combinational designs: no FSM handling, just lower ->
    # elaborate -> optimize to convergence -> map -> size.
    if pipeline is None:
        body = _comb_spec(clock_period_ns)
    else:
        body = PassManager.parse(pipeline).spec()
    result = ExperimentResult(
        "Fig. 5 -- table-based combinational logic vs sum-of-products",
        f"Random functions, depths {config.depths}, widths "
        f"{config.widths}, seeds {config.seeds}; identical relaxed "
        f"timing target ({clock_period_ns} ns) for both designs"
        + ("; plus a tightened common target per pair." if sweep_timing else "."),
    )

    grid = [
        (depth, width, seed)
        for depth in config.depths
        for width in config.widths
        for seed in config.seeds
    ]
    tables = {}
    jobs = []
    for depth, width, seed in grid:
        num_inputs = (depth - 1).bit_length()
        rng = random.Random(hash((depth, width, seed)) & 0xFFFFFFFF)
        table = TruthTable.random(num_inputs, width, rng)
        label = f"d{depth}w{width}s{seed}"
        tables[label] = table
        jobs.append(
            CompileJob(
                (label, "table"), f"table_rom,{body}",
                ctrl=table,
            )
        )
        jobs.append(
            CompileJob(
                (label, "sop"), f"table_minimize,{body}",
                ctrl=table,
            )
        )
    compiled = compile_many(jobs, workers=workers, cache=cache, server=server)
    result.meta["pipeline"] = body
    result.meta["clock_period_ns"] = clock_period_ns

    # The tightened targets depend on the relaxed-phase timing, so the
    # sweep is a second fan-out.
    tight_compiled = {}
    if sweep_timing:
        tight_jobs = []
        for depth, width, seed in grid:
            label = f"d{depth}w{width}s{seed}"
            table_result = compiled[(label, "table")]
            sop_result = compiled[(label, "sop")]
            if (
                sop_result.area.combinational <= 0
                or table_result.area.combinational <= 0
            ):
                continue
            slower = max(
                table_result.timing.critical_delay,
                sop_result.timing.critical_delay,
            )
            tight_body = _comb_spec(max(slower * 0.8, 0.05))
            tight_jobs.append(
                CompileJob(
                    (label, "table"), f"table_rom,{tight_body}",
                    ctrl=tables[label],
                )
            )
            tight_jobs.append(
                CompileJob(
                    (label, "sop"), f"table_minimize,{tight_body}",
                    ctrl=tables[label],
                )
            )
        tight_compiled = compile_many(
            tight_jobs, workers=workers, cache=cache, server=server
        )

    rows = []
    for depth, width, seed in grid:
        label = f"d{depth}w{width}s{seed}"
        table_area = compiled[(label, "table")].area.combinational
        sop_area = compiled[(label, "sop")].area.combinational
        if sop_area <= 0 or table_area <= 0:
            continue  # degenerate (constant) function
        result.points.append(
            ExperimentPoint(
                "table-based", sop_area, table_area, label,
                {"depth": depth, "width": width, "seed": seed},
            )
        )
        rows.append(
            [
                str(depth),
                str(width),
                str(seed),
                f"{sop_area:.1f}",
                f"{table_area:.1f}",
                f"{table_area / sop_area:.3f}",
            ]
        )
        if not sweep_timing:
            continue
        tight_table = tight_compiled[(label, "table")]
        tight_sop = tight_compiled[(label, "sop")]
        if not (tight_table.sizing.met and tight_sop.sizing.met):
            continue  # not an identical achievable target
        result.points.append(
            ExperimentPoint(
                "table-based (tight)",
                tight_sop.area.combinational,
                tight_table.area.combinational,
                label,
                {"depth": depth, "width": width, "seed": seed},
            )
        )
    result.tables["Area per design pair (um^2)"] = format_table(
        ["depth", "width", "seed", "SOP", "table", "ratio"], rows
    )
    result.tables["Scatter"] = render_scatter(
        result.points, title="Fig. 5: y=table-based vs x=SOP area (um^2)"
    )
    stats = result.ratio_stats("table-based")
    result.notes.append(
        f"geomean table/SOP area ratio = {stats.geomean:.3f} "
        f"(paper: points on the equal-area line)"
    )
    wins = sum(1 for p in result.points if p.ratio < 1.0)
    result.notes.append(
        f"table-based wins {wins}/{len(result.points)} pairs "
        f"(paper: 'sometimes observe slightly better results for "
        f"table-based representations')"
    )
    return result
