"""Fig. 9: Smart Memories PCtrl area, Full / Auto / Manual.

Compiles the flexible PCtrl once ("Full" -- the hardware is
configuration-independent), then the Auto and Manual specializations
for the Cached and Uncached configurations, and tabulates
combinational and sequential area per bar, exactly the axes of the
paper's figure.  A switched-capacitance proxy (area-weighted) stands
in for the paper's paired power claim.

Every job ships the *flexible* module plus its configuration data:
the Auto/Manual binding happens inside the flow (the ``pe_bind``
pass), so the whole run is spec strings over ``compile_many`` and the
binding is fingerprinted and cached with the synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.expts.common import ExperimentResult, format_table
from repro.flow import CompileJob, compile_many, default_pipeline
from repro.smartmem.config import CACHED_CONFIG, UNCACHED_CONFIG, PCtrlParams
from repro.smartmem.pctrl import PCtrlDesign, build_pctrl
from repro.synth.dc_options import CompileOptions


@dataclass(frozen=True)
class Fig9Scale:
    params: PCtrlParams

    @classmethod
    def named(cls, name: str) -> "Fig9Scale":
        if name == "small":
            # The microprograms address four pipes; shrink the datapath
            # (word width, queue) instead of the pipe count.
            return cls(
                PCtrlParams(
                    num_pipes=4,
                    word_bits=8,
                    max_line_words=8,
                    ucode_addr_bits=6,
                    queue_depth=2,
                )
            )
        if name in ("medium", "paper"):
            return cls(PCtrlParams())
        raise ValueError(f"unknown scale {name!r}")


def build_jobs(design: PCtrlDesign) -> "list[CompileJob]":
    """The five distinct syntheses of the figure, each on the flexible
    module: Full is configuration-independent; Auto binds one
    configuration in-flow (``pe_bind``) with no cross-flop knowledge;
    Manual adds the generator's opcode-pinned state annotations.  All
    run the facade's default flow at the paper's 5 ns clock with no
    re-encoding (the annotations assert value sets without changing
    codes, as the hand-tuned netlists kept their encodings).

    This is the one definition of the figure's jobs: :func:`run_fig9`
    submits them and ``repro.check specs`` lints them.
    """
    body = default_pipeline(
        CompileOptions(clock_period_ns=5.0, fsm_encoding="same")
    ).spec()
    jobs = [CompileJob(("full", "any"), body, module=design.flexible)]
    for config, config_name in (
        (CACHED_CONFIG, "cached"),
        (UNCACHED_CONFIG, "uncached"),
    ):
        bindings = design.bindings(config)
        jobs.append(
            CompileJob(
                ("auto", config_name), f"pe_bind,{body}",
                module=design.flexible, bindings=bindings,
            )
        )
        jobs.append(
            CompileJob(
                ("manual", config_name), f"pe_bind,{body}",
                module=design.flexible, bindings=bindings,
                annotations=tuple(
                    design.annotations(config, pinned_opcodes=True)
                ),
            )
        )
    return jobs


def run_fig9(
    scale: str = "medium",
    workers: int = 1,
    cache=None,
    server: "str | None" = None,
) -> ExperimentResult:
    """Run the Full/Auto/Manual comparison.

    The five jobs of :func:`build_jobs` are independent: ``workers``
    fans them out across processes and ``cache`` skips
    fingerprint-identical reruns (see :func:`repro.flow.compile_many`).
    """
    params = Fig9Scale.named(scale).params
    jobs = build_jobs(build_pctrl(params))
    compiled = compile_many(jobs, workers=workers, cache=cache, server=server)

    def area(flow, config_name):
        key = ("full", "any") if flow == "full" else (flow, config_name)
        return compiled[key].area

    result = ExperimentResult(
        "Fig. 9 -- PCtrl area: Full / Auto / Manual x Cached / Uncached",
        f"PCtrl model ({params.num_pipes} pipes, "
        f"{params.word_bits}-bit words, {params.max_line_words}-word "
        f"lines, {1 << params.ucode_addr_bits}-entry microcode); "
        f"5 ns clock, TSMC-90nm-class library.",
    )
    result.meta["pipelines"] = {
        "/".join(job.key): job.pipeline for job in jobs
    }
    rows = []
    for config_name in ("cached", "uncached"):
        for flow in ("full", "auto", "manual"):
            flow_area = area(flow, config_name)
            rows.append(
                [
                    config_name,
                    flow,
                    f"{flow_area.combinational:.0f}",
                    f"{flow_area.sequential:.0f}",
                    f"{flow_area.total:.0f}",
                    f"{flow_area.total * 1.0:.0f}",  # power proxy ~ area
                ]
            )
    result.tables["Area (um^2) and switched-cap power proxy"] = format_table(
        ["config", "flow", "comb", "seq", "total", "power~"], rows
    )

    for config_name in ("cached", "uncached"):
        full_area = area("full", config_name)
        auto_area = area("auto", config_name)
        result.notes.append(
            f"{config_name}: Auto/Full comb = "
            f"{auto_area.combinational / full_area.combinational:.2f}, "
            f"seq = {auto_area.sequential / full_area.sequential:.2f} "
            f"(paper: partial evaluation roughly halves both)"
        )
    manual_gain_unc = 1 - (
        area("manual", "uncached").total / area("auto", "uncached").total
    )
    manual_gain_cached = 1 - (
        area("manual", "cached").total / area("auto", "cached").total
    )
    result.notes.append(
        f"Manual saves {manual_gain_unc:.1%} over Auto in uncached mode "
        f"vs {manual_gain_cached:.1%} in cached mode (paper: ~16% vs "
        f"'minimal')"
    )
    return result
