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

from dataclasses import dataclass, replace

from repro.expts.common import ExperimentResult, format_table
from repro.flow import CompileJob, compile_many, default_pipeline
from repro.smartmem.config import (
    CACHED_CONFIG,
    UNCACHED_CONFIG,
    PCtrlConfig,
    PCtrlParams,
)
from repro.smartmem.flows import auto_job, full_job, manual_job
from repro.smartmem.pctrl import build_pctrl
from repro.synth.compiler import (
    CompileResult,
    DesignCompiler,
    result_from_context,
)


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


def run_fig9(
    scale: str = "medium",
    compiler: DesignCompiler | None = None,
    workers: int = 1,
    cache=None,
    server: "str | None" = None,
) -> ExperimentResult:
    """Run the Full/Auto/Manual comparison.

    The five distinct syntheses (Full is configuration-independent;
    Auto and Manual exist per configuration) are independent jobs:
    ``workers`` fans them out across processes and ``cache`` skips
    fingerprint-identical reruns (see :func:`repro.flow.compile_many`).
    """
    params = Fig9Scale.named(scale).params
    compiler = compiler or DesignCompiler()
    design = build_pctrl(params)

    # The (module, bindings, annotations, options) tuples each flow
    # synthesizes, from their single definition in
    # repro.smartmem.flows.  Full runs the facade's default flow;
    # Auto/Manual prepend the pe_bind stage.
    inputs: dict[tuple[str, str], tuple] = {}
    inputs[("full", "any")] = full_job(design)
    for config, config_name in (
        (CACHED_CONFIG, "cached"),
        (UNCACHED_CONFIG, "uncached"),
    ):
        inputs[("auto", config_name)] = auto_job(design, config)
        inputs[("manual", config_name)] = manual_job(design, config)
    jobs = []
    for key, (module, bindings, annotations, options) in inputs.items():
        body = default_pipeline(options).spec()
        jobs.append(
            CompileJob(
                key,
                body if bindings is None else f"pe_bind,{body}",
                module=module,
                bindings=bindings,
                annotations=annotations,
                library=compiler.library,
            )
        )
    compiled = compile_many(jobs, workers=workers, cache=cache, server=server)

    runs: dict[tuple[str, str], CompileResult] = {}

    def packaged(key) -> CompileResult:
        _, _, annotations, options = inputs[key]
        return result_from_context(
            compiled[key],
            replace(options, state_annotations=list(annotations)),
        )

    full = packaged(("full", "any"))
    for config_name in ("cached", "uncached"):
        runs[("full", config_name)] = full
        for flow in ("auto", "manual"):
            runs[(flow, config_name)] = packaged((flow, config_name))

    result = ExperimentResult(
        "Fig. 9 -- PCtrl area: Full / Auto / Manual x Cached / Uncached",
        f"PCtrl model ({params.num_pipes} pipes, "
        f"{params.word_bits}-bit words, {params.max_line_words}-word "
        f"lines, {1 << params.ucode_addr_bits}-entry microcode); "
        f"5 ns clock, TSMC-90nm-class library.",
    )
    result.meta["pipelines"] = {
        "/".join(job.key): (
            job.pipeline if isinstance(job.pipeline, str)
            else job.pipeline.spec()
        )
        for job in jobs
    }
    rows = []
    for config_name in ("cached", "uncached"):
        for flow in ("full", "auto", "manual"):
            area = runs[(flow, config_name)].area
            rows.append(
                [
                    config_name,
                    flow,
                    f"{area.combinational:.0f}",
                    f"{area.sequential:.0f}",
                    f"{area.total:.0f}",
                    f"{area.total * 1.0:.0f}",  # power proxy ~ area
                ]
            )
    result.tables["Area (um^2) and switched-cap power proxy"] = format_table(
        ["config", "flow", "comb", "seq", "total", "power~"], rows
    )

    def area(flow, config_name):
        return runs[(flow, config_name)].area

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
