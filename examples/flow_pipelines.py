#!/usr/bin/env python3
"""The flow API: compose, reorder, and instrument synthesis pipelines.

Five demonstrations on one FSM:

1. parse a pipeline from a spec string and read the per-pass
   instrumentation (``PassRecord``: wall time, AND-count deltas);
2. compare pass *orderings* — balance-then-rewrite vs
   rewrite-then-balance — which the old monolithic driver could not
   express;
3. register a custom pass and use it from a spec string;
4. start from the *controller IR*: the FSM spec itself enters the
   pipeline and a ``ctrl``-stage pass lowers it, so state-encoding
   ablations (onehot vs gray vs binary) are one spec token;
5. ablate the *backend*: extend the recipe with resubstitution and
   don't-care-aware rewriting, and map against every registered
   library -- one spec string per (recipe, library) variant.

Run:  python examples/flow_pipelines.py
"""

from repro.controllers import FsmSpec, fsm_to_table_rtl
from repro.flow import Pass, PassManager, register_pass
from repro.flow.passes import (
    ElaboratePass,
    OptimizeLoop,
    SizePass,
    TechMapPass,
)
from repro.synth.elaborate import elaborate


def demo_spec():
    return FsmSpec(
        "stream",
        num_inputs=2,
        num_outputs=4,
        num_states=5,
        reset_state=0,
        next_state=[
            [0, 1, 2, 1],
            [2, 2, 3, 3],
            [3, 4, 3, 4],
            [4, 0, 1, 0],
            [0, 0, 2, 2],
        ],
        output=[
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9, 10, 11],
            [12, 13, 14, 15],
            [1, 3, 5, 7],
        ],
    )


def main() -> None:
    module = fsm_to_table_rtl(demo_spec())

    # -- 1. spec strings + instrumentation ----------------------------
    pipeline = PassManager.parse("elaborate,optimize,map,size")
    ctx = pipeline.compile(module)
    print(f"pipeline: {pipeline.spec()}")
    print(f"area {ctx.area.total:.1f} um^2, "
          f"delay {ctx.timing.critical_delay:.3f} ns")
    print(f"{'pass':16s} {'ms':>8s} {'d-ands':>7s}")
    for record in ctx.records:
        delta = record.delta_ands
        print(f"{record.name:16s} {record.wall_time_s * 1e3:8.2f} "
              f"{delta if delta is not None else '':>7}")

    # -- 2. orderings the monolith could not express ------------------
    aig = elaborate(module).aig
    for spec in ("tt_sweep,balance,rewrite", "tt_sweep,rewrite,balance"):
        out = PassManager.parse(spec).compile(aig=aig)
        print(f"{spec:28s} -> {out.aig.num_ands} ands, "
              f"depth {out.aig.depth()}")

    # -- 3. a custom registered pass ----------------------------------
    @register_pass("double_rewrite")
    class DoubleRewritePass(Pass):
        """Example custom pass: two rewrite applications back to back."""

        def run(self, ctx):
            from repro.aig.rewrite import rewrite

            ctx.aig = rewrite(rewrite(ctx.aig))

    custom = PassManager.parse("seq_sweep,double_rewrite")
    out = custom.compile(aig=aig)
    print(f"custom pipeline {custom.spec()!r} -> {out.aig.num_ands} ands")

    # -- and the full flow, composed from objects ---------------------
    full = PassManager([
        ElaboratePass(),
        OptimizeLoop(effort_rounds=3),
        TechMapPass(),
        SizePass(clock_period_ns=2.0),
    ])
    ctx = full.compile(module)
    print(f"object-composed flow: met={ctx.sizing.met} "
          f"achieved={ctx.sizing.achieved_delay:.3f} ns")

    # -- 4. the frontend stage: lower the IR inside the flow ----------
    # No hand-built RTL: the spec string starts at the controller IR
    # (the paper's thesis), and the encoding is an ablation knob.
    for style in ("binary", "onehot", "gray"):
        pipeline = PassManager.parse(
            f"fsm_encode{{style={style}}},elaborate,optimize,"
            f"state_folding,map,size"
        )
        out = pipeline.compile(ctrl=demo_spec())
        record = next(r for r in out.records if r.name == "fsm_encode")
        print(f"fsm_encode{{style={style}}}: "
              f"{record.ctrl_before.items}-state "
              f"{record.ctrl_before.kind} -> area {out.area.total:.1f} "
              f"um^2, state width "
              f"{out.module.regs['state'].width}")

    # -- 5. backend ablations: resub + don't-cares, and libraries -----
    # The optimization recipe and the cell library are spec tokens
    # like everything else; the techsweep driver runs exactly this
    # grid over whole benchmark sets (python -m repro.expts techsweep).
    from repro.expts.techsweep import RECIPES
    from repro.flow.passes import registered_library_names

    for recipe_name, recipe in RECIPES.items():
        for library in registered_library_names():
            spec = f"fsm_encode,{recipe},map{{library={library}}},size"
            out = PassManager.parse(spec).compile(ctrl=demo_spec())
            print(f"{recipe_name:9s} x {library:12s} -> "
                  f"{out.aig.num_ands:3d} ands, "
                  f"area {out.area.total:7.1f} um^2, "
                  f"delay {out.timing.critical_delay:.3f} ns")


if __name__ == "__main__":
    main()
