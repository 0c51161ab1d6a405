#!/usr/bin/env python3
"""The Smart Memories protocol controller study (the paper's Fig. 9).

Builds the PCtrl model, simulates a cached line fill through the
flexible hardware, then runs the Full / Auto / Manual synthesis flows
for both memory configurations and prints the area comparison.

Uses a reduced-size PCtrl so the whole demo runs in about a minute;
``python -m repro.expts fig9 --scale medium`` runs the full-size model.

Run:  python examples/smart_memories_pctrl.py
"""

from repro.expts.fig9_pctrl import build_jobs
from repro.flow import compile_many
from repro.sim import Simulator
from repro.smartmem import build_pctrl
from repro.smartmem.config import CACHED_CONFIG, PCtrlParams, RequestOp


def demo_transaction(design) -> None:
    """Program the flexible hardware and run one coherence request."""
    sim = Simulator(design.flexible)
    for mem_name, rows in design.bindings(CACHED_CONFIG).items():
        for addr, word in enumerate(rows):
            sim.step(
                {
                    f"{mem_name}_we": 1,
                    f"{mem_name}_waddr": addr,
                    f"{mem_name}_wdata": word,
                }
            )
    sim.reset()

    sim.step(
        {"req_valid": 1, "req_op": int(RequestOp.READ_SHARED), "req_addr": 0x3C}
    )
    print("cycle  pipe0_re  pipe0_addr  ack")
    for cycle in range(16):
        out = sim.step({"hit": 0, "mem_din": 0xA0 + cycle})
        print(
            f"{cycle:5d}  {out['pipe0_re']:8d}  {out['pipe0_addr']:#10x}"
            f"  {out['ack']:3d}"
        )
        if out["ack"]:
            break


def main() -> None:
    params = PCtrlParams(
        num_pipes=4, word_bits=8, max_line_words=8, queue_depth=2
    )
    design = build_pctrl(params)
    print(f"PCtrl model: {design.flexible.stats()}")
    print(f"microcode image: {design.image.length} instructions")
    print()
    demo_transaction(design)
    print()

    # Fig. 9's five jobs: Full, then Auto and Manual per configuration,
    # each binding its configuration in-flow (the pe_bind pass).
    compiled = compile_many(build_jobs(design))

    print("flow             comb um^2   seq um^2   total um^2")
    for (flow, config_name), ctx in compiled.items():
        name = flow if flow == "full" else f"{flow}/{config_name}"
        area = ctx.area
        print(
            f"{name:15s}  {area.combinational:9.1f}  {area.sequential:9.1f}"
            f"  {area.total:11.1f}"
        )

    auto_unc = compiled[("auto", "uncached")].area.total
    man_unc = compiled[("manual", "uncached")].area.total
    print()
    print(
        f"manual saves {1 - man_unc / auto_unc:.1%} over auto in uncached "
        f"mode (the paper's unreachable-state elimination)"
    )


if __name__ == "__main__":
    main()
