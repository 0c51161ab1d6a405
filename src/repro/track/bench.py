"""The per-pass benchmark as a recordable experiment.

``benchmarks/test_bench_passes.py`` asserts that every registered
pass leaves a timed :class:`~repro.flow.core.PassRecord`; this module
holds the shared substance of that benchmark -- the input builders
and the three pipelines that together execute the whole registry --
so the same sweep can be *recorded* into the run store
(``python -m repro.track record bench``) and diffed across commits.

The pipelines partition the registry deliberately:

* the AIG leaf passes run in isolation, so their timings are cleanly
  attributable;
* the ``optimize`` composite runs in its own pipeline, so its body's
  records don't fold into the leaf timings;
* an annotated FSM runs the full RTL-to-netlist flow, covering the
  rtl/netlist-stage passes (and the stage drivers' inner records);
* the frontend (``ctrl``-stage) lowerings each run on their own
  controller IR -- an FSM spec, a truth table, a microprogram, and a
  flexible design with bindings for ``pe_bind``.

Bench records are always produced by *executing* the passes (no
compile cache), because the point is the wall time of this commit's
code, not of whichever commit populated the cache.
"""

from __future__ import annotations

import random

from repro.expts.common import ExperimentResult
from repro.flow import PassManager

#: Registered AIG-stage leaf passes that run out of the box on a bare
#: AIG context.
AIG_LEAF_PASSES = (
    "seq_sweep",
    "tt_sweep",
    "balance",
    "rewrite",
    "resub",
    "dc_rewrite",
    "retime",
)

#: The full RTL-to-netlist flow covering the remaining registered
#: passes (the stage drivers' retime/stateprop records land in the
#: same context).
FULL_FLOW_SPEC = (
    "fsm_infer,honour_annotations,encode,elaborate,optimize,"
    "retime_stage,state_folding,stateprop,map,size"
)

#: The figure name bench runs are stored under.
BENCH_FIGURE = "bench_passes"


def build_table_aig(num_inputs: int = 8, width: int = 16, seed: int = 0):
    """A deterministic random table-read AIG: the standard workload
    the AIG-stage passes are timed on."""
    from repro.aig import ops
    from repro.aig.graph import AIG
    from repro.tables.truthtable import TruthTable

    rng = random.Random(seed)
    table = TruthTable.random(num_inputs, width, rng)
    aig = AIG()
    addr = [aig.add_pi(f"a[{i}]") for i in range(num_inputs)]
    rows = [ops.const_word(word, width) for word in table.rows()]
    data = ops.table_read(aig, addr, rows)
    for bit, lit in enumerate(data):
        aig.add_po(f"d[{bit}]", lit)
    cleaned, _ = aig.cleanup()
    return cleaned


def annotated_fsm_module():
    """A table FSM whose annotation exercises encode and stateprop."""
    from repro.rtl.builder import ModuleBuilder, cat

    b = ModuleBuilder("bench_fsm")
    go = b.input("go")
    state = b.reg("state", 2)
    table = b.rom("nxt", 2, 8, [0, 2, 0, 0, 1, 2, 0, 0])
    b.drive(state, table.read(cat(state, go)))
    b.output("busy", state.ne(0))
    return b.build()


def bench_pipelines() -> dict[str, PassManager]:
    """The pipelines that together cover the pass registry."""
    return {
        "leaf": PassManager.parse(",".join(AIG_LEAF_PASSES)),
        "optimize": PassManager.parse("optimize"),
        "full": PassManager.parse(FULL_FLOW_SPEC),
        "fsm_lower": PassManager.parse("fsm_encode{realize=case}"),
        "table_lower": PassManager.parse("table_rom"),
        "sop_lower": PassManager.parse("table_minimize"),
        "useq_lower": PassManager.parse("microcode_pack,dispatch_rom"),
        "bind": PassManager.parse("pe_bind"),
    }


def frontend_inputs(seed: int = 0):
    """The controller IRs (and the pe_bind module/bindings pair) the
    frontend lowering passes are timed on."""
    from repro.controllers import (
        DispatchTable,
        FsmSpec,
        MicrocodeFormat,
        Program,
        SeqOp,
    )
    from repro.controllers.fsm_rtl import fsm_to_table_rtl, table_rows
    from repro.tables.truthtable import TruthTable

    fsm = FsmSpec(
        "bench_ctrl",
        num_inputs=2,
        num_outputs=3,
        num_states=5,
        reset_state=0,
        next_state=[
            [0, 1, 2, 1], [2, 2, 3, 3], [3, 4, 3, 4],
            [4, 0, 1, 0], [0, 0, 2, 2],
        ],
        output=[
            [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 3],
            [4, 5, 6, 7], [1, 3, 5, 7],
        ],
    )
    table = TruthTable.random(6, 8, random.Random(seed))
    fmt = MicrocodeFormat.horizontal(("cmd", ["read", "write"]))
    dispatch = DispatchTable("dsp", opcode_bits=1, default="idle")
    dispatch.set(1, "work")
    program = Program(fmt, conditions=["busy"], dispatch=dispatch)
    program.label("idle")
    program.inst(seq=SeqOp.DISPATCH)
    program.label("work")
    program.inst(cmd="read")
    program.inst(cmd="write", seq=SeqOp.JUMP, target="idle")
    flexible = fsm_to_table_rtl(fsm, flexible=True)
    bindings = {
        "next_mem": table_rows(fsm, "next"),
        "out_mem": table_rows(fsm, "output"),
    }
    return fsm, table, program, flexible, bindings


def bench_result(contexts, seed: int = 0) -> ExperimentResult:
    """Aggregate completed bench contexts into the stored result form.

    One assembly point for both entry points -- ``track record bench``
    and the pytest benchmark's ``REPRO_RUN_STORE`` hook -- so records
    from either diff cleanly against each other.
    """
    result = ExperimentResult(
        "Per-pass microbenchmark",
        "Every registered pass executed once (leaf passes in "
        "isolation, the optimize composite alone, the full flow on an "
        "annotated FSM, the frontend lowerings on their controller "
        "IRs); totals are per pass name.",
    )
    result.absorb_flow(contexts)
    result.meta["pipelines"] = {
        name: pm.spec() for name, pm in bench_pipelines().items()
    }
    result.meta["seed"] = seed
    slowest = max(
        result.pass_totals.values(), key=lambda t: t.wall_time_s
    )
    result.notes.append(
        f"{len(result.pass_totals)} pass names timed; slowest: "
        f"{slowest.name} at {slowest.wall_time_s * 1e3:.1f} ms"
    )
    return result


def run_pass_bench(seed: int = 0) -> ExperimentResult:
    """Execute every registered pass once and aggregate its timings.

    Returns:
        An :class:`ExperimentResult` named ``bench_passes`` whose
        ``pass_totals`` carry per-pass wall times, call counts, and
        AND-node deltas -- the payload ``track diff`` compares across
        commits.  The result has no figure points; bench records diff
        purely pass-by-pass.
    """
    from repro.synth.dc_options import StateAnnotation

    pipelines = bench_pipelines()
    table_aig = build_table_aig(seed=seed)
    module = annotated_fsm_module()
    annotations = [StateAnnotation("state", (0, 1, 2))]
    fsm, table, program, flexible, bindings = frontend_inputs(seed)

    contexts = [
        pipelines["leaf"].compile(aig=table_aig),
        pipelines["optimize"].compile(aig=table_aig),
        pipelines["full"].compile(module, annotations=annotations),
        pipelines["fsm_lower"].compile(ctrl=fsm),
        pipelines["table_lower"].compile(ctrl=table),
        pipelines["sop_lower"].compile(ctrl=table),
        pipelines["useq_lower"].compile(ctrl=program),
        pipelines["bind"].compile(flexible, bindings=bindings),
    ]
    return bench_result(contexts, seed)


def store_bench_record(contexts, store_dir, commit: str = "HEAD", seed=0):
    """Persist bench contexts as this commit's ``bench_passes`` record.

    The record is shaped identically to what ``track record bench``
    stores (library hash included), so the pytest benchmark's
    ``REPRO_RUN_STORE`` hook and the CLI produce interchangeable
    baselines.

    Returns:
        The path written.
    """
    from repro.flow.store import RunRecord, RunStore, now
    from repro.synth.compiler import DesignCompiler
    from repro.track import resolve_ref

    record = RunRecord(
        figure=BENCH_FIGURE,
        commit=resolve_ref(commit),
        result=bench_result(contexts, seed),
        library=DesignCompiler().library.canonical_hash(),
        created_at=now(),
    )
    return RunStore(store_dir).put(record)
