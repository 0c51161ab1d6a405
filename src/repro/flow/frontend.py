"""The registered frontend (``ctrl``-stage) passes.

The paper's thesis is that chip generators should emit controller
*intermediate representations* -- FSM tables, microcode programs,
dispatch tables -- and let the tool chain transform them.  This module
is that thesis applied to the flow itself: the lowerings from
controller IR to RTL, which used to be ad-hoc calls inside the figure
drivers, are registered passes, so a complete run is one spec string
from IR to sized netlist.

======================  =======  =============================================
spec name               stage    lowering
======================  =======  =============================================
``fsm_encode``          ctrl     :class:`~repro.controllers.fsm.FsmSpec` ->
                                 case or table RTL, optional state
                                 re-encoding (``style=onehot|gray|binary``)
``table_rom``           ctrl     :class:`~repro.tables.truthtable.TruthTable`
                                 -> bound ROM read
``table_minimize``      ctrl     TruthTable -> two-level SOP RTL
                                 (``engine=isop|qm|espresso``)
``microcode_pack``      ctrl     :class:`~repro.controllers.assembler.Program`
                                 -> :class:`AssembledProgram` (IR -> IR)
``dispatch_rom``        ctrl     AssembledProgram -> bound (or flexible)
                                 sequencer RTL + generator uPC annotation
``pe_bind``             rtl      bind context ``bindings`` into the module's
                                 configuration memories (the Auto flow)
======================  =======  =============================================

A ``ctrl`` pass requires a context holding a controller IR and no
lowered module yet; running one on an RTL or AIG context raises
:class:`~repro.flow.core.FlowError` naming the pass.  Every lowering
leaves ``ctx.ctrl`` in place for provenance and records frontend
:class:`~repro.flow.core.CtrlStats` on its :class:`PassRecord`.
"""

from __future__ import annotations

from repro.controllers.assembler import AssembledProgram, Program
from repro.controllers.fsm import FsmSpec
from repro.controllers.fsm_rtl import fsm_to_case_rtl, fsm_to_table_rtl
from repro.controllers.sequencer import SequencerSpec, generate_sequencer
from repro.flow.core import FlowContext, FlowError, Pass, register_pass
from repro.flow.schema import Option, PassSchema
from repro.pe.annotations import derive_annotations
from repro.pe.bind import bind_tables
from repro.synth.dc_options import ENCODING_STYLES, StateAnnotation
from repro.synth.encode import reencode_register
from repro.tables.rtl import SOP_ENGINES, table_to_rom_rtl, table_to_sop_rtl
from repro.tables.truthtable import TruthTable

#: RTL realisations ``fsm_encode`` can lower to.
FSM_REALIZATIONS = ("table", "case")


def _require_ir(pass_: Pass, ctx: FlowContext, ir_type: type):
    """The context's controller IR, type-checked against the pass."""
    if not isinstance(ctx.ctrl, ir_type):
        raise FlowError(
            f"pass {pass_.name!r} needs a {ir_type.__name__} controller "
            f"IR, got {type(ctx.ctrl).__name__}"
        )
    return ctx.ctrl


@register_pass(
    "fsm_encode",
    PassSchema(
        stage="ctrl",
        produces="rtl",
        ir_kinds=("fsm",),
        options={
            "style": Option(
                "str",
                default="same",
                choices=tuple(ENCODING_STYLES),
                help="re-encode the state register while lowering",
            ),
            "realize": Option(
                "str",
                default="table",
                choices=FSM_REALIZATIONS,
                help="case statement vs table-memory RTL",
            ),
            "flexible": Option(
                "bool", default=False,
                help="keep the table memories programmable",
            ),
        },
    ),
)
class FsmEncodePass(Pass):
    """Lower an :class:`FsmSpec` to RTL in the chosen realisation.

    ``realize="case"`` emits the vendor-style case statement (the
    paper's *direct* implementation); ``realize="table"`` emits the
    Fig. 2 table memories, bound as ROMs (``flexible=true`` keeps them
    programmable).  A ``style`` other than ``same`` additionally
    re-encodes the state register at lowering time -- onehot vs gray
    encoding ablations are one spec-string edit -- and asserts the
    matching state annotation, exactly what a generator that knows its
    own tables can do.
    """

    def __init__(self, **options) -> None:
        super().__init__(**options)
        if self.options["flexible"] and self.options["realize"] == "case":
            raise ValueError("a case-statement FSM cannot be flexible")

    def run(self, ctx: FlowContext) -> None:
        spec = _require_ir(self, ctx, FsmSpec)
        style, realize = self.options["style"], self.options["realize"]
        if realize == "case":
            module = fsm_to_case_rtl(spec)
        else:
            module = fsm_to_table_rtl(spec, flexible=self.options["flexible"])
        self.note(
            f"fsm_encode: {spec.name} -> {realize} rtl "
            f"({spec.num_states} states)"
        )
        if style != "same":
            values = tuple(range(spec.num_states))
            module, annotation = reencode_register(
                module, "state", values, style
            )
            ctx.annotations = [
                a for a in ctx.annotations if a.reg_name != "state"
            ] + [annotation]
            self.note(
                f"fsm_encode: state -> {style} ({spec.num_states} states)"
            )
        ctx.module = module


@register_pass(
    "table_rom",
    PassSchema(
        stage="ctrl",
        produces="rtl",
        ir_kinds=("table",),
        options={
            "name": Option(
                "str", default="table", help="generated module name"
            ),
        },
    ),
)
class TableRomPass(Pass):
    """Lower a :class:`TruthTable` to a bound ROM read (the flexible
    style after binding -- elaboration partially evaluates it)."""

    def run(self, ctx: FlowContext) -> None:
        table = _require_ir(self, ctx, TruthTable)
        ctx.module = table_to_rom_rtl(table, self.options["name"])
        self.note(
            f"table_rom: {table.depth}x{table.num_outputs} table -> rom"
        )


@register_pass(
    "table_minimize",
    PassSchema(
        stage="ctrl",
        produces="rtl",
        ir_kinds=("table",),
        options={
            "engine": Option(
                "str",
                default="isop",
                choices=tuple(SOP_ENGINES),
                help="two-level minimization engine",
            ),
            "name": Option("str", default="sop", help="generated module name"),
        },
    ),
)
class TableMinimizePass(Pass):
    """Lower a :class:`TruthTable` to direct two-level SOP RTL,
    minimized by the chosen engine (``isop``, exact ``qm``, or
    ``espresso`` improvement) -- the paper's hand-written style, and
    the table-engine ablation knob."""

    def run(self, ctx: FlowContext) -> None:
        table = _require_ir(self, ctx, TruthTable)
        engine = self.options["engine"]
        ctx.module = table_to_sop_rtl(table, self.options["name"], engine)
        self.note(
            f"table_minimize: {table.depth}x{table.num_outputs} table -> "
            f"sop ({engine})"
        )


@register_pass(
    "microcode_pack",
    PassSchema(
        stage="ctrl",
        ir_kinds=("program",),
        produces_kind="microcode",
        options={
            "addr_bits": Option(
                "int", default=None, nullable=True, min=1,
                help="microcode address width (default: fit the program)",
            ),
            "cond_bits": Option(
                "int", default=2, min=1, help="condition-select field width"
            ),
        },
    ),
)
class MicrocodePackPass(Pass):
    """Assemble a symbolic :class:`Program` into its bit-level
    :class:`AssembledProgram` image (IR -> IR: labels resolve, fields
    pack, the attached dispatch table rides along)."""

    def run(self, ctx: FlowContext) -> None:
        program = _require_ir(self, ctx, Program)
        ctx.ctrl = program.assemble(**self.options)
        self.note(
            f"microcode_pack: {ctx.ctrl.length} instructions -> "
            f"{ctx.ctrl.word_width}-bit words @ {ctx.ctrl.addr_bits} "
            f"addr bits"
        )


@register_pass(
    "dispatch_rom",
    PassSchema(
        stage="ctrl",
        produces="rtl",
        ir_kinds=("microcode",),
        options={
            "name": Option(
                "str", default="useq", help="generated module name"
            ),
            "flexible": Option(
                "bool", default=False,
                help="programmable config memories instead of ROMs",
            ),
            "annotate": Option(
                "bool", default=True,
                help="assert the generator-side uPC reachability annotation",
            ),
            "num_conditions": Option(
                "int", default=None, nullable=True, min=1,
                help="condition inputs (default: the program's)",
            ),
        },
    ),
)
class DispatchRomPass(Pass):
    """Lower an :class:`AssembledProgram` to the Fig. 3 sequencer RTL.

    The microcode and dispatch table become ROMs (``flexible=true``
    keeps them programmable config memories instead), and -- for bound
    programs -- the generator-side uPC reachability annotation is
    asserted on the context, the paper's "straightforward for a
    generator to produce these annotations" in pass form.
    """

    def run(self, ctx: FlowContext) -> None:
        program = _require_ir(self, ctx, AssembledProgram)
        flexible = self.options["flexible"]
        num_conditions = self.options["num_conditions"] or max(
            1, len(program.condition_names)
        )
        spec = SequencerSpec(
            name=self.options["name"],
            format=program.format,
            addr_bits=program.addr_bits,
            cond_bits=program.cond_bits,
            num_conditions=num_conditions,
            opcode_bits=(
                0 if program.dispatch is None else program.dispatch.opcode_bits
            ),
            flexible=flexible,
        )
        generated = generate_sequencer(
            spec, program=None if flexible else program
        )
        ctx.module = generated.module
        self.note(
            f"dispatch_rom: {program.length} instructions -> "
            f"{'flexible' if flexible else 'bound'} sequencer "
            f"{spec.name!r}"
        )
        annotation = generated.upc_annotation
        if self.options["annotate"] and annotation is not None:
            if not any(
                a.reg_name == annotation.reg_name for a in ctx.annotations
            ):
                ctx.annotations.append(annotation)
                self.note(
                    f"dispatch_rom: upc reaches "
                    f"{len(annotation.values)} addresses"
                )


@register_pass(
    "pe_bind",
    PassSchema(
        stage="rtl",
        needs_bindings=True,
        options={
            "annotate": Option(
                "bool", default=False,
                help="derive reachability annotations from the bound design",
            ),
            "regs": Option(
                "str", default=None, nullable=True,
                help="comma-separated registers to annotate (default: all)",
            ),
        },
    ),
)
class PeBindPass(Pass):
    """Bind the context's configuration contents into the module.

    The bindings (``{memory name: row words}``) are design state, not
    pipeline structure: seed them through ``compile(bindings=...)`` or
    :class:`~repro.flow.parallel.CompileJob.bindings`, the same way
    state annotations travel.  ``annotate=true`` additionally derives
    reachability annotations from the bound design (``regs`` narrows
    the derivation to a comma-separated register list) -- the Auto
    flow of the Fig. 9 study as one pipeline item.
    """

    def run(self, ctx: FlowContext) -> None:
        if ctx.bindings is None:
            raise FlowError(
                f"pass {self.name!r} needs configuration bindings on the "
                f"context (compile(bindings=...) or CompileJob.bindings)"
            )
        ctx.module = bind_tables(ctx.module, ctx.bindings)
        self.note(f"pe_bind: bound {len(ctx.bindings)} table(s)")
        if self.options["annotate"]:
            regs = self.options["regs"]
            if regs is not None:
                regs = [name for name in regs.split(",") if name]
            for annotation in derive_annotations(ctx.module, regs):
                if not any(
                    a.reg_name == annotation.reg_name for a in ctx.annotations
                ):
                    ctx.annotations.append(annotation)
                    self.note(
                        f"pe_bind: {annotation.reg_name} reaches "
                        f"{len(annotation.values)} states"
                    )
