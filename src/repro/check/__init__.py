"""``repro.check`` -- the static verification layer.

Four analyzer families report through one
:class:`~repro.check.diagnostics.Diagnostic` model:

* :mod:`repro.check.spec` typechecks pipeline specs against the pass
  registry without executing anything (unknown passes and options,
  option types and ranges, stage ordering, IR-kind compatibility,
  missing bindings);
* :mod:`repro.check.irlint` lints controller IRs, AIGs, and mapped
  netlists for structural defects (unreachable states, bad jump
  targets, combinational loops, multiple drivers);
* :mod:`repro.check.locks` enforces ``# guarded-by:`` lock
  annotations over the serve stack and the compile cache;
* :mod:`repro.check.dataflow` runs dataflow analyses (worklist
  reachability walks) finding unreachable states, constant fields,
  and dead logic -- the CHK7xx family.

``python -m repro.check`` is the CLI; ``PassManager.compile`` and the
compile server's ``POST /compile`` run the spec typechecker up front,
so a statically wrong pipeline fails before any pass executes.
"""

from repro.check.dataflow import (
    analyze_aig,
    analyze_fsm,
    analyze_guards,
    analyze_ir,
    analyze_microcode,
    analyze_netlist,
    fsm_reachable_states,
)
from repro.check.diagnostics import (
    CODES,
    Diagnostic,
    errors,
    exit_code,
    has_errors,
    render,
)
from repro.check.irlint import (
    lint_aig,
    lint_fsm,
    lint_ir,
    lint_microcode,
    lint_netlist,
    lint_program,
    lint_transitions,
)
from repro.check.locks import check_lock_discipline, default_lock_paths
from repro.check.spec import check_job, check_manager, check_spec

__all__ = [
    "CODES",
    "Diagnostic",
    "analyze_aig",
    "analyze_fsm",
    "analyze_guards",
    "analyze_ir",
    "analyze_microcode",
    "analyze_netlist",
    "check_job",
    "check_lock_discipline",
    "check_manager",
    "check_spec",
    "default_lock_paths",
    "errors",
    "exit_code",
    "fsm_reachable_states",
    "has_errors",
    "lint_aig",
    "lint_fsm",
    "lint_ir",
    "lint_microcode",
    "lint_netlist",
    "lint_program",
    "lint_transitions",
    "render",
]
