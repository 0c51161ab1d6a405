"""A Smart Memories-style protocol controller (PCtrl) model.

The paper's Section II-C / III-C case study: a table-driven protocol
controller shared by four processor tiles, moving cache lines through
four data pipes under microcode control.  The real chip cannot be
redistributed, so this package implements a scaled structural model
with the properties Fig. 9 depends on:

* a microcoded Dispatch unit (sequencer + dispatch table + microcode
  memory) whose configuration storage dominates the flexible design;
* four data pipes with their own control FSMs and line staging
  buffers (substantial *non-configuration* state, so specialization
  halves rather than eliminates sequential area);
* cached-coherence and uncached microprograms of very different
  sizes, so reachable-state pruning matters only for uncached mode.

Entry point: :func:`~repro.smartmem.pctrl.build_pctrl` (the flexible
design + generator knowledge: per-configuration bindings and state
annotations).  The Full/Auto/Manual compile jobs of Fig. 9 are built
from it by :func:`repro.expts.fig9_pctrl.build_jobs`.
"""

from repro.smartmem.config import MemoryMode, PCtrlConfig, PCtrlParams, RequestOp
from repro.smartmem.pctrl import PCtrlDesign, build_pctrl

__all__ = [
    "MemoryMode",
    "PCtrlConfig",
    "PCtrlDesign",
    "PCtrlParams",
    "RequestOp",
    "build_pctrl",
]
