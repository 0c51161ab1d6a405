"""Partial evaluation of flexible controller designs.

The generator-side primitives of the paper's methodology:

* :func:`~repro.pe.bind.bind_tables` turns a flexible design (config
  memories, write ports) into a bound design (ROMs) for one
  configuration -- the step before synthesis partially evaluates the
  tables away;
* :func:`~repro.pe.annotations.derive_annotations` computes state
  annotations from the design's own tables (reachability), the
  information a generator should hand the tool alongside the RTL.

Both run inside the flow: the registered ``pe_bind`` pass binds a
job's configuration (``pe_bind{annotate=true}`` also derives the
annotations), and :func:`repro.expts.fig9_pctrl.build_jobs` defines
the Full, Auto and Manual jobs of Fig. 9.
"""

from repro.pe.annotations import derive_annotations, onehot_annotation
from repro.pe.bind import bind_tables

__all__ = [
    "bind_tables",
    "derive_annotations",
    "onehot_annotation",
]
