"""Deriving state annotations from designs and specs.

The paper's position is that annotations should come *from the
generator*, because the generator knows the tables: "It is fairly
straightforward to automatically determine these state annotations
from the FSM tables (or, equivalently, microcode)".  These helpers are
that derivation.
"""

from __future__ import annotations

from repro.rtl.module import Module
from repro.synth.dc_options import StateAnnotation
from repro.synth.reach import reachable_states


def onehot_annotation(reg_name: str, width: int) -> StateAnnotation:
    """Annotate a register as one-hot encoded (the paper's k = n case)."""
    return StateAnnotation(reg_name, tuple(1 << i for i in range(width)))


def derive_annotations(
    module: Module, reg_names: list[str] | None = None
) -> list[StateAnnotation]:
    """Reachability-derived annotations for the given registers.

    Registers whose reachability cannot be computed exactly (data
    registers, cross-coupled state) are silently skipped; registers
    that reach every code yield no annotation.
    """
    names = reg_names if reg_names is not None else sorted(module.regs)
    annotations = []
    for name in names:
        reg = module.regs.get(name)
        if reg is None:
            raise ValueError(f"unknown register {name!r}")
        try:
            states = reachable_states(module, name)
        except ValueError:
            continue
        if len(states) == 1 << reg.width:
            continue
        annotations.append(StateAnnotation(name, states))
    return annotations
