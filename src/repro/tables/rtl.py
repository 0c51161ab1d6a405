"""RTL realisations of truth tables: the two styles Fig. 5 compares.

A :class:`~repro.tables.truthtable.TruthTable` is the controller IR of
a combinational function; this module holds its lowerings to RTL:

* :func:`table_to_rom_rtl` -- the *flexible* style, bound: the
  function as a ROM read (what a generator emits; elaboration
  partially evaluates the ROM into logic by construction);
* :func:`table_to_sop_rtl` -- the *direct* style: per-output two-level
  sum-of-products assignments (what a designer would hand-write),
  minimized by a selectable engine.

These used to live inside the Fig. 5 driver; they moved here when the
frontend became passes, so ``table_rom`` / ``table_minimize`` pipeline
stages and the drivers share one definition.
"""

from __future__ import annotations

from repro.rtl.ast import Const, Expr
from repro.rtl.builder import ModuleBuilder, cat
from repro.rtl.module import Module
from repro.tables.cube import Cube
from repro.tables.espresso import improve_cover
from repro.tables.isop import isop
from repro.tables.qm import minimize_exact
from repro.tables.truthtable import TruthTable

#: The two-level minimizers ``table_to_sop_rtl`` can drive.  ``isop``
#: (Minato-Morreale) is the historical default the Fig. 5 experiments
#: use; ``qm`` is the exact reference; ``espresso`` post-improves the
#: ISOP cover with EXPAND + IRREDUNDANT.
SOP_ENGINES = ("isop", "qm", "espresso")


def table_to_rom_rtl(table: TruthTable, name: str = "table") -> Module:
    """The flexible style, bound: a ROM read."""
    b = ModuleBuilder(name)
    addr = b.input("addr", table.num_inputs)
    rom = b.rom("table", table.num_outputs, table.depth, table.rows())
    b.output("out", rom.read(addr))
    return b.build()


def sop_cover(on_set: int, num_inputs: int, engine: str = "isop") -> list[Cube]:
    """A two-level cover of one output column via the given engine."""
    if engine == "isop":
        return isop(on_set, 0, num_inputs)
    if engine == "qm":
        return minimize_exact(on_set, 0, num_inputs)
    if engine == "espresso":
        cubes = isop(on_set, 0, num_inputs)
        return improve_cover(cubes, on_set, 0, num_inputs)
    raise ValueError(
        f"unknown SOP engine {engine!r}; known: {', '.join(SOP_ENGINES)}"
    )


def table_to_sop_rtl(
    table: TruthTable, name: str = "sop", engine: str = "isop"
) -> Module:
    """The direct style: sum-of-products assignments per output bit."""
    # Checked here, not only in sop_cover: all-zero columns never reach it.
    if engine not in SOP_ENGINES:
        raise ValueError(
            f"unknown SOP engine {engine!r}; known: {', '.join(SOP_ENGINES)}"
        )
    b = ModuleBuilder(name)
    addr = b.input("addr", table.num_inputs)
    bits: list[Expr] = []
    for output in range(table.num_outputs):
        bits.append(
            _sop_expr(addr, table.columns[output], table.num_inputs, engine)
        )
    b.output("out", cat(*bits) if len(bits) > 1 else bits[0])
    return b.build()


def _sop_expr(addr, on_set: int, num_inputs: int, engine: str) -> Expr:
    if on_set == 0:
        return Const(0, 1)
    terms: list[Expr] = []
    for cube in sop_cover(on_set, num_inputs, engine):
        literals = [
            addr[var : var + 1] if polarity else ~addr[var : var + 1]
            for var, polarity in cube.literals()
        ]
        if not literals:
            return Const(1, 1)
        term = literals[0]
        for lit in literals[1:]:
            term = term & lit
        terms.append(term)
    result = terms[0]
    for term in terms[1:]:
        result = result | term
    return result
