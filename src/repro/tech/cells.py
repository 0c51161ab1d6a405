"""Standard cell library.

Cells carry a truth table (over their input count), an area, and a
two-parameter delay model::

    delay = intrinsic + load_coeff * min(fanout, FANOUT_CAP) / drive

Drive strengths X1/X2/X4 trade area for load-driving ability, which is
what the sizing pass spends when closing timing -- and the reason the
experiments can "synthesize pairs of designs to identical timing
targets" like the paper does.  The fanout term saturates at
``FANOUT_CAP`` to stand in for the buffer trees a physical flow would
insert on very-high-fanout nets (we do not model buffering
explicitly).

Areas are synthetic but 90nm-plausible (NAND2 ~ 2.8 um^2, scan-less
DFF ~ 15 um^2); every figure in the paper compares areas *between*
implementations in the same library, so only consistency matters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

DRIVES = (1, 2, 4)
_DRIVE_AREA_FACTOR = {1: 1.0, 2: 1.6, 4: 2.5}

#: Fanout saturation of the delay model (implicit buffer trees).
FANOUT_CAP = 12


@dataclass(frozen=True)
class Cell:
    """A combinational standard cell.

    Attributes:
        name: base cell name (drive suffix is added by instances).
        arity: number of inputs.
        table: truth table over ``arity`` variables; input ``i`` is
            variable ``i``.
        area: X1 area in um^2.
        intrinsic: fixed delay in ns.
        load_coeff: per-fanout delay in ns at X1 drive.
    """

    name: str
    arity: int
    table: int
    area: float
    intrinsic: float
    load_coeff: float

    def area_at(self, drive: int) -> float:
        return self.area * _DRIVE_AREA_FACTOR[drive]

    def delay(self, fanout: int, drive: int) -> float:
        load = min(max(fanout, 1), FANOUT_CAP)
        return self.intrinsic + self.load_coeff * load / drive


@dataclass(frozen=True)
class FlopCell:
    """A D flip-flop cell (one per reset style)."""

    name: str
    reset_kind: str
    area: float
    clk_to_q: float
    setup: float
    load_coeff: float = 0.030

    def area_at(self, drive: int) -> float:
        return self.area * _DRIVE_AREA_FACTOR[drive]

    def delay(self, fanout: int, drive: int) -> float:
        load = min(max(fanout, 1), FANOUT_CAP)
        return self.clk_to_q + self.load_coeff * load / drive


def _tt(func, arity: int) -> int:
    table = 0
    for minterm in range(1 << arity):
        bits = [(minterm >> i) & 1 for i in range(arity)]
        if func(*bits):
            table |= 1 << minterm
    return table


class Library:
    """A set of combinational cells plus flop variants."""

    def __init__(self, name: str, cells: list[Cell], flops: list[FlopCell]) -> None:
        self.name = name
        self.cells = {cell.name: cell for cell in cells}
        self.flops = {flop.reset_kind: flop for flop in flops}
        if "INV" not in self.cells:
            raise ValueError("library must provide an INV cell")
        for kind in ("none", "sync", "async"):
            if kind not in self.flops:
                raise ValueError(f"library must provide a {kind}-reset flop")

    @property
    def inverter(self) -> Cell:
        return self.cells["INV"]

    def flop_for(self, reset_kind: str) -> FlopCell:
        return self.flops[reset_kind]

    def canonical_hash(self) -> str:
        """Content hash over every cell and flop parameter, stable
        across processes.  Two libraries that merely share a ``name``
        but differ in any area/delay number hash apart -- which is
        what keeps compile-cache fingerprints honest."""
        digest = hashlib.sha256()
        digest.update(repr(("library", self.name)).encode())
        for name in sorted(self.cells):
            cell = self.cells[name]
            digest.update(
                repr(
                    ("cell", cell.name, cell.arity, cell.table,
                     cell.area, cell.intrinsic, cell.load_coeff)
                ).encode()
            )
        for kind in sorted(self.flops):
            flop = self.flops[kind]
            digest.update(
                repr(
                    ("flop", flop.name, flop.reset_kind, flop.area,
                     flop.clk_to_q, flop.setup, flop.load_coeff)
                ).encode()
            )
        return digest.hexdigest()

    @classmethod
    def tsmc90ish(cls) -> "Library":
        """The default synthetic 90nm-class library."""
        cells = [
            Cell("INV", 1, _tt(lambda a: not a, 1), 1.8, 0.020, 0.018),
            Cell("BUF", 1, _tt(lambda a: a, 1), 2.2, 0.035, 0.012),
            Cell("NAND2", 2, _tt(lambda a, b: not (a and b), 2), 2.8, 0.030, 0.022),
            Cell("NOR2", 2, _tt(lambda a, b: not (a or b), 2), 2.8, 0.035, 0.026),
            Cell("AND2", 2, _tt(lambda a, b: a and b, 2), 3.5, 0.050, 0.020),
            Cell("OR2", 2, _tt(lambda a, b: a or b, 2), 3.5, 0.055, 0.020),
            Cell("XOR2", 2, _tt(lambda a, b: a != b, 2), 5.6, 0.070, 0.028),
            Cell("XNOR2", 2, _tt(lambda a, b: a == b, 2), 5.6, 0.070, 0.028),
            Cell(
                "NAND3", 3, _tt(lambda a, b, c: not (a and b and c), 3),
                3.6, 0.042, 0.026,
            ),
            Cell(
                "NOR3", 3, _tt(lambda a, b, c: not (a or b or c), 3),
                3.6, 0.052, 0.032,
            ),
            Cell(
                "NAND4", 4,
                _tt(lambda a, b, c, d: not (a and b and c and d), 4),
                4.4, 0.055, 0.030,
            ),
            Cell(
                "NOR4", 4, _tt(lambda a, b, c, d: not (a or b or c or d), 4),
                4.4, 0.068, 0.038,
            ),
            Cell(
                "AOI21", 3, _tt(lambda a, b, c: not ((a and b) or c), 3),
                3.2, 0.045, 0.026,
            ),
            Cell(
                "OAI21", 3, _tt(lambda a, b, c: not ((a or b) and c), 3),
                3.2, 0.045, 0.026,
            ),
            Cell(
                "AOI22", 4,
                _tt(lambda a, b, c, d: not ((a and b) or (c and d)), 4),
                4.0, 0.055, 0.030,
            ),
            Cell(
                "OAI22", 4,
                _tt(lambda a, b, c, d: not ((a or b) and (c or d)), 4),
                4.0, 0.055, 0.030,
            ),
            Cell(
                "MUX2", 3, _tt(lambda a, b, s: b if s else a, 3),
                5.0, 0.060, 0.026,
            ),
            Cell(
                "AO22", 4,
                _tt(lambda a, b, c, d: (a and b) or (c and d), 4),
                4.6, 0.065, 0.026,
            ),
            Cell(
                "MAJ3", 3,
                _tt(lambda a, b, c: (a + b + c) >= 2, 3),
                5.2, 0.065, 0.028,
            ),
        ]
        flops = [
            FlopCell("DFF", "none", 14.6, 0.16, 0.04),
            FlopCell("DFFS", "sync", 17.3, 0.17, 0.05),
            FlopCell("DFFR", "async", 18.8, 0.17, 0.05),
        ]
        return cls("tsmc90ish", cells, flops)

    @classmethod
    def generic45ish(cls) -> "Library":
        """A coarser synthetic 45nm-class library.

        Deliberately sparse -- inverting primitives, a buffer, and a
        mux only -- so technology exploration has a qualitatively
        different target: the mapper must spend inverters and
        multi-cell structures where the 90nm kit has single complex
        cells (AOI/OAI/XOR).  NAND2+NOR2+INV alone cover any AIG (the
        NPN orbits absorb input phases), so mapping is always total.
        """
        cells = [
            Cell("INV", 1, _tt(lambda a: not a, 1), 0.8, 0.012, 0.011),
            Cell("BUF", 1, _tt(lambda a: a, 1), 1.0, 0.022, 0.008),
            Cell("NAND2", 2, _tt(lambda a, b: not (a and b), 2), 1.2, 0.018, 0.014),
            Cell("NOR2", 2, _tt(lambda a, b: not (a or b), 2), 1.2, 0.021, 0.016),
            Cell(
                "NAND3", 3, _tt(lambda a, b, c: not (a and b and c), 3),
                1.6, 0.026, 0.017,
            ),
            Cell(
                "NOR3", 3, _tt(lambda a, b, c: not (a or b or c), 3),
                1.6, 0.032, 0.020,
            ),
            Cell(
                "MUX2", 3, _tt(lambda a, b, s: b if s else a, 3),
                2.2, 0.038, 0.017,
            ),
        ]
        flops = [
            FlopCell("DFF", "none", 6.2, 0.095, 0.025, 0.018),
            FlopCell("DFFS", "sync", 7.4, 0.100, 0.030, 0.018),
            FlopCell("DFFR", "async", 8.1, 0.100, 0.030, 0.018),
        ]
        return cls("generic45ish", cells, flops)

    @classmethod
    def lowpowerish(cls) -> "Library":
        """A low-leakage variant of the 90nm kit: the same cell set,
        slightly smaller, markedly slower -- the classic high-Vt
        corner.  Exists so library exploration has a same-node
        area/delay trade-off, not just a process shrink."""
        base = cls.tsmc90ish()
        cells = [
            replace(
                cell,
                area=round(cell.area * 0.85, 4),
                intrinsic=round(cell.intrinsic * 1.6, 4),
                load_coeff=round(cell.load_coeff * 1.35, 4),
            )
            for cell in base.cells.values()
        ]
        flops = [
            replace(
                flop,
                area=round(flop.area * 0.9, 4),
                clk_to_q=round(flop.clk_to_q * 1.5, 4),
                setup=round(flop.setup * 1.4, 4),
                load_coeff=round(flop.load_coeff * 1.35, 4),
            )
            for flop in base.flops.values()
        ]
        return cls("lowpowerish", cells, flops)


#: Factory for the library a flow maps onto when its ``map`` pass names
#: none.  Kept as a module-level callable (rather than hard-coded call
#: sites) so the compile cache can fingerprint whichever factory is
#: the default -- see :func:`repro.flow.passes.registered_libraries_digest`
#: -- and tests can monkeypatch it.
DEFAULT_LIBRARY_FACTORY = Library.tsmc90ish


def default_library() -> Library:
    """The library a flow maps onto when its ``map`` pass names none."""
    return DEFAULT_LIBRARY_FACTORY()
