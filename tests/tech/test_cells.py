"""Unit tests for the standard cell library."""

import pytest

from repro.tech.cells import Cell, FlopCell, Library, _tt


def test_tt_helper():
    assert _tt(lambda a: a, 1) == 0b10
    assert _tt(lambda a, b: a and b, 2) == 0b1000
    assert _tt(lambda a, b: a or b, 2) == 0b1110


def test_default_library_has_core_cells():
    lib = Library.tsmc90ish()
    for name in ("INV", "NAND2", "NOR2", "XOR2", "MUX2", "AOI21"):
        assert name in lib.cells
    assert lib.inverter.name == "INV"


def test_cell_truth_tables_are_correct():
    lib = Library.tsmc90ish()
    nand2 = lib.cells["NAND2"]
    assert nand2.table == 0b0111
    mux2 = lib.cells["MUX2"]
    # inputs (a, b, s): out = s ? b : a
    for minterm in range(8):
        a, b, s = minterm & 1, (minterm >> 1) & 1, (minterm >> 2) & 1
        expected = b if s else a
        assert (mux2.table >> minterm) & 1 == expected


def test_flop_variants_ordered_by_complexity():
    lib = Library.tsmc90ish()
    plain = lib.flop_for("none")
    sync = lib.flop_for("sync")
    asynch = lib.flop_for("async")
    assert plain.area < sync.area < asynch.area


def test_drive_scaling():
    lib = Library.tsmc90ish()
    nand2 = lib.cells["NAND2"]
    assert nand2.area_at(1) < nand2.area_at(2) < nand2.area_at(4)
    # Higher drive reduces load-dependent delay.
    assert nand2.delay(4, 4) < nand2.delay(4, 1)
    # Zero fanout is treated as one.
    assert nand2.delay(0, 1) == nand2.delay(1, 1)


def test_registered_libraries_are_valid_and_distinct():
    """Every spec-addressable library builds, carries the mandatory
    cells/flops, and hashes apart from the others."""
    from repro.flow.passes import LIBRARY_FACTORIES

    hashes = {}
    for name, factory in LIBRARY_FACTORIES.items():
        lib = factory()
        assert lib.name == name
        assert "INV" in lib.cells
        for kind in ("none", "sync", "async"):
            assert lib.flop_for(kind) is not None
        hashes[name] = lib.canonical_hash()
        # Factories are deterministic: same content hash every build.
        assert factory().canonical_hash() == hashes[name]
    assert len(set(hashes.values())) == len(hashes)


def test_every_registered_library_maps_an_arbitrary_aig():
    """NAND2/NOR2/INV suffice to cover any AIG; every library must map
    totally *and* correctly (simulation crosscheck per library)."""
    import random

    from repro.aig.graph import AIG
    from repro.flow.passes import LIBRARY_FACTORIES
    from repro.tech.mapper import map_aig

    from tests.tech.test_mapper import crosscheck_netlist

    rng = random.Random(9)
    aig = AIG()
    pool = [aig.add_pi(f"x{i}") for i in range(5)]
    for _ in range(30):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    aig.add_po("f", pool[-1])
    aig.add_po("g", pool[-7] ^ 1)
    cleaned, _ = aig.cleanup()
    for name, factory in LIBRARY_FACTORIES.items():
        netlist = map_aig(cleaned, factory())
        assert netlist.area_report().num_cells > 0, name
        crosscheck_netlist(cleaned, netlist)


def test_lowpowerish_trades_delay_for_area():
    fast = Library.tsmc90ish()
    slow = Library.lowpowerish()
    assert set(slow.cells) == set(fast.cells)
    for name, cell in slow.cells.items():
        assert cell.area <= fast.cells[name].area
        assert cell.intrinsic > fast.cells[name].intrinsic


def test_default_library_factory_is_resolvable():
    from repro.tech import cells

    assert cells.default_library().name == "tsmc90ish"
    original = cells.DEFAULT_LIBRARY_FACTORY
    try:
        cells.DEFAULT_LIBRARY_FACTORY = Library.generic45ish
        assert cells.default_library().name == "generic45ish"
    finally:
        cells.DEFAULT_LIBRARY_FACTORY = original


def test_library_validation():
    inv = Cell("INV", 1, 0b01, 1.0, 0.01, 0.01)
    flops = [
        FlopCell("DFF", "none", 10, 0.1, 0.05),
        FlopCell("DFFS", "sync", 11, 0.1, 0.05),
        FlopCell("DFFR", "async", 12, 0.1, 0.05),
    ]
    Library("ok", [inv], flops)
    with pytest.raises(ValueError):
        Library("noinv", [], flops)
    with pytest.raises(ValueError):
        Library("noflop", [inv], flops[:2])
