"""Unit tests for technology mapping (validated by netlist simulation)."""

import random

import pytest

from repro.aig.cuts import CutSet
from repro.aig.graph import AIG, lit_compl, lit_node, lit_sign
from repro.aig.tt_util import project_table
from repro.flow.passes import LIBRARY_FACTORIES
from repro.tables.bits import all_ones, tt_support
from repro.tech.cells import Library
from repro.tech.mapper import _make_flop, _matches_for, map_aig
from repro.tech.netlist import CONST0_NET, CONST1_NET, MappedNetlist

from tests.helpers import make_word


def crosscheck_netlist(aig, netlist, cycles=64, seed=0, latch_bits=0):
    """Drive AIG and netlist with identical random vectors."""
    rng = random.Random(seed)
    for _ in range(cycles):
        pi_values = {node: rng.getrandbits(1) for node in aig.pis}
        latch_values = {
            latch.node: rng.getrandbits(1) for latch in aig.latches
        }
        want_pos, want_next = aig.evaluate(pi_values, latch_values)
        name_values = {
            name: pi_values[node] for name, node in zip(aig.pi_names, aig.pis)
        }
        flop_values = {
            latch.name: latch_values[latch.node] for latch in aig.latches
        }
        got_pos, got_next = netlist.evaluate(name_values, flop_values)
        assert got_pos == want_pos
        assert got_next == want_next


def test_map_simple_gate():
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.and_(a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    report = netlist.area_report()
    assert report.num_cells >= 1
    assert report.sequential == 0


def test_nand_matches_without_inverter():
    """~(a & b) should map to one NAND2, not AND2+INV."""
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", lit_compl(aig.and_(a, b)))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    assert len(netlist.instances) == 1
    assert netlist.instances[0].cell_name == "NAND2"


def test_xor_maps_to_xor_cell():
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.xor(a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    names = {inst.cell_name for inst in netlist.instances}
    assert names <= {"XOR2", "XNOR2", "INV"}
    assert len(netlist.instances) <= 2


def test_mux_maps_compactly():
    aig = AIG()
    s = aig.add_pi("s")
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po("f", aig.mux(s, a, b))
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    assert len(netlist.instances) <= 2


def test_constant_outputs_use_ties():
    aig = AIG()
    aig.add_pi("a")
    aig.add_po("zero", 0)
    aig.add_po("one", 1)
    netlist = map_aig(aig)
    assert netlist.num_ties == 2
    pos, _ = netlist.evaluate({"a": 1})
    assert pos == {"zero": 0, "one": 1}


def test_latches_map_to_reset_matched_flops():
    aig = AIG()
    a = aig.add_pi("a")
    for kind in ("none", "sync", "async"):
        q = aig.add_latch(f"q_{kind}", reset_kind=kind, reset_value=1)
        aig.set_latch_next(q, aig.xor(q, a))
        aig.add_po(f"o_{kind}", q)
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    kinds = {flop.name: flop.cell.reset_kind for flop in netlist.flops}
    assert kinds == {"q_none": "none", "q_sync": "sync", "q_async": "async"}


def test_random_aigs_map_correctly():
    rng = random.Random(23)
    for trial in range(8):
        aig = AIG()
        xs = make_word(aig, "x", 6)
        pool = list(xs)
        for _ in range(60):
            a = rng.choice(pool) ^ rng.randint(0, 1)
            b = rng.choice(pool) ^ rng.randint(0, 1)
            pool.append(aig.and_(a, b))
        for index in range(4):
            aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
        cleaned, _ = aig.cleanup()
        netlist = map_aig(cleaned)
        crosscheck_netlist(cleaned, netlist, cycles=64, seed=trial)


def test_mapping_cheaper_than_naive():
    """Area-flow mapping beats one-cell-per-AND on a shared structure."""
    aig = AIG()
    xs = make_word(aig, "x", 8)
    # 8-input AND tree: should use NAND4/NOR trees, far fewer than 7 AND2.
    acc = xs[0]
    for lit in xs[1:]:
        acc = aig.and_(acc, lit)
    aig.add_po("f", acc)
    netlist = map_aig(aig)
    crosscheck_netlist(aig, netlist)
    and2 = Library.tsmc90ish().cells["AND2"]
    naive_area = 7 * and2.area
    assert netlist.area_report().combinational < naive_area


def reference_map_aig(aig, library):
    """The mapper's dynamic program in its plainest form: cost keyed by
    ``(node, phase)`` tuples, each leaf's flow divided out again in
    every match, and each phase's cut table reduced on its own.  The
    cover is extracted from the outputs down exactly as in
    :func:`map_aig`."""
    matches = _matches_for(library)
    cuts = CutSet(aig, k=4, max_cuts=6)
    fanout = aig.fanout_counts()
    inv_area = library.inverter.area
    cost = {}
    choice = {}
    for source in aig.combinational_inputs():
        cost[(source, 0)] = 0.0
        cost[(source, 1)] = inv_area
    cost[(0, 0)] = 0.0
    cost[(0, 1)] = 0.0
    for node in aig.topo_order():
        for phase in (0, 1):
            best = float("inf")
            best_choice = None
            for cut in cuts[node]:
                if cut.leaves == (node,):
                    continue
                table = cut.table if phase == 0 else cut.table ^ all_ones(cut.size)
                support = tt_support(table, cut.size)
                reduced = project_table(table, support, cut.size)
                leaves = tuple(cut.leaves[i] for i in support)
                if not leaves:
                    best = 0.0
                    best_choice = ("const", reduced & 1)
                    continue
                for match in matches.lookup(reduced, len(leaves)):
                    total = match.cell.area
                    feasible = True
                    for leaf_index, leaf_phase in match.inputs:
                        leaf = leaves[leaf_index]
                        leaf_cost = cost.get((leaf, leaf_phase))
                        if leaf_cost is None:
                            feasible = False
                            break
                        total += leaf_cost / max(fanout[leaf], 1)
                    if feasible and total < best:
                        best = total
                        best_choice = ("cell", match, leaves)
            other = cost.get((node, phase ^ 1))
            if other is not None and other + inv_area < best:
                best = other + inv_area
                best_choice = ("invert",)
            assert best_choice is not None
            cost[(node, phase)] = best
            choice[(node, phase)] = best_choice

    netlist = MappedNetlist(library)
    for name in aig.pi_names:
        netlist.pi_nets[name] = netlist.new_net()
    q_nets = {latch.node: netlist.new_net() for latch in aig.latches}
    realized = {(0, 0): CONST0_NET, (0, 1): CONST1_NET}
    for name, node in zip(aig.pi_names, aig.pis):
        realized[(node, 0)] = netlist.pi_nets[name]
    for latch in aig.latches:
        realized[(latch.node, 0)] = q_nets[latch.node]

    def realize(node, phase):
        net = realized.get((node, phase))
        if net is not None:
            return net
        picked = ("invert",) if not aig.is_and(node) else choice[(node, phase)]
        if picked[0] == "invert":
            net = netlist.add_instance("INV", [realize(node, phase ^ 1)])
        elif picked[0] == "const":
            netlist.num_ties += 1
            net = CONST1_NET if picked[1] else CONST0_NET
        else:
            _, match, leaves = picked
            net = netlist.add_instance(
                match.cell.name,
                [
                    realize(leaves[leaf_index], leaf_phase)
                    for leaf_index, leaf_phase in match.inputs
                ],
            )
        realized[(node, phase)] = net
        return net

    def drive(lit):
        if lit_node(lit) == 0:
            netlist.num_ties += 1
            return CONST1_NET if lit_sign(lit) else CONST0_NET
        return realize(lit_node(lit), lit_sign(lit))

    for name, lit in aig.pos:
        netlist.po_nets[name] = drive(lit)
    for latch in aig.latches:
        d_net = drive(latch.next_lit)
        netlist.flops.append(_make_flop(latch, library, d_net, q_nets[latch.node]))
    return netlist


def random_mapping_aig(rng):
    """A cleaned-up random AIG with latches, complemented and constant
    outputs."""
    aig = AIG()
    pool = make_word(aig, "x", 6)
    latches = [aig.add_latch(f"q{index}", reset_kind=kind) for index, kind in
               enumerate(("none", "sync", "async"))]
    pool += latches
    for _ in range(rng.randint(10, 80)):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for latch in latches:
        aig.set_latch_next(latch, rng.choice(pool) ^ rng.randint(0, 1))
    for index in range(4):
        aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
    aig.add_po("zero", 0)
    aig.add_po("one", 1)
    cleaned, _ = aig.cleanup()
    return cleaned


@pytest.mark.parametrize("library_name", sorted(LIBRARY_FACTORIES))
def test_map_aig_matches_reference_mapper(library_name):
    """Same cells on the same nets, flops, outputs and ties as the
    tuple-keyed reference, on random AIGs for every library."""
    library = LIBRARY_FACTORIES[library_name]()
    rng = random.Random(2007)
    for _ in range(12):
        aig = random_mapping_aig(rng)
        want = reference_map_aig(aig, library)
        got = map_aig(aig, library)
        assert [(i.cell_name, i.inputs, i.output) for i in got.instances] == [
            (i.cell_name, i.inputs, i.output) for i in want.instances
        ]
        assert got.flops == want.flops
        assert got.po_nets == want.po_nets
        assert got.num_ties == want.num_ties
