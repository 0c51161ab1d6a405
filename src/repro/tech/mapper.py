"""Technology mapping: cut-based NPN matching with area-flow covering.

The mapper assigns every AND node (in both output phases) its cheapest
realization as a library cell over one of its 4-feasible cuts, then
extracts a cover from the outputs down.  Complemented edges cost an
inverter unless a cell absorbs the inversion (the NPN orbit of every
cell is precomputed, so NAND/NOR/AOI forms match directly).

Covering uses the classic area-flow heuristic: a leaf's cost is
discounted by its fanout, approximating the sharing the final cover
will enjoy.  The dynamic program runs over flat lists indexed by the
literal ``2 * node + phase``, and a literal's flow is computed once,
when its cost is settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.aig.cuts import CutSet
from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.tt_util import project_table
from repro.tables.bits import all_ones, tt_support
from repro.tech.cells import Cell, Library, default_library
from repro.tech.netlist import CONST0_NET, CONST1_NET, MappedNetlist

_K = 4
_MAX_CUTS = 6

#: Bound on memoized support reductions of cut tables, keyed on
#: (table, size): a Fig. 9 run asks for 724 distinct keys and the
#: paper-scale technology sweep for 1,510, so neither evicts.
REDUCE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Match:
    """A cell realization of a cut function.

    ``inputs[i]`` is ``(leaf index, phase)`` for cell input ``i``: the
    index of the cut leaf feeding it, and 1 when that input must be the
    *complement* of that leaf.
    """

    cell: Cell
    inputs: tuple[tuple[int, int], ...]


class _MatchTable:
    """table -> matches, per arity, over a library's NPN orbits."""

    def __init__(self, library: Library) -> None:
        self.by_arity: list[dict[int, list[Match]]] = [dict() for _ in range(_K + 1)]
        for cell in library.cells.values():
            if cell.arity > _K or cell.name == "BUF":
                continue
            self._add_orbit(cell)

    def _add_orbit(self, cell: Cell) -> None:
        arity = cell.arity
        for perm in _permutations(arity):
            for phases in range(1 << arity):
                table = _transform(cell.table, perm, phases, arity)
                bucket = self.by_arity[arity].setdefault(table, [])
                match = Match(
                    cell,
                    tuple(
                        (leaf, (phases >> cell_input) & 1)
                        for cell_input, leaf in enumerate(perm)
                    ),
                )
                # Keep every match; a strictly cheaper cell goes to the
                # front, so the first match is a cheapest one.
                if not bucket or cell.area < bucket[0].cell.area:
                    bucket.insert(0, match)
                else:
                    bucket.append(match)

    def lookup(self, table: int, arity: int) -> list[Match]:
        if arity > _K:
            return []
        return self.by_arity[arity].get(table, [])


@lru_cache(maxsize=None)
def _permutations(arity: int) -> tuple[tuple[int, ...], ...]:
    from itertools import permutations

    return tuple(permutations(range(arity)))


def _transform(table: int, perm: tuple[int, ...], phases: int, arity: int) -> int:
    """Reindex ``table``: cell input i reads (possibly inverted) leaf perm[i]."""
    result = 0
    for minterm in range(1 << arity):
        # minterm assigns values to the *leaves*; compute cell input index.
        index = 0
        for cell_input, leaf in enumerate(perm):
            bit = (minterm >> leaf) & 1
            if (phases >> cell_input) & 1:
                bit ^= 1
            if bit:
                index |= 1 << cell_input
        if (table >> index) & 1:
            result |= 1 << minterm
    return result


_match_table_cache: dict[str, _MatchTable] = {}


def _matches_for(library: Library) -> _MatchTable:
    # Keyed on the library's *content* hash, not id(): two Library
    # objects with identical cells share one match table, and a
    # recycled object id (GC + reallocation) can never serve another
    # library's matches -- which matters now that flows routinely map
    # against several libraries in one process.
    key = library.canonical_hash()
    table = _match_table_cache.get(key)
    if table is None:
        table = _MatchTable(library)
        _match_table_cache[key] = table
    return table


def map_aig(aig: AIG, library: Library | None = None) -> MappedNetlist:
    """Map a (cleaned-up) AIG onto the library; returns the netlist."""
    library = library or default_library()
    matches = _matches_for(library)
    cuts = CutSet(aig, k=_K, max_cuts=_MAX_CUTS)
    fanout = aig.fanout_counts()
    inv_area = library.inverter.area

    # ------------------------------------------------------------------
    # Phase 1: dynamic programming over literals 2 * node + phase.
    # ------------------------------------------------------------------
    INF = float("inf")
    # Area flow and choice per literal.  Sources and the constant node
    # are settled up front (a complemented source costs an inverter),
    # AND nodes in topo order.
    flow = [0.0] * (2 * aig.num_nodes)
    choice: list = [None] * (2 * aig.num_nodes)
    for source in aig.combinational_inputs():
        flow[2 * source + 1] = inv_area / max(fanout[source], 1)

    for node in aig.topo_order():
        # Each cut's table over its true support, once for both phases;
        # the trivial cut (always last) is skipped.
        reduced_cuts = []
        for cut in cuts[node][:-1]:
            support, reduced = _reduce_support(cut.table, cut.size)
            leaf_lits = tuple(2 * cut.leaves[i] for i in support)
            reduced_cuts.append((leaf_lits, reduced, all_ones(len(support))))
        for phase in (0, 1):
            best = INF
            best_choice = None
            for leaf_lits, reduced, universe in reduced_cuts:
                table = reduced ^ universe if phase else reduced
                if not leaf_lits:
                    # Constant under folding; realized by tie cells.
                    best = 0.0
                    best_choice = ("const", table & 1)
                    continue
                for match in matches.lookup(table, len(leaf_lits)):
                    total = match.cell.area
                    for leaf_index, leaf_phase in match.inputs:
                        total += flow[leaf_lits[leaf_index] + leaf_phase]
                    if total < best:
                        best = total
                        best_choice = ("cell", match, leaf_lits)
            # Fallback: the other phase plus an inverter.  Phase 0 is
            # settled first, so only phase 1 can fall back.
            if phase and cost0 + inv_area < best:
                best = cost0 + inv_area
                best_choice = ("invert",)
            if best_choice is None:
                raise AssertionError(f"no match found for node {node}")
            cost0 = best
            flow[2 * node + phase] = best / max(fanout[node], 1)
            choice[2 * node + phase] = best_choice

    # ------------------------------------------------------------------
    # Phase 2: extract the cover from the outputs down.
    # ------------------------------------------------------------------
    netlist = MappedNetlist(library)
    for name, node in zip(aig.pi_names, aig.pis):
        netlist.pi_nets[name] = netlist.new_net()
    q_nets: dict[int, int] = {}
    for latch in aig.latches:
        q_nets[latch.node] = netlist.new_net()

    realized: dict[int, int] = {0: CONST0_NET, 1: CONST1_NET}
    for name, node in zip(aig.pi_names, aig.pis):
        realized[2 * node] = netlist.pi_nets[name]
    for latch in aig.latches:
        realized[2 * latch.node] = q_nets[latch.node]

    def realize(lit: int) -> int:
        net = realized.get(lit)
        if net is not None:
            return net
        if not aig.is_and(lit_node(lit)):
            # Source needed in complemented phase: one shared inverter.
            base = realize(lit ^ 1)
            net = netlist.add_instance("INV", [base])
            realized[lit] = net
            return net
        picked = choice[lit]
        if picked[0] == "invert":
            base = realize(lit ^ 1)
            net = netlist.add_instance("INV", [base])
        elif picked[0] == "const":
            netlist.num_ties += 1
            net = CONST1_NET if picked[1] else CONST0_NET
        else:
            _, match, leaf_lits = picked
            input_nets = [
                realize(leaf_lits[leaf_index] + leaf_phase)
                for leaf_index, leaf_phase in match.inputs
            ]
            net = netlist.add_instance(match.cell.name, input_nets)
        realized[lit] = net
        return net

    for name, lit in aig.pos:
        node, phase = lit_node(lit), lit_sign(lit)
        if node == 0:
            netlist.num_ties += 1
            netlist.po_nets[name] = CONST1_NET if phase else CONST0_NET
        else:
            netlist.po_nets[name] = realize(lit)
    for latch in aig.latches:
        node, phase = lit_node(latch.next_lit), lit_sign(latch.next_lit)
        if node == 0:
            netlist.num_ties += 1
            d_net = CONST1_NET if phase else CONST0_NET
        else:
            d_net = realize(latch.next_lit)
        netlist.flops.append(
            _make_flop(latch, library, d_net, q_nets[latch.node])
        )
    return netlist


@lru_cache(maxsize=REDUCE_MEMO_SIZE)
def _reduce_support(table: int, size: int) -> tuple[tuple[int, ...], int]:
    """The positions ``table`` depends on, and the table over them."""
    support = tt_support(table, size)
    if len(support) < size:
        return support, project_table(table, support, size)
    return support, table


def _make_flop(latch, library: Library, d_net: int, q_net: int):
    from repro.tech.netlist import FlopInstance

    return FlopInstance(
        name=latch.name,
        cell=library.flop_for(latch.reset_kind),
        d_net=d_net,
        q_net=q_net,
        reset_value=latch.reset_value,
    )
