"""K-feasible cut enumeration with truth-table computation.

A *cut* of a node is a set of nodes (leaves) that separates it from the
inputs; every k-feasible cut with its local truth table is the unit of
work for both technology mapping and rewriting.  This is the standard
priority-cuts algorithm: merge fanin cut sets, discard cuts wider than
``k``, keep a bounded number per node.

As in ABC's priority-cut mapper (Mishchenko et al., ICCAD 2007), each
merge first checks a 64-bit leaf signature, the OR of
``1 << (leaf & 63)`` over the leaves: its popcount is a lower bound on
the size of the leaf union, so a pair it puts over ``k`` is dropped
before any set is built.  Tables are computed only for the cuts that
survive the dominance filter and the ``max_cuts`` bound, each from the
first fanin pair that produced its leaves: two pairs can disagree on
assignments the circuit cannot reach, when one leaf lies in another's
cone.  Each node's signatures are kept beside its cuts while the set
is built.

Cuts depend only on the graph, ``k`` and ``max_cuts``, so the last set
enumerated is remembered and handed to the next request for the same
exact structure: mapping one graph onto several libraries, or mapping a
graph a rewrite left unchanged, enumerates once.  The key is the raw
structure (:meth:`~repro.aig.graph.AIG.structure_bytes`), not
:meth:`~repro.aig.graph.AIG.canonical_hash`, because leaves are node
ids: a renumbered graph must not receive another graph's leaves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.tt_util import expand_table
from repro.tables.bits import all_ones

#: The cut widths :class:`CutSet` accepts.
MIN_CUT_SIZE = 2
MAX_CUT_SIZE = 6

#: Bound on memoized cut expansions.  Cut tables have at most 6 leaves,
#: so the distinct (table, positions, width) keys stay few (272 in a
#: Fig. 9 run, 393 in the paper-scale technology sweep) and no
#: benchmark workload evicts.
EXPAND_CUT_MEMO_SIZE = 4096

#: Most cuts a remembered cut set may hold.  The paper-scale technology
#: sweep's largest set has 8,955 cuts and Fig. 9's Auto and Manual sets
#: at most 17,089; its Full sets (63,632 cuts, about 10 MB) are not
#: kept.
CUT_MEMO_MAX_CUTS = 20_000

#: The last cut set enumerated, as one ``((k, max_cuts, structure),
#: cuts)`` tuple; ``None`` while a set is enumerated and after one above
#: the bound.  It is replaced whole, never updated, so a thread always
#: reads a key with its own cuts.
_last: tuple[tuple, Mapping[int, tuple[Cut, ...]]] | None = None


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut: leaf node indices (sorted) plus the local function.

    ``table`` is a truth-table int over ``len(leaves)`` variables where
    variable ``i`` is ``leaves[i]``.
    """

    leaves: tuple[int, ...]
    table: int

    @property
    def size(self) -> int:
        return len(self.leaves)


class CutSet:
    """Cuts for every node of an AIG.

    ``cuts`` maps each node to a tuple of its cuts, the trivial cut
    last.  It is read-only: a later :class:`CutSet` over the same
    structure may share it.
    """

    def __init__(self, aig: AIG, k: int = 4, max_cuts: int = 8) -> None:
        global _last
        if k < MIN_CUT_SIZE or k > MAX_CUT_SIZE:
            raise ValueError(
                f"cut size must be between {MIN_CUT_SIZE} and {MAX_CUT_SIZE}"
            )
        if max_cuts < 1:
            raise ValueError(f"max_cuts must be >= 1, got {max_cuts}")
        self.aig = aig
        self.k = k
        self.max_cuts = max_cuts
        key = (k, max_cuts, aig.structure_bytes())
        last = _last
        if last is not None and last[0] == key:
            self.cuts: Mapping[int, tuple[Cut, ...]] = last[1]
            return
        # Drop the old set first, so that it never adds to the memory
        # a new enumeration peaks at.
        _last = None
        self._compute()
        if sum(map(len, self.cuts.values())) <= CUT_MEMO_MAX_CUTS:
            _last = (key, self.cuts)

    def _compute(self) -> None:
        aig = self.aig
        cuts: dict[int, tuple[Cut, ...]] = {}
        sigs: dict[int, tuple[int, ...]] = {}
        for source in aig.combinational_inputs():
            cuts[source] = (Cut((source,), 0b10),)
            sigs[source] = (1 << (source & 63),)
        cuts[0] = (Cut((), 0),)  # constant node: empty cut, table false
        sigs[0] = (0,)
        for node in aig.topo_order():
            cuts[node], sigs[node] = self._node_cuts(node, cuts, sigs)
        self.cuts = MappingProxyType(cuts)

    def _node_cuts(
        self,
        node: int,
        cuts: dict[int, tuple[Cut, ...]],
        sigs: dict[int, tuple[int, ...]],
    ) -> tuple[tuple[Cut, ...], tuple[int, ...]]:
        """The cuts of one AND node and their leaf signatures, from
        those of its fanins."""
        k = self.k
        f0, f1 = self.aig.fanins(node)
        node0, node1 = lit_node(f0), lit_node(f1)
        pairs1 = tuple(zip(cuts[node1], sigs[node1]))
        # Each feasible leaf set with its signature and the first fanin
        # pair that produced it, whose tables give the cut's table.
        merged: dict[tuple[int, ...], tuple[int, Cut, Cut]] = {}
        for cut0, sig0 in zip(cuts[node0], sigs[node0]):
            leaf_set0 = set(cut0.leaves)
            for cut1, sig1 in pairs1:
                sig = sig0 | sig1
                if sig.bit_count() > k:
                    continue
                leaves = tuple(sorted(leaf_set0.union(cut1.leaves)))
                if len(leaves) > k or leaves in merged:
                    continue
                merged[leaves] = (sig, cut0, cut1)
        # Smallest first, then by leaves, so a cut can only be dominated
        # by one already kept; a superset's signature covers the
        # subset's.
        order = sorted(merged)
        order.sort(key=len)
        kept: list[tuple[tuple[int, ...], int]] = []
        for leaves in order:
            sig = merged[leaves][0]
            for other, other_sig in kept:
                if not other_sig & ~sig and set(other).issubset(leaves):
                    break
            else:
                kept.append((leaves, sig))
                if len(kept) == self.max_cuts:
                    break
        node_cuts = []
        node_sigs = []
        for leaves, sig in kept:
            _, cut0, cut1 = merged[leaves]
            width = len(leaves)
            table0 = cut0.table
            if cut0.leaves != leaves:
                table0 = _expand_cut(
                    table0, tuple(map(leaves.index, cut0.leaves)), width
                )
            table1 = cut1.table
            if cut1.leaves != leaves:
                table1 = _expand_cut(
                    table1, tuple(map(leaves.index, cut1.leaves)), width
                )
            universe = all_ones(width)
            if lit_sign(f0):
                table0 ^= universe
            if lit_sign(f1):
                table1 ^= universe
            node_cuts.append(Cut(leaves, table0 & table1))
            node_sigs.append(sig)
        node_cuts.append(Cut((node,), 0b10))  # trivial cut, always last
        node_sigs.append(1 << (node & 63))
        return tuple(node_cuts), tuple(node_sigs)

    def __getitem__(self, node: int) -> tuple[Cut, ...]:
        return self.cuts[node]


def enumerate_cuts(aig: AIG, k: int = 4, max_cuts: int = 8) -> CutSet:
    """Convenience constructor for :class:`CutSet`."""
    return CutSet(aig, k=k, max_cuts=max_cuts)


def expand_cut(
    table: int, from_leaves: tuple[int, ...], to_leaves: tuple[int, ...]
) -> int:
    """Re-express a cut table over a sorted superset of its sorted
    leaves (the cut-enumeration merge primitive).  Only where the
    leaves land matters, so the memo is keyed on positions."""
    if from_leaves == to_leaves:
        return table
    positions = tuple(map(to_leaves.index, from_leaves))
    return _expand_cut(table, positions, len(to_leaves))


@lru_cache(maxsize=EXPAND_CUT_MEMO_SIZE)
def _expand_cut(table: int, positions: tuple[int, ...], width: int) -> int:
    return expand_table(table, positions, tuple(range(width)))

