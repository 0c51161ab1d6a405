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
cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.tt_util import expand_table
from repro.tables.bits import all_ones

#: The cut widths :class:`CutSet` accepts.
MIN_CUT_SIZE = 2
MAX_CUT_SIZE = 6

#: Bound on memoized cut expansions.  Cut tables have at most 6 leaves,
#: so the distinct (table, positions, width) keys stay few (334 in a
#: Fig. 9 run, 412 in the paper-scale technology sweep) and no
#: benchmark workload evicts.
EXPAND_CUT_MEMO_SIZE = 4096


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
    """Cuts for every node of an AIG."""

    def __init__(self, aig: AIG, k: int = 4, max_cuts: int = 8) -> None:
        if k < MIN_CUT_SIZE or k > MAX_CUT_SIZE:
            raise ValueError(
                f"cut size must be between {MIN_CUT_SIZE} and {MAX_CUT_SIZE}"
            )
        if max_cuts < 1:
            raise ValueError(f"max_cuts must be >= 1, got {max_cuts}")
        self.aig = aig
        self.k = k
        self.max_cuts = max_cuts
        self.cuts: dict[int, list[Cut]] = {}
        self._compute()

    def _compute(self) -> None:
        aig = self.aig
        for source in aig.combinational_inputs():
            self.cuts[source] = [Cut((source,), 0b10)]
        self.cuts[0] = [Cut((), 0)]  # constant node: empty cut, table false
        for node in aig.topo_order():
            self.cuts[node] = self._node_cuts(node)

    def _node_cuts(self, node: int) -> list[Cut]:
        aig = self.aig
        k = self.k
        f0, f1 = aig.fanins(node)
        cuts0 = self.cuts[lit_node(f0)]
        cuts1 = self.cuts[lit_node(f1)]
        sigs1 = [_signature(cut1.leaves) for cut1 in cuts1]
        # Each feasible leaf set with its signature and the first fanin
        # pair that produced it, whose tables give the cut's table.
        merged: dict[tuple[int, ...], tuple[int, Cut, Cut]] = {}
        for cut0 in cuts0:
            sig0 = _signature(cut0.leaves)
            leaf_set0 = set(cut0.leaves)
            for cut1, sig1 in zip(cuts1, sigs1):
                sig = sig0 | sig1
                if sig.bit_count() > k:
                    continue
                leaves = tuple(sorted(leaf_set0.union(cut1.leaves)))
                if len(leaves) > k or leaves in merged:
                    continue
                merged[leaves] = (sig, cut0, cut1)
        # Smallest first, so a cut can only be dominated by one already
        # kept; a superset's signature covers the subset's.
        kept: list[tuple[tuple[int, ...], int]] = []
        for leaves in sorted(merged, key=lambda leaves: (len(leaves), leaves)):
            sig = merged[leaves][0]
            for other, other_sig in kept:
                if not other_sig & ~sig and set(other).issubset(leaves):
                    break
            else:
                kept.append((leaves, sig))
                if len(kept) == self.max_cuts:
                    break
        cuts = []
        for leaves, _ in kept:
            _, cut0, cut1 = merged[leaves]
            table0 = expand_cut(cut0.table, cut0.leaves, leaves)
            table1 = expand_cut(cut1.table, cut1.leaves, leaves)
            universe = all_ones(len(leaves))
            if lit_sign(f0):
                table0 ^= universe
            if lit_sign(f1):
                table1 ^= universe
            cuts.append(Cut(leaves, table0 & table1))
        cuts.append(Cut((node,), 0b10))  # trivial cut, always last
        return cuts

    def __getitem__(self, node: int) -> list[Cut]:
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


def _signature(leaves: tuple[int, ...]) -> int:
    """64-bit leaf signature: the OR of two cuts' signatures has at
    most as many bits set as their leaf union has leaves."""
    sig = 0
    for leaf in leaves:
        sig |= 1 << (leaf & 63)
    return sig
