"""The pure-Python kernel backend: big-int truth tables.

This is the hot-path code of ``rewrite``/``resub``/``dc_rewrite``,
moved here from those modules, and its behaviour is pinned: every
other backend is held to bit-for-bit agreement with this one by the
differential test harness.  Tables are the big-int encoding of
:mod:`repro.tables.bits`; windowed sweeping costs are bounded by the
callers' ``support_limit``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.aig.graph import lit_node, lit_sign
from repro.aig.kernel import NU, KernelBackend
from repro.aig.tt_util import (
    expand_table,
    insert_var,
    project_table,
    remove_var,
)
from repro.tables.bits import (
    all_ones,
    cofactor0,
    cofactor1,
    popcount,
    tt_support,
)
from repro.tables.isop import isop

#: Bound on memoized cut expansions.  Cut tables have at most 6 leaves,
#: so the distinct (table, positions, width) keys stay few (334 in a
#: Fig. 9 run, 412 in the paper-scale technology sweep) and no
#: benchmark workload evicts.
EXPAND_CUT_MEMO_SIZE = 4096


class PureBackend(KernelBackend):
    """Big-int truth tables: the reference kernel, no dependencies."""

    name = "pure"

    # -- table algebra ------------------------------------------------
    def insert_var(self, table, position, num_vars):
        return insert_var(table, position, num_vars)

    def remove_var(self, table, position, num_vars):
        return remove_var(table, position, num_vars)

    def expand_table(self, table, from_leaves, to_leaves):
        return expand_table(table, from_leaves, to_leaves)

    def project_table(self, table, keep_positions, num_vars):
        return project_table(table, keep_positions, num_vars)

    def expand_cut(self, table, from_leaves, to_leaves):
        """Re-express a cut table over a sorted superset of its sorted
        leaves (the cut-enumeration merge primitive).  Only where the
        leaves land matters, so the memo is keyed on positions."""
        if from_leaves == to_leaves:
            return table
        positions = tuple(map(to_leaves.index, from_leaves))
        return _expand_cut(table, positions, len(to_leaves))

    # -- support / popcount queries -----------------------------------
    def popcount(self, table):
        return popcount(table)

    def support(self, table, num_vars):
        return tt_support(table, num_vars)

    def isop_cover(self, on, dc, num_vars):
        return isop(on, dc, num_vars)

    # -- batched window simulation ------------------------------------
    def node_table(self, f0, f1, tables, support_limit):
        """Truth table of an AND node over the union of fanin sources."""
        key0 = tables[lit_node(f0)]
        key1 = tables[lit_node(f1)]
        if key0 is None or key1 is None:
            return None
        leaves0, table0 = key0
        leaves1, table1 = key1
        leaves = tuple(sorted(set(leaves0) | set(leaves1)))
        if len(leaves) > support_limit:
            return None
        expanded0 = expand_table(table0, leaves0, leaves)
        expanded1 = expand_table(table1, leaves1, leaves)
        universe = all_ones(len(leaves))
        if lit_sign(f0):
            expanded0 ^= universe
        if lit_sign(f1):
            expanded1 ^= universe
        table = expanded0 & expanded1
        support = tt_support(table, len(leaves))
        if len(support) != len(leaves):
            table = project_table(table, support, len(leaves))
            leaves = tuple(leaves[i] for i in support)
        return leaves, table

    def global_node_tables(self, aig, support_limit):
        """Windowed global truth tables for every node (see
        :func:`repro.aig.rewrite.global_node_tables` for the
        contract)."""
        tables = {0: ((), 0)}
        for node in aig.pis:
            tables[node] = ((node,), 0b10)
        for latch in aig.latches:
            tables[latch.node] = ((latch.node,), 0b10)
        for node in aig.topo_order():
            f0, f1 = aig.fanins(node)
            tables[node] = self.node_table(f0, f1, tables, support_limit)
        return tables

    def observability(
        self, aig, node, tfo, roots, tables, topo_position, support_limit
    ):
        """Observability of ``node`` at its window roots (see
        :mod:`repro.aig.dontcare` for the contract)."""
        if node in roots:
            return (), 1
        nu_tables = {node: ((NU,), 0b10)}
        for member in sorted(tfo - {node}, key=topo_position.__getitem__):
            merged = self._nu_node_table(
                aig, member, nu_tables, tables, support_limit
            )
            if merged is None:
                return None
            nu_tables[member] = merged

        union_sources = set()
        diffs = []
        for root in roots:
            leaves, table = nu_tables[root]
            if NU not in leaves:
                continue  # the window paths cancelled: root ignores the node
            position = leaves.index(NU)
            flip = cofactor0(table, position, len(leaves)) ^ cofactor1(
                table, position, len(leaves)
            )
            flip = remove_var(flip, position, len(leaves))
            rest = tuple(leaf for leaf in leaves if leaf != NU)
            if flip:
                diffs.append((rest, flip))
                union_sources.update(rest)
        if not diffs:
            return (), 0
        sources = tuple(sorted(union_sources))
        if len(sources) > support_limit:
            return None
        obs = 0
        for rest, flip in diffs:
            obs |= expand_table(flip, rest, sources)
        return sources, obs

    def _nu_node_table(self, aig, member, nu_tables, tables, support_limit):
        """Truth table of a window member over sources plus
        :data:`~repro.aig.kernel.NU`."""
        f0, f1 = aig.fanins(member)
        keys = []
        for lit in (f0, f1):
            fanin = lit_node(lit)
            key = nu_tables.get(fanin) or tables[fanin]
            if key is None:
                return None
            keys.append(key)
        (leaves0, table0), (leaves1, table1) = keys
        leaves = tuple(sorted(set(leaves0) | set(leaves1)))
        # One extra slot for NU on top of the source budget.
        if len(leaves) > support_limit + 1:
            return None
        expanded0 = expand_table(table0, leaves0, leaves)
        expanded1 = expand_table(table1, leaves1, leaves)
        universe = all_ones(len(leaves))
        if f0 & 1:
            expanded0 ^= universe
        if f1 & 1:
            expanded1 ^= universe
        return leaves, expanded0 & expanded1

    def cut_dontcares(
        self, leaves, tables, obs_sources, obs_table, support_limit
    ):
        """Combined SDC+ODC table over a cut's leaf variables (see
        :mod:`repro.aig.dontcare` for the contract)."""
        leaf_keys = []
        for leaf in leaves:
            key = tables[leaf]
            if key is None:
                return 0
            leaf_keys.append(key)
        universe_sources = set(obs_sources)
        for leaf_sources, _ in leaf_keys:
            universe_sources.update(leaf_sources)
        if len(universe_sources) > support_limit:
            return 0
        sources = tuple(sorted(universe_sources))
        universe = all_ones(len(sources))
        if obs_sources == ():
            care_space = universe if obs_table else 0
        else:
            care_space = expand_table(obs_table, obs_sources, sources)
        leaf_tables = [
            expand_table(table, leaf_sources, sources)
            for leaf_sources, table in leaf_keys
        ]

        dc = 0
        for vector in range(1 << len(leaves)):
            achievers = care_space
            for index, leaf_table in enumerate(leaf_tables):
                if not achievers:
                    break
                if (vector >> index) & 1:
                    achievers &= leaf_table
                else:
                    achievers &= ~leaf_table & universe
            if not achievers:
                dc |= 1 << vector
        return dc

    # -- resubstitution support ---------------------------------------
    def dependency_function(self, table, divisor_tables, num_sources):
        """``(on, dc)`` of ``h`` with ``h(d_1(x),...,d_m(x)) = f(x)``
        (see :mod:`repro.aig.resub` for the contract)."""
        num_vars = len(divisor_tables)
        on = 0
        seen = 0
        for minterm in range(1 << num_sources):
            vector = 0
            for index, d_table in enumerate(divisor_tables):
                if (d_table >> minterm) & 1:
                    vector |= 1 << index
            seen |= 1 << vector
            if (table >> minterm) & 1:
                on |= 1 << vector
        dc = all_ones(num_vars) & ~seen
        return on, dc

    def pick_divisors(self, table, divisor_tables, num_sources, k):
        """Greedily select <= k divisors that distinguish ON from OFF.

        The source assignments are partitioned by the value vector of
        the selected divisors; a partition holding both ON and OFF
        minterms of ``table`` is a conflict.  Each step adds the
        divisor that removes the most conflicting mass; failure to
        reach zero conflicts within ``k`` picks means no dependency
        function exists over this pool.  Returns the chosen *indices*
        into ``divisor_tables``, in pick order, or ``None``.
        """
        universe = all_ones(num_sources)
        groups = [universe]
        chosen = []

        def conflict_mass(parts):
            total = 0
            for part in parts:
                on_count = popcount(table & part)
                off_count = popcount(~table & universe & part)
                total += min(on_count, off_count)
            return total

        current = conflict_mass(groups)
        while current > 0 and len(chosen) < k:
            best = None
            best_mass = current
            for index, d_table in enumerate(divisor_tables):
                if index in chosen:
                    continue
                parts = []
                for group in groups:
                    hi = group & d_table
                    lo = group & ~d_table & universe
                    if hi:
                        parts.append(hi)
                    if lo:
                        parts.append(lo)
                mass = conflict_mass(parts)
                if mass < best_mass:
                    best = (index, parts)
                    best_mass = mass
            if best is None:
                return None  # no divisor makes progress
            index, parts = best
            chosen.append(index)
            groups = parts
            current = best_mass
        if current > 0:
            return None
        return chosen


@lru_cache(maxsize=EXPAND_CUT_MEMO_SIZE)
def _expand_cut(table: int, positions: tuple[int, ...], width: int) -> int:
    return expand_table(table, positions, tuple(range(width)))
