"""Resubstitution: re-express nodes as functions of existing divisors.

Classic MIS/ABC-style resubstitution (Mishchenko et al.): a node whose
function can be rebuilt from up to ``k`` *divisors* -- nodes the graph
already pays for -- frees its maximum fanout-free cone.  This pass
works on the same windowed global truth tables the functional sweep
uses (:func:`repro.aig.rewrite.global_node_tables`): a node and its
candidate divisors are compared as functions over the primary
inputs/latch outputs they depend on, so acceptance is an exact
functional argument, not a structural heuristic.

For every node ``n`` (in topological order, over a rebuilt graph):

1. collect divisors: already-rebuilt nodes (never in ``n``'s
   transitive fanout, so no cycles) whose support is a subset of
   ``n``'s and whose truth table is known;
2. greedily pick at most ``k`` divisors whose value vector
   distinguishes every ON/OFF assignment pair of ``n``'s function;
3. derive the dependency function ``h`` over those divisors -- leaf
   vectors no source assignment can produce become don't-cares -- and
   build it through the shared ISOP machinery;
4. accept when the dry-run cost is strictly below the node's MFFC
   size (a net node decrease), never counting reused divisors.

Resubstitution is *exact* (the new cone equals the old function on
every reachable and unreachable input), so any number of acceptances
compose safely within one pass; the test suite checks the result with
SAT-based equivalence on randomized graphs.
"""

from __future__ import annotations

from repro.aig.graph import AIG
from repro.aig.rewrite import (
    build_plan,
    deref_cone,
    global_node_tables,
    plan_cover,
    reref_cone,
)
from repro.aig.tt_util import expand_table
from repro.tables.bits import all_ones, popcount, var_mask

#: Hard ceiling on divisors entering one dependency function: ``h`` is
#: resynthesised through truth tables, so its universe must stay small.
MAX_RESUB_K = 6


def resub(
    aig: AIG,
    k: int = 3,
    max_divisors: int = 16,
    support_limit: int = 8,
) -> AIG:
    """One resubstitution pass; returns the (possibly) smaller graph.

    Args:
        aig: the graph to optimize (functionality is preserved).
        k: maximum divisors the replacement function may read.
        max_divisors: bound on internal candidate divisors tried per
            node (sources of the node's support are always available
            on top of these).
        support_limit: widest global support a node may have and still
            be a resubstitution target/divisor; bounds table sizes.

    Returns:
        A cleaned-up AIG, never larger than the input: if the
        accepted substitutions do not pay off after dead-cone removal
        (shared logic can shrink an MFFC estimate), the original
        graph is returned unchanged.
    """
    if k < 1 or k > MAX_RESUB_K:
        raise ValueError(f"k must be in 1..{MAX_RESUB_K}, got {k}")
    if max_divisors < 1:
        raise ValueError(f"max_divisors must be >= 1, got {max_divisors}")
    if support_limit < 1:
        raise ValueError(f"support_limit must be >= 1, got {support_limit}")

    tables = global_node_tables(aig, support_limit)
    refs = aig.fanout_counts()

    new = AIG()
    lit_map: dict[int, int] = {0: 0}
    for node, name in zip(aig.pis, aig.pi_names):
        lit_map[node << 1] = new.add_pi(name)
    for latch in aig.latches:
        lit_map[latch.node << 1] = new.add_latch(
            latch.name, latch.reset_kind, latch.reset_value
        )

    def translate(lit: int) -> int:
        return lit_map[lit & ~1] ^ (lit & 1)

    # Internal divisor candidates: old-graph AND nodes already rebuilt
    # (strictly earlier in topo order), in order of appearance.
    divisor_pool: list[int] = []

    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        best_lit = new.and_(translate(f0), translate(f1))
        key = tables[node]
        # MFFC via the standard deref/re-ref walk on the shared count
        # array; the member set is needed to disqualify divisors that
        # would die with the node they are meant to replace.
        mffc_members: set[int] = set()
        budget = deref_cone(aig, node, refs, mffc_members)
        if key is not None and len(key[0]) >= 1 and budget > 1:
            sources, table = key
            candidate = _try_resub(
                new,
                node,
                sources,
                table,
                tables,
                divisor_pool,
                mffc_members,
                translate,
                k,
                max_divisors,
                budget,
            )
            if candidate is not None:
                best_lit = candidate
        reref_cone(aig, node, refs)
        lit_map[node << 1] = best_lit
        divisor_pool.append(node)

    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    for old_latch, new_latch in zip(aig.latches, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    if compacted.num_ands > aig.num_ands:
        return aig
    return compacted


def _try_resub(
    new: AIG,
    node: int,
    sources: tuple[int, ...],
    table: int,
    tables,
    divisor_pool: list[int],
    mffc_members: set[int],
    translate,
    k: int,
    max_divisors: int,
    budget: int,
) -> int | None:
    """Attempt to re-express ``node``; returns the new literal or None."""
    universe = all_ones(len(sources))
    if table == 0 or table == universe:
        return None  # constants are strash/sweep territory
    source_set = set(sources)

    # Divisors as (old id or source, table over `sources`), sources
    # first -- they are free variables, always usable, and make the
    # fallback of "resynthesise over the support" expressible.
    divisors: list[tuple[int, int]] = []
    for position, source in enumerate(sources):
        divisors.append((source, var_mask(position, len(sources))))
    taken = 0
    examined = 0
    # Bound the *walk* as well as the accepts: on graphs whose global
    # supports are mostly disjoint almost nothing qualifies, and an
    # uncapped scan of every earlier node would make the pass
    # quadratic in graph size.
    scan_cap = 32 * max_divisors
    for old in reversed(divisor_pool):
        if taken >= max_divisors or examined >= scan_cap:
            break
        examined += 1
        if old in mffc_members:
            continue  # dies with the node it would replace
        key = tables[old]
        if key is None:
            continue
        d_sources, d_table = key
        if not d_sources or not set(d_sources) <= source_set:
            continue
        expanded = expand_table(d_table, d_sources, sources)
        if expanded == 0 or expanded == universe:
            continue
        divisors.append((old, expanded))
        taken += 1

    chosen = _pick_divisors(table, universe, divisors, k)
    if chosen is None:
        return None

    on, dc = _dependency_function(
        table, [d for _, d in chosen], len(sources)
    )
    leaf_lits = [
        translate(old << 1) for old, _ in chosen
    ]
    cost, plan = plan_cover(
        new, on, dc, len(chosen), leaf_lits, limit=budget
    )
    if cost >= budget:
        return None
    return build_plan(new, plan, on, dc, len(chosen), leaf_lits)


def _pick_divisors(
    table: int, universe: int, divisors: list[tuple[int, int]], k: int
) -> list[tuple[int, int]] | None:
    """Greedily select <= k divisors that distinguish ON from OFF.

    The source assignments are partitioned by the value vector of the
    selected divisors; a partition holding both ON and OFF minterms of
    ``table`` is a conflict.  Each step adds the divisor that removes
    the most conflicting mass; failure to reach zero conflicts within
    ``k`` picks means no dependency function exists over this pool.
    """
    groups = [universe]
    chosen: list[tuple[int, int]] = []

    def conflict_mass(parts: list[int]) -> int:
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
        for index, (old, d_table) in enumerate(divisors):
            if any(old == picked for picked, _ in chosen):
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
        chosen.append(divisors[index])
        groups = parts
        current = best_mass
    if current > 0:
        return None
    return chosen


def _dependency_function(
    table: int, divisor_tables: list[int], num_sources: int
) -> tuple[int, int]:
    """Truth table of ``h`` with ``h(d_1(x),...,d_m(x)) = f(x)``.

    Returns ``(on, dc)`` over the divisor variables: divisor vectors
    produced only by OFF assignments are OFF (implicitly), only by ON
    assignments are ON, and vectors no assignment produces are
    don't-cares -- the satisfiability don't-cares of the divisor set.
    The caller guarantees conflict-freedom, so the classification is
    total.
    """
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
