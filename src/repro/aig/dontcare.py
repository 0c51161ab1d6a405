"""Windowed don't-care computation and don't-care-aware rewriting.

The exact rewriting pass (:func:`repro.aig.rewrite.rewrite`) may only
re-express a cut's function verbatim.  Inside a larger design that is
needlessly strict: some leaf-value combinations can never occur
(*satisfiability* don't-cares -- the cut leaves are correlated
functions of the primary inputs), and on others the node's value never
reaches an output (*observability* don't-cares -- downstream logic
masks it).  On either kind the replacement logic may differ freely,
which is what lets a don't-care-aware pass accept strictly smaller
covers the exact pass must reject.

Both kinds are computed *exactly* over bounded windows:

* SDCs come from the windowed global truth tables of the cut leaves
  (:func:`repro.aig.rewrite.global_node_tables`).  The table variables
  are genuine sources (PIs/latch outputs), every assignment of which
  is achievable, so a leaf vector no source assignment produces is a
  true don't-care.
* ODCs come from a bounded transitive-fanout window: the node's value
  is replayed as a free variable through the window, and the *roots*
  -- window members feeding a combinational output or any node
  outside the window -- are where a flip must surface to be
  observable.  If no root changes, nothing outside the window can
  (the window boundary cuts every escape path), so unobservability at
  the roots is sound regardless of the rest of the design.

Acceptance is batched within one pass under a taint rule: a node's
don't-cares are trusted only while every node whose function entered
the computation (the decision cone: the roots' transitive fanins,
which cover the leaf cones, the window, and its side logic) is still
exact.  Nodes rewritten under don't-cares are *tainted*; later nodes
whose decision cone touches a tainted node fall back to the exact
rebuild.  The test suite checks the composition with SAT-based
equivalence on randomized graphs.
"""

from __future__ import annotations

from repro.aig.cuts import CutSet
from repro.aig.graph import AIG, lit_node
from repro.aig.rewrite import (
    build_plan,
    global_node_tables,
    mffc_sizes,
    plan_cover,
)
from repro.aig.tt_util import expand_table, remove_var
from repro.tables.bits import all_ones, cofactor0, cofactor1

#: Sentinel variable standing for "the node under analysis" while its
#: value is replayed through the fanout window; sorts before every
#: real node id, so it is always variable 0 of a window table.
NU = -1


def dc_rewrite(
    aig: AIG,
    k: int = 4,
    max_cuts: int = 6,
    tfo_depth: int = 2,
    support_limit: int = 10,
) -> AIG:
    """One pass of don't-care-aware cut rewriting.

    The structure mirrors :func:`repro.aig.rewrite.rewrite` -- rebuild
    in topological order, dry-run every candidate cover, accept on a
    strict node decrease against the node's MFFC -- but each cut's
    ON-set is first relaxed by the windowed don't-cares, so covers the
    exact pass rejects become acceptable when the context allows.

    Args:
        aig: the graph to optimize (observable behaviour is preserved).
        k: cut width, as in the exact rewriting pass.
        max_cuts: cuts kept per node.
        tfo_depth: fanout levels in the observability window; deeper
            windows see more masking logic but cost more.
        support_limit: widest source support a window table may reach;
            bounds every truth-table computation.

    Returns:
        A cleaned-up AIG, never larger than the input.
    """
    if tfo_depth < 1:
        raise ValueError(f"tfo_depth must be >= 1, got {tfo_depth}")
    if support_limit < 1:
        raise ValueError(f"support_limit must be >= 1, got {support_limit}")

    tables = global_node_tables(aig, support_limit)
    cuts = CutSet(aig, k=k, max_cuts=max_cuts)
    mffc = mffc_sizes(aig)
    topo = aig.topo_order()
    topo_position = {node: index for index, node in enumerate(topo)}
    fanout_adj = _and_fanouts(aig, topo)
    out_refs = {
        lit_node(lit) for lit in aig.combinational_outputs()
    }

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

    # Nodes whose *original* function a decision may no longer trust:
    # each accepted rewrite marks itself and its transitive fanout.  A
    # stale node in a window's decision cone is equivalent to a root
    # in the stale set (t is in TFI(r) exactly when r is in TFO(t)),
    # so the guard costs O(|roots|) per node instead of a cone walk.
    stale: set[int] = set()

    for node in topo:
        f0, f1 = aig.fanins(node)
        best_lit = new.and_(translate(f0), translate(f1))
        lit_map[node << 1] = best_lit

        tfo, roots = _window(node, fanout_adj, out_refs, tfo_depth)
        if not roots:
            continue  # dead cone: nothing observes this node
        # Don't-cares are only trusted while every function that
        # entered their computation -- anything in the roots'
        # transitive fanins, which covers the leaf cones, the window,
        # and its side logic -- is still exact.
        if stale and not stale.isdisjoint(roots):
            continue
        observability = _observability(
            aig, node, tfo, roots, tables, topo_position, support_limit
        )
        if observability is None:
            continue  # window tables exceeded the support budget
        obs_sources, obs_table = observability

        budget = mffc[node]
        accepted = False
        for cut in cuts[node]:
            if cut.size < 2 or cut.leaves == (node,):
                continue
            dc = _cut_dontcares(
                cut.leaves, tables, obs_sources, obs_table, support_limit
            )
            if not dc:
                continue  # no freedom here: the exact pass's job
            on = cut.table & ~dc
            leaf_lits = [translate(leaf << 1) for leaf in cut.leaves]
            cost, plan = plan_cover(
                new, on, dc, cut.size, leaf_lits, limit=budget
            )
            if cost < budget:
                best_lit = build_plan(
                    new, plan, on, dc, cut.size, leaf_lits
                )
                budget = cost
                accepted = True
        if accepted:
            lit_map[node << 1] = best_lit
            _mark_stale(node, fanout_adj, stale)

    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    for old_latch, new_latch in zip(aig.latches, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    if compacted.num_ands > aig.num_ands:
        return aig
    return compacted


def _and_fanouts(aig: AIG, topo: list[int]) -> dict[int, list[int]]:
    """AND-node fanout adjacency over the *live* nodes only (the topo
    order covers exactly the output cones).  Dead consumers are on no
    path to an output, so they observe nothing and must not drag the
    window -- or the root set -- toward unreachable logic."""
    adj: dict[int, list[int]] = {}
    for node in topo:
        for lit in aig.fanins(node):
            adj.setdefault(lit_node(lit), []).append(node)
    return adj


def _window(
    node: int,
    fanout_adj: dict[int, list[int]],
    out_refs: set[int],
    depth: int,
) -> tuple[set[int], set[int]]:
    """The observability window of ``node``.

    Returns ``(tfo, roots)``: the AND nodes reachable within ``depth``
    fanout steps (including the node itself), and the members every
    escape path crosses -- nodes feeding a combinational output or any
    consumer outside the window.  An empty root set means the node is
    dead.
    """
    tfo = {node}
    frontier = [node]
    for _ in range(depth):
        grown: list[int] = []
        for member in frontier:
            for consumer in fanout_adj.get(member, ()):
                if consumer not in tfo:
                    tfo.add(consumer)
                    grown.append(consumer)
        frontier = grown
    roots = {
        member
        for member in tfo
        if member in out_refs
        or any(
            consumer not in tfo
            for consumer in fanout_adj.get(member, ())
        )
    }
    return tfo, roots


def _mark_stale(
    node: int, fanout_adj: dict[int, list[int]], stale: set[int]
) -> None:
    """Mark an accepted rewrite: ``node`` and everything downstream of
    it no longer compute their original functions, so no later window
    whose decision cone reaches them may trust the precomputed tables.
    One forward walk per acceptance (rare) buys an O(|roots|)
    disjointness guard on every other node."""
    stack = [node]
    while stack:
        member = stack.pop()
        if member in stale:
            continue
        stale.add(member)
        stack.extend(fanout_adj.get(member, ()))


def _observability(
    aig: AIG,
    node: int,
    tfo: set[int],
    roots: set[int],
    tables,
    topo_position: dict[int, int],
    support_limit: int,
):
    """Observability of ``node`` at its window roots.

    Replays the node's value as the free variable :data:`NU` through
    the window and differentiates every root against it.  Returns
    ``(sources, obs_table)`` where ``obs_table`` over ``sources``
    marks the assignments on which some root sees a flip -- with the
    convention that ``sources == ()`` means the constant table:
    ``obs_table`` 0 (never observable) or 1 (always observable, also
    used when the node itself is a root).  Returns ``None`` when a
    window table exceeds the support budget.
    """
    if node in roots:
        return (), 1
    nu_tables: dict[int, tuple[tuple[int, ...], int]] = {
        node: ((NU,), 0b10)
    }
    for member in sorted(tfo - {node}, key=topo_position.__getitem__):
        merged = _nu_node_table(
            aig, member, nu_tables, tables, support_limit
        )
        if merged is None:
            return None
        nu_tables[member] = merged

    union_sources: set[int] = set()
    diffs: list[tuple[tuple[int, ...], int]] = []
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


def _nu_node_table(
    aig: AIG,
    member: int,
    nu_tables,
    tables,
    support_limit: int,
):
    """Truth table of a window member over sources plus :data:`NU`."""
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


def _cut_dontcares(
    leaves: tuple[int, ...],
    tables,
    obs_sources: tuple[int, ...],
    obs_table: int,
    support_limit: int,
) -> int:
    """Combined SDC+ODC table over a cut's leaf variables.

    A leaf minterm is a don't-care when no source assignment both
    produces it (satisfiability) and makes the node observable at the
    window roots (observability).  Returns 0 when the computation is
    infeasible or yields no freedom.
    """
    leaf_keys = []
    for leaf in leaves:
        key = tables[leaf]
        if key is None:
            return 0
        leaf_keys.append(key)
    universe_sources: set[int] = set(obs_sources)
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
