"""Cut-based rewriting and functional sweeping.

Two complementary clean-up passes run after elaboration:

* :func:`tt_sweep` -- global functional reduction: nodes whose truth
  table over (a bounded window of) the combinational inputs coincides
  are merged.  This is what removes the redundant halves of partially
  evaluated mux trees.
* :func:`rewrite` -- local resynthesis: each node's function over one
  of its 4-feasible cuts is re-expressed through ISOP; the new
  structure is adopted when it creates fewer fresh nodes than the
  node's maximum fanout-free cone currently spends.

Both passes preserve functionality; the test suite checks this with
SAT-based equivalence on randomized graphs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.aig.cuts import CutSet
from repro.aig.graph import AIG, lit_compl, lit_node, lit_sign
from repro.aig.tt_util import expand_table, project_table
from repro.tables.bits import all_ones, tt_support
from repro.tables.cube import Cube
from repro.tables.isop import MEMO_SIZE, isop

_SWEEP_SUPPORT_LIMIT = 12


def adaptive_support_limit(aig: AIG) -> int:
    """Window size for sweeping, shrunk for very large graphs."""
    ands = aig.num_ands
    if ands <= 20_000:
        return _SWEEP_SUPPORT_LIMIT
    if ands <= 80_000:
        return 10
    return 8


def tt_sweep(aig: AIG, support_limit: int | None = None) -> AIG:
    """Merge functionally equivalent nodes (exact, windowed).

    Every AND node whose structural support has at most
    ``support_limit`` sources gets a canonical key: its truth table
    over those sources (normalised to the true support).  Nodes with
    equal keys (or complementary keys) collapse onto one
    representative.  Wider nodes are kept structurally.
    """
    if support_limit is None:
        support_limit = adaptive_support_limit(aig)
    # OLD node id -> (sorted source tuple, table) or None when too
    # wide; depends only on the input graph, so the shared propagation
    # computes it up front.
    tables = global_node_tables(aig, support_limit)
    new = AIG()
    lit_map: dict[int, int] = {0: 0}
    canonical: dict[tuple[tuple[int, ...], int], int] = {}

    for node, name in zip(aig.pis, aig.pi_names):
        lit_map[node << 1] = new.add_pi(name)
    for latch in aig.latches:
        lit_map[latch.node << 1] = new.add_latch(
            latch.name, latch.reset_kind, latch.reset_value
        )

    def translate(lit: int) -> int:
        return lit_map[lit & ~1] ^ (lit & 1)

    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        key = tables[node]
        built = None
        if key is not None:
            leaves, table = key
            universe = all_ones(len(leaves))
            if table == 0:
                built = 0
            elif table == universe:
                built = 1
            else:
                rep = canonical.get(key)
                if rep is not None:
                    built = translate(rep << 1)
                else:
                    compl = canonical.get((leaves, table ^ universe))
                    if compl is not None:
                        built = lit_compl(translate(compl << 1))
                    else:
                        canonical[key] = node
        if built is None:
            built = new.and_(translate(f0), translate(f1))
        lit_map[node << 1] = built

    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    for old_latch, new_latch in zip(aig.latches, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    return compacted


def _node_table(f0: int, f1: int, tables, support_limit: int):
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


def rewrite(aig: AIG, k: int = 4, max_cuts: int = 6) -> AIG:
    """One pass of cut-based local resynthesis.

    For every AND node, try to re-express its best ``k``-cut function
    through an ISOP cover built over already-rebuilt leaves; adopt the
    version that adds the fewest new nodes.  Candidate size is measured
    with a dry run against the new graph's structural hash table, so
    rejected candidates leave no residue.
    """
    cuts = CutSet(aig, k=k, max_cuts=max_cuts)
    mffc = mffc_sizes(aig)
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

    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        best_lit = new.and_(translate(f0), translate(f1))
        budget = mffc[node]
        for cut in cuts[node]:
            if cut.size < 2 or cut.leaves == (node,):
                continue
            leaf_lits = [translate(leaf << 1) for leaf in cut.leaves]
            cost, plan = plan_cover(
                new, cut.table, 0, cut.size, leaf_lits, limit=budget
            )
            if cost < budget:
                candidate = build_plan(new, plan, cut.table, 0, cut.size, leaf_lits)
                best_lit = candidate
                budget = cost
        lit_map[node << 1] = best_lit

    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    for old_latch, new_latch in zip(aig.latches, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    return compacted


def global_node_tables(
    aig: AIG, support_limit: int
) -> dict[int, tuple[tuple[int, ...], int] | None]:
    """Windowed global truth tables for every node.

    Maps each node to ``(sources, table)`` -- its function over the
    (sorted) primary inputs and latch outputs it transitively depends
    on, normalised to the true support -- or ``None`` when that
    support exceeds ``support_limit``.  This is the same propagation
    :func:`tt_sweep` runs inline; :mod:`repro.aig.resub` and
    :mod:`repro.aig.dontcare` share it as the substrate for
    divisor/don't-care reasoning.  Because the variables are genuine
    sources (every assignment of them is achievable), conclusions
    drawn from these tables are exact, never approximate.
    """
    tables: dict[int, tuple[tuple[int, ...], int] | None] = {0: ((), 0)}
    for node in aig.pis:
        tables[node] = ((node,), 0b10)
    for latch in aig.latches:
        tables[latch.node] = ((latch.node,), 0b10)
    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        tables[node] = _node_table(f0, f1, tables, support_limit)
    return tables


def deref_cone(
    aig: AIG, root: int, refs: list[int], members: set[int] | None = None
) -> int:
    """Dereference ``root``'s cone on the shared count array.

    Returns the MFFC size; when ``members`` is given, the cone's node
    set is collected into it as well (resubstitution needs the set to
    disqualify divisors that would die with the node they replace).
    Must be undone with :func:`reref_cone` before the next query.
    """
    if members is not None:
        members.add(root)
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        for lit in aig.fanins(node):
            child = lit_node(lit)
            refs[child] -= 1
            if refs[child] == 0 and aig.is_and(child):
                if members is not None:
                    members.add(child)
                stack.append(child)
    return count


def reref_cone(aig: AIG, root: int, refs: list[int]) -> None:
    """Undo :func:`deref_cone` (the standard re-reference walk)."""
    stack = [root]
    while stack:
        node = stack.pop()
        for lit in aig.fanins(node):
            child = lit_node(lit)
            if refs[child] == 0 and aig.is_and(child):
                stack.append(child)
            refs[child] += 1


def mffc_sizes(aig: AIG) -> list[int]:
    """Size of each node's maximum fanout-free cone.

    Uses the standard dereference/re-reference trick on one shared
    reference-count array, so the whole computation is linear in the
    total MFFC volume rather than quadratic in graph size.
    """
    refs = aig.fanout_counts()
    sizes = [0] * aig.num_nodes
    for node in aig.topo_order():
        sizes[node] = deref_cone(aig, node, refs)
        reref_cone(aig, node, refs)
    return sizes


class _OverBudget(Exception):
    """A dry run reached its limit of fresh nodes."""


def plan_cover(
    aig: AIG,
    on: int,
    dc: int,
    num_vars: int,
    leaf_lits: list[int],
    limit: int | None = None,
):
    """Dry-run ISOP construction of any function ``g`` with
    ``on <= g <= on | dc``; returns (new-node count, plan), the plan
    being each cube's ``(variable, negate)`` literal pairs.

    With ``limit``, the dry run stops once it counts ``limit`` fresh
    nodes and returns a cost of at least ``limit`` with no plan.
    Callers keep a plan only when its cost is below their budget, so
    they pass that budget and skip the rest of a losing dry run.
    """
    universe = all_ones(num_vars)
    if on == 0 or (on | dc) == universe:
        return 0, []
    cubes = isop(on, dc, num_vars)
    if limit is not None and limit <= 0:
        return 0, None
    cover = _cover_literals(tuple(cubes))
    overlay: dict[tuple[int, int], int] = {}
    first_fake = aig.num_nodes
    strash = aig._strash

    def dry_and(a: int, b: int) -> int:
        if a == 0 or b == 0 or a == lit_compl(b):
            return 0
        if a == 1 or a == b:
            return b
        if b == 1:
            return a
        if a > b:
            a, b = b, a
        existing = strash.get((a, b))
        if existing is not None:
            return existing << 1
        fake = overlay.get((a, b))
        if fake is None:
            fake = (first_fake + len(overlay)) << 1
            overlay[(a, b)] = fake
            if len(overlay) == limit:
                raise _OverBudget
        return fake

    try:
        _build_cover_shape(dry_and, cover, leaf_lits)
    except _OverBudget:
        return limit, None
    return len(overlay), cover


def build_plan(
    aig: AIG, cover, on: int, dc: int, num_vars: int, leaf_lits: list[int]
) -> int:
    """Materialise a :func:`plan_cover` plan in ``aig``; the dry run
    and this build share one shape, so the cost estimate is exact."""
    if on == 0:
        return 0
    if (on | dc) == all_ones(num_vars):
        return 1
    return _build_cover_shape(aig.and_, cover, leaf_lits)


# One entry per distinct cover, so the ISOP memo's bound fits here too.
@lru_cache(maxsize=MEMO_SIZE)
def _cover_literals(
    cubes: tuple[Cube, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each cube's literals as ``(variable, negate)`` pairs: the leaf
    literal of ``variable`` XOR ``negate`` is the AND input."""
    return tuple(
        tuple((var, 0 if polarity else 1) for var, polarity in cube.literals())
        for cube in cubes
    )


def _build_cover_shape(and_fn, cover, leaf_lits: list[int]) -> int:
    """The exact AND/OR shape shared by the dry run and the real build."""
    terms = []
    for cube in cover:
        acc = 1
        for lit in sorted(leaf_lits[var] ^ negate for var, negate in cube):
            acc = and_fn(acc, lit)
        terms.append(acc)
    result = 0
    for term in sorted(terms):
        result = lit_compl(and_fn(lit_compl(result), lit_compl(term)))
    return result
