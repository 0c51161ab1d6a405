"""Cover planning: the budget-limited dry run against the plain one."""

import copy
import random

import pytest

from repro.aig.graph import AIG, lit_compl
from repro.aig.rewrite import build_plan, plan_cover
from repro.tables.bits import all_ones
from repro.tables.isop import isop


def reference_cover_shape(and_fn, cubes, leaf_lits):
    terms = []
    for cube in cubes:
        lits = sorted(
            leaf_lits[var] if polarity else lit_compl(leaf_lits[var])
            for var, polarity in cube.literals()
        )
        acc = 1
        for lit in lits:
            acc = and_fn(acc, lit)
        terms.append(acc)
    result = 0
    for term in sorted(terms):
        result = lit_compl(and_fn(lit_compl(result), lit_compl(term)))
    return result


def reference_plan_cover(aig, on, dc, num_vars, leaf_lits):
    """The whole dry run with no limit, reading each cube's literals
    from :meth:`Cube.literals`; returns (fresh-node count, cubes)."""
    if on == 0 or (on | dc) == all_ones(num_vars):
        return 0, []
    cubes = isop(on, dc, num_vars)
    overlay = {}

    def dry_and(a, b):
        if a == 0 or b == 0 or a == lit_compl(b):
            return 0
        if a == 1 or a == b:
            return b
        if b == 1:
            return a
        a, b = min(a, b), max(a, b)
        existing = aig._strash.get((a, b))
        if existing is not None:
            return existing << 1
        return overlay.setdefault((a, b), (aig.num_nodes + len(overlay)) << 1)

    reference_cover_shape(dry_and, cubes, leaf_lits)
    return len(overlay), cubes


def random_cover_case(rng):
    """An AIG with some structure to hit, leaf literals into it, and a
    random (on, dc) pair over 1..6 variables."""
    aig = AIG()
    pool = [aig.add_pi(f"x{index}") for index in range(6)]
    for _ in range(rng.randint(0, 30)):
        lit = aig.and_(
            rng.choice(pool) ^ rng.randint(0, 1),
            rng.choice(pool) ^ rng.randint(0, 1),
        )
        if lit > 1:
            pool.append(lit)
    num_vars = rng.randint(1, 6)
    leaf_lits = [rng.choice(pool) ^ rng.randint(0, 1) for _ in range(num_vars)]
    universe = all_ones(num_vars)
    on = rng.getrandbits(1 << num_vars)
    dc = rng.getrandbits(1 << num_vars) & ~on if rng.random() < 0.5 else 0
    if rng.random() < 0.2:
        on &= rng.getrandbits(1 << num_vars)  # sparse ON-sets, cheap covers
    return aig, on & universe, dc & universe, num_vars, leaf_lits


@pytest.mark.parametrize("seed", range(4))
def test_limited_plan_cover_agrees_with_the_full_dry_run(seed):
    """Below the limit, the limited call returns the full dry run's
    cost and plan; otherwise a cost of at least the limit."""
    rng = random.Random(seed)
    for _ in range(150):
        aig, on, dc, num_vars, leaf_lits = random_cover_case(rng)
        want_cost, cubes = reference_plan_cover(aig, on, dc, num_vars, leaf_lits)
        cost, plan = plan_cover(aig, on, dc, num_vars, leaf_lits)
        assert cost == want_cost
        assert [
            [(var, 0 if polarity else 1) for var, polarity in cube.literals()]
            for cube in cubes
        ] == [list(cube) for cube in plan]
        for limit in range(9):
            limited = plan_cover(aig, on, dc, num_vars, leaf_lits, limit=limit)
            if want_cost < limit:
                assert limited == (cost, plan)
            else:
                assert limited[0] >= limit

        # The build spends exactly the planned nodes, on the same shape.
        built = copy.deepcopy(aig)
        reference = copy.deepcopy(aig)
        lit = build_plan(built, plan, on, dc, num_vars, leaf_lits)
        if on == 0 or (on | dc) == all_ones(num_vars):
            want_lit = 0 if on == 0 else 1
        else:
            want_lit = reference_cover_shape(reference.and_, cubes, leaf_lits)
        assert lit == want_lit
        assert built.num_ands == reference.num_ands
        assert built.num_ands - aig.num_ands == cost
