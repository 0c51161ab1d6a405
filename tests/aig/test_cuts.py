"""Cut expansion: the memoized merge primitive against its definition."""

import itertools
import random

from repro.aig.cuts import expand_cut
from repro.tables.bits import all_ones


def minterm_expand_cut(table, from_leaves, to_leaves):
    """The minterm-by-minterm definition of cut expansion: minterm
    ``m`` of the result reads ``table`` at the source minterm whose
    variable ``i`` is bit ``to_leaves.index(from_leaves[i])`` of
    ``m``."""
    if from_leaves == to_leaves:
        return table
    num_to = len(to_leaves)
    if not from_leaves:
        return all_ones(num_to) if table & 1 else 0
    positions = [to_leaves.index(leaf) for leaf in from_leaves]
    result = 0
    for minterm in range(1 << num_to):
        source = 0
        for from_var, to_var in enumerate(positions):
            if minterm >> to_var & 1:
                source |= 1 << from_var
        if table >> source & 1:
            result |= 1 << minterm
    return result


def test_expand_cut_matches_minterm_definition_exhaustively():
    """Every table over every sorted leaf subset of up to 4 leaves."""
    leaves = (3, 8, 21, 40)
    for width in range(len(leaves) + 1):
        for to_leaves in itertools.combinations(leaves, width):
            for size in range(width + 1):
                for from_leaves in itertools.combinations(to_leaves, size):
                    for table in range(1 << (1 << size)):
                        assert expand_cut(
                            table, from_leaves, to_leaves
                        ) == minterm_expand_cut(table, from_leaves, to_leaves)


def test_expand_cut_matches_minterm_definition_random():
    """Random tables and leaf subsets up to the 6-leaf cut limit."""
    rng = random.Random(2006)
    for _ in range(300):
        to_leaves = tuple(sorted(rng.sample(range(64), rng.randint(1, 6))))
        from_leaves = tuple(
            sorted(rng.sample(to_leaves, rng.randint(0, len(to_leaves))))
        )
        table = rng.getrandbits(1 << len(from_leaves))
        assert expand_cut(
            table, from_leaves, to_leaves
        ) == minterm_expand_cut(table, from_leaves, to_leaves)
