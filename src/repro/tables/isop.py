"""Irredundant sum-of-products covers via the Minato-Morreale procedure.

Given an ON-set ``on`` and a DC-set ``dc`` (as truth-table ints), the
:func:`isop` routine returns a list of :class:`~repro.tables.cube.Cube`
whose union covers every ON minterm, touches no OFF minterm, and in
which no cube is redundant.  This is the workhorse two-level minimizer
of the project: it is what the "direct sum-of-products" implementations
in the Fig. 5/Fig. 6 experiments are generated from, and it is also used
by the AIG rewriting pass to re-express small logic cones.

The recursion is the classic one: split on a variable, compute the
cubes needed exclusively in each half, then cover what remains with
cubes that do not mention the split variable at all.

The cover is a pure function of ``(on, dc, num_vars)``, and the
rewriting passes ask for the same few hundred covers hundreds of
thousands of times, so :func:`isop` memoizes it process-wide.
"""

from __future__ import annotations

from functools import lru_cache

from repro.tables.bits import all_ones, cofactor0, cofactor1, var_mask
from repro.tables.cube import Cube

#: Bound on memoized covers: about four times the most distinct covers
#: a benchmark workload asks for (763 in a Fig. 9 run, 2,058 in the
#: paper-scale technology sweep), so none of them evicts.
MEMO_SIZE = 8192


def isop(on: int, dc: int, num_vars: int) -> list[Cube]:
    """Compute an irredundant SOP cover of ``on`` using ``dc`` freely.

    Args:
        on: truth table of minterms that must be covered.
        dc: truth table of minterms that may be covered.
        num_vars: variable universe size.

    Returns:
        Cubes whose union ``f`` satisfies ``on <= f <= on | dc``.

    Raises:
        ValueError: if ``on`` and ``dc`` overlap or exceed the universe.
    """
    universe = all_ones(num_vars)
    if on & ~universe or dc & ~universe:
        raise ValueError("truth table wider than the variable universe")
    if on & dc:
        raise ValueError("ON-set and DC-set overlap")
    # A fresh list per call: callers may edit it, never the memo.
    # Cubes are frozen, so sharing them is safe.
    return list(_cover(on, dc, num_vars))


@lru_cache(maxsize=MEMO_SIZE)
def _cover(on: int, dc: int, num_vars: int) -> tuple[Cube, ...]:
    cubes, _ = _isop(on, on | dc, num_vars, num_vars)
    return tuple(cubes)


def _isop(lower: int, upper: int, top: int, num_vars: int) -> tuple[list[Cube], int]:
    """Recursive core: cover ``lower`` within ``upper``.

    ``top`` bounds the variables that may still be split on (all
    variables >= top are known to not matter).  Returns the cover and
    its characteristic function.
    """
    if lower == 0:
        return [], 0
    if upper == all_ones(num_vars):
        return [Cube.universal(num_vars)], all_ones(num_vars)

    # Find the highest variable on which either bound still depends.
    split = -1
    for var in range(top - 1, -1, -1):
        if (
            cofactor0(lower, var, num_vars) != cofactor1(lower, var, num_vars)
            or cofactor0(upper, var, num_vars) != cofactor1(upper, var, num_vars)
        ):
            split = var
            break
    if split < 0:
        # Neither bound depends on any remaining variable; lower != 0 and
        # upper != 1 cannot both hold for constant tables with lower<=upper.
        # lower != 0 means lower == upper == all ones, handled above.
        raise AssertionError("unreachable: constant bounds not caught")

    lower0 = cofactor0(lower, split, num_vars)
    lower1 = cofactor1(lower, split, num_vars)
    upper0 = cofactor0(upper, split, num_vars)
    upper1 = cofactor1(upper, split, num_vars)

    # Cubes that must carry a negative literal on the split variable:
    # ON minterms of the 0-half that the 1-half's upper bound excludes.
    cubes0, cover0 = _isop(lower0 & ~upper1, upper0, split, num_vars)
    # Symmetrically for the positive literal.
    cubes1, cover1 = _isop(lower1 & ~upper0, upper1, split, num_vars)

    # Whatever ON minterms remain can be covered without the variable.
    remaining = (lower0 & ~cover0) | (lower1 & ~cover1)
    cubes_both, cover_both = _isop(remaining, upper0 & upper1, split, num_vars)

    cubes = [cube.with_literal(split, False) for cube in cubes0]
    cubes += [cube.with_literal(split, True) for cube in cubes1]
    cubes += cubes_both

    pattern = var_mask(split, num_vars)
    cover = (cover0 & ~pattern) | (cover1 & pattern) | cover_both
    return cubes, cover
