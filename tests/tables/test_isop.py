"""Unit tests for the Minato-Morreale ISOP minimizer."""

import random

import pytest

from repro.tables.bits import all_ones
from repro.tables.cube import cover_truth_table
from repro.tables.isop import isop


def check_cover(on, dc, num_vars):
    cubes = isop(on, dc, num_vars)
    table = cover_truth_table(cubes, num_vars)
    assert on & ~table == 0, "cover misses ON minterms"
    assert table & ~(on | dc) == 0, "cover touches OFF minterms"
    return cubes


def test_constant_false():
    assert isop(0, 0, 3) == []


def test_constant_true_single_cube():
    cubes = check_cover(all_ones(3), 0, 3)
    assert len(cubes) == 1
    assert cubes[0].num_literals() == 0


def test_single_minterm():
    cubes = check_cover(1 << 5, 0, 3)
    assert len(cubes) == 1
    assert cubes[0].num_literals() == 3


def test_xor_needs_two_cubes():
    # XOR of 2 vars: ON = {01, 10}
    on = (1 << 0b01) | (1 << 0b10)
    cubes = check_cover(on, 0, 2)
    assert len(cubes) == 2


def test_dontcares_simplify():
    # ON = {11}, DC = {01, 10}: a single 1-literal cube suffices.
    on = 1 << 0b11
    dc = (1 << 0b01) | (1 << 0b10)
    cubes = check_cover(on, dc, 2)
    assert len(cubes) == 1
    assert cubes[0].num_literals() == 1


def test_rejects_overlapping_on_dc():
    # Validation runs before the memo, so every repeat raises too.
    for _ in range(3):
        with pytest.raises(ValueError):
            isop(0b1, 0b1, 1)


def test_rejects_oversized_tables():
    for _ in range(3):
        with pytest.raises(ValueError):
            isop(1 << 8, 0, 2)


def test_returned_cover_is_a_fresh_list():
    # Mutating one answer must not leak into the memoized cover.
    on = (1 << 0b01) | (1 << 0b10)
    first = isop(on, 0, 2)
    expected = list(first)
    first.clear()
    first.append("junk")
    assert isop(on, 0, 2) == expected
    assert isop(on, 0, 2) is not isop(on, 0, 2)


def test_random_functions_covered(subtests=None):
    rng = random.Random(1234)
    for num_vars in range(1, 9):
        for _ in range(20):
            universe = all_ones(num_vars)
            on = rng.getrandbits(1 << num_vars)
            dc = rng.getrandbits(1 << num_vars) & ~on & universe
            check_cover(on, dc, num_vars)


def test_irredundant_on_random_functions():
    rng = random.Random(99)
    for _ in range(30):
        num_vars = rng.randint(2, 6)
        on = rng.getrandbits(1 << num_vars)
        dc = rng.getrandbits(1 << num_vars) & ~on
        cubes = isop(on, dc, num_vars)
        # Removing any single cube must expose an uncovered ON minterm.
        for skip in range(len(cubes)):
            rest = [c for i, c in enumerate(cubes) if i != skip]
            table = cover_truth_table(rest, num_vars)
            assert on & ~table != 0, "found a redundant cube"
