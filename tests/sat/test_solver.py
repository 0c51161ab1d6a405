"""Unit tests for the CDCL SAT solver, validated against brute force."""

import itertools
import random

import pytest

from repro.sat.solver import Solver, _luby

from tests.sat.reference_solver import Solver as DictSolver


def brute_force_sat(num_vars, clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {var: bits[var - 1] for var in range(1, num_vars + 1)}

        def value(lit):
            v = assignment[abs(lit)]
            return v if lit > 0 else not v

        if all(value(a) for a in assumptions) and all(
            any(value(lit) for lit in clause) for clause in clauses
        ):
            return True
    return False


def test_luby_sequence():
    expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [_luby(i) for i in range(len(expected))] == expected


def test_empty_problem_is_sat():
    assert Solver().solve()


def test_single_unit():
    solver = Solver()
    solver.add_clause([1])
    assert solver.solve()
    assert solver.model_value(1)


def test_contradictory_units():
    solver = Solver()
    solver.add_clause([1])
    solver.add_clause([-1])
    assert not solver.solve()


def test_empty_clause_unsat():
    solver = Solver()
    solver.add_clause([])
    assert not solver.solve()


def test_tautological_clause_dropped():
    solver = Solver()
    solver.add_clause([1, -1])
    assert solver.solve()


def test_zero_literal_rejected():
    with pytest.raises(ValueError):
        Solver().add_clause([0])


def test_simple_implication_chain():
    solver = Solver()
    solver.add_clause([1])
    solver.add_clause([-1, 2])
    solver.add_clause([-2, 3])
    assert solver.solve()
    assert solver.model_value(3)


def test_unsat_triangle():
    solver = Solver()
    for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
        solver.add_clause(clause)
    assert not solver.solve()


def test_pigeonhole_3_into_2_unsat():
    # Variables p[i][j]: pigeon i in hole j; i in 0..2, j in 0..1.
    def var(i, j):
        return 1 + i * 2 + j

    solver = Solver()
    for i in range(3):
        solver.add_clause([var(i, 0), var(i, 1)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                solver.add_clause([-var(i1, j), -var(i2, j)])
    assert not solver.solve()


def test_assumptions_flip_outcome():
    solver = Solver()
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1, -2]) is False
    assert solver.solve(assumptions=[-1]) is True
    assert solver.model_value(2)
    # Solver stays reusable after an UNSAT assumption call.
    assert solver.solve() is True


def test_assumption_of_fixed_var():
    solver = Solver()
    solver.add_clause([1])
    assert solver.solve(assumptions=[1])
    assert not solver.solve(assumptions=[-1])


def test_model_satisfies_clauses():
    rng = random.Random(0)
    for _ in range(30):
        num_vars = rng.randint(3, 8)
        clauses = []
        for _ in range(rng.randint(2, 20)):
            size = rng.randint(1, 3)
            clause = [
                rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)
            ]
            clauses.append(clause)
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve():
            assert all(
                any(solver.model_value(lit) for lit in clause) for clause in clauses
            )


def test_agrees_with_bruteforce_random():
    rng = random.Random(42)
    for trial in range(120):
        num_vars = rng.randint(2, 7)
        clauses = []
        for _ in range(rng.randint(1, 24)):
            size = rng.randint(1, 4)
            clauses.append(
                [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)]
            )
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        expected = brute_force_sat(num_vars, clauses)
        assert solver.solve() == expected, f"trial {trial}: {clauses}"


def test_agrees_with_bruteforce_under_assumptions():
    rng = random.Random(77)
    for trial in range(80):
        num_vars = rng.randint(2, 6)
        clauses = []
        for _ in range(rng.randint(1, 16)):
            size = rng.randint(1, 3)
            clauses.append(
                [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)]
            )
        assumed_vars = rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars))
        assumptions = [v * rng.choice([-1, 1]) for v in assumed_vars]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        expected = brute_force_sat(num_vars, clauses, assumptions)
        got = solver.solve(assumptions=assumptions)
        assert got == expected, f"trial {trial}: {clauses} assume {assumptions}"
        # Repeat the query to check reusability/incremental soundness.
        assert solver.solve(assumptions=assumptions) == expected
        assert solver.solve() == brute_force_sat(num_vars, clauses)


class ScanSolver(Solver):
    """The reference for the order heap and the unit-clause list: a
    linear scan over ``1..num_vars`` for the unassigned variable of
    highest activity (ties to the lowest index), and every clause
    re-scanned for units on each call."""

    def solve(self, assumptions=None):
        self._units = [
            index for index, clause in enumerate(self._clauses)
            if len(clause) == 1
        ]
        return super().solve(assumptions)

    def _pick_branch(self):
        best_var = None
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assign[var] is None:
                activity = self._activity[var]
                if activity > best_activity:
                    best_activity = activity
                    best_var = var
        if best_var is None:
            return None
        return best_var if self._phase[best_var] else -best_var


class BoundedHeapSolver(Solver):
    """Checks the order heap's size bound at every decision."""

    def _pick_branch(self):
        assert len(self._order) <= 2 * self._num_vars
        assert not any(self._in_order[self._num_vars + 1:])
        return super()._pick_branch()


def test_unit_clauses_open_every_trail():
    solver = Solver()
    solver.add_clause([1, 2, 3])
    solver.add_clause([-3])
    solver.add_clause([2])
    assert solver.solve(assumptions=[1])
    assert solver._trail[:2] == [-3, 2]
    solver.add_clause([-4])
    assert solver.solve()
    assert solver._trail[:3] == [-3, 2, -4]


def random_clause(rng, num_vars):
    size = 3 if rng.random() < 0.9 else rng.randint(1, 4)
    return [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)]


@pytest.mark.parametrize("near_rescale", [False, True])
def test_heap_makes_the_scans_decisions(near_rescale):
    """Same answers, models and trails as the linear scan, across
    incremental clause additions and assumptions -- including
    assumptions on variables no clause declared.  Instances start near
    the 3-SAT threshold and cross it, so the searches learn clauses;
    ``near_rescale`` starts the activity increment near 1e100 so the
    activity rescale happens mid-search."""
    rng = random.Random(2003 + near_rescale)
    rescaled = 0
    for _ in range(60):
        heap, scan = BoundedHeapSolver(), ScanSolver()
        if near_rescale:
            heap._var_inc = scan._var_inc = rng.uniform(1e99, 1e100)
        start_inc = heap._var_inc
        num_vars = rng.randint(15, 40)
        batch = 3 * num_vars
        for _ in range(6):
            for _ in range(batch):
                clause = random_clause(rng, num_vars)
                heap.add_clause(clause)
                scan.add_clause(clause)
            batch = rng.randint(1, num_vars // 3)
            assumed = rng.sample(range(1, num_vars + 4), rng.randint(0, 5))
            assumptions = [v * rng.choice([-1, 1]) for v in assumed]
            got = heap.solve(assumptions=assumptions)
            assert got == scan.solve(assumptions=assumptions)
            assert heap.model() == scan.model()
            assert heap._trail == scan._trail
            # Grow the universe between queries, as CnfBuilder does.
            num_vars += rng.randint(0, 2)
        rescaled += heap._var_inc < start_inc  # only a rescale shrinks it
    assert rescaled > 0 or not near_rescale


@pytest.mark.parametrize("near_rescale", [False, True])
def test_lists_make_the_dict_solvers_decisions(near_rescale):
    """The list-backed solver against the dict-backed one it replaced
    (``tests/sat/reference_solver.py``): the same answers, models,
    ``model_value`` readings and trails across incremental clause
    additions, assumptions on variables no clause declared, and (with
    ``near_rescale``) an activity rescale mid-search."""
    rng = random.Random(1994 + near_rescale)
    rescaled = 0
    for _ in range(60):
        lists, dicts = Solver(), DictSolver()
        if near_rescale:
            lists._var_inc = dicts._var_inc = rng.uniform(1e99, 1e100)
        start_inc = lists._var_inc
        num_vars = rng.randint(15, 40)
        batch = 3 * num_vars
        for _ in range(6):
            for _ in range(batch):
                clause = random_clause(rng, num_vars)
                lists.add_clause(clause)
                dicts.add_clause(clause)
            batch = rng.randint(1, num_vars // 3)
            assumed = rng.sample(range(1, num_vars + 4), rng.randint(0, 5))
            assumptions = [v * rng.choice([-1, 1]) for v in assumed]
            assert lists.solve(assumptions) == dicts.solve(assumptions)
            assert lists.model() == dicts.model()
            assert list(lists.model()) == list(dicts.model())
            assert lists._trail == dicts._trail
            for var in range(1, num_vars + 6):
                for lit in (var, -var):
                    assert lists.model_value(lit) == dicts.model_value(lit)
            num_vars += rng.randint(0, 2)
        rescaled += lists._var_inc < start_inc
    assert rescaled > 0 or not near_rescale


def test_assumption_on_an_undeclared_variable():
    models = []
    for solver in (Solver(), DictSolver()):
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, 7])
        assert solver.model() == {1: False, 7: True, 2: True}
        assert solver.model_value(7) and not solver.model_value(-7)
        assert not solver.model_value(9)
        # Declaring it later (with 3..6) puts it in the order heap
        # like any other variable.
        solver.add_clause([-7, -2])
        assert solver.solve(assumptions=[-1])
        assert solver.model()[7] is False
        models.append((solver.model(), solver._trail))
    assert models[0] == models[1]
