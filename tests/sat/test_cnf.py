"""Tseitin encoding: input naming and the per-graph encoding cache."""

import itertools

from repro.aig.graph import AIG, lit_compl
from repro.sat.cnf import CnfBuilder, input_names

#: Two-input functions, each built as one AND node over the same two
#: PIs, so every graph puts a different function at the same node.
FUNCTIONS = [
    (lambda aig, a, b: aig.and_(a, b), lambda x, y: x and y),
    (lambda aig, a, b: aig.and_(a, lit_compl(b)), lambda x, y: x and not y),
    (lambda aig, a, b: aig.and_(lit_compl(a), b), lambda x, y: not x and y),
    (lambda aig, a, b: aig.or_(a, b), lambda x, y: x or y),
]


def test_input_names_cover_pis_and_latches():
    aig = AIG()
    x = aig.add_pi("x")
    q = aig.add_latch("q")
    y = aig.add_pi("y")
    assert input_names(aig) == {x >> 1: "x", q >> 1: "latch:q", y >> 1: "y"}


def test_one_builder_over_short_lived_graphs():
    """Each graph is dropped before the next is built, so CPython hands
    the next one the same ``id()``; the builder must not answer for the
    new graph's node with the dead graph's variable."""
    builder = CnfBuilder()
    for index in range(24):
        build, truth = FUNCTIONS[index % len(FUNCTIONS)]
        aig = AIG()
        out = build(aig, aig.add_pi("a"), aig.add_pi("b"))
        sat_out = builder.encode(aig, out)
        del aig
        var_a, var_b = builder.input_var("a"), builder.input_var("b")
        for x, y in itertools.product((False, True), repeat=2):
            assumptions = [var_a if x else -var_a, var_b if y else -var_b]
            assert builder.solver.solve(assumptions + [sat_out]) == truth(x, y)
