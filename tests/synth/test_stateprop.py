"""Unit tests for state propagation and folding.

These exercise the paper's Section III examples directly: one-hot
restrictions collapsing downstream logic, and the flop-boundary
behaviour that motivates annotations.
"""

import copy
import pickle
import random

import pytest

from repro.aig.graph import AIG, lit_compl, lit_node
from repro.aig import ops
from repro.sat.cnf import CnfBuilder, input_names
from repro.sat.equiv import prove_lit_constant, prove_lits_equal
from repro.sat.solver import Solver
from repro.synth import stateprop
from repro.synth.stateprop import (
    _MAX_SAT_CANDIDATES,
    _SIM_PATTERNS,
    FoldStats,
    _Counterexamples,
    _prove_candidates,
    _tainted_nodes,
    fold_states,
)
from repro.synth.statesets import ValueSet, care_literal

from tests.helpers import eval_lits, make_word, pi_assign


def test_onescounter_collapses_to_constant_one():
    """The paper's example: a ones-counter of a one-hot bus is 1."""
    aig = AIG()
    y = make_word(aig, "y", 4)
    # Population count == 1 comparator over 4 bits.
    exactly_one = 0
    for i in range(4):
        others_zero = 1
        for j in range(4):
            if j != i:
                others_zero = aig.and_(others_zero, lit_compl(y[j]))
        exactly_one = aig.or_(exactly_one, aig.and_(y[i], others_zero))
    aig.add_po("count_is_one", exactly_one)

    folded, stats = fold_states(
        aig, {"y": (y, ValueSet.onehot(4))}, rounds=2
    )
    assert folded.pos[0][1] == 1  # constant true
    assert folded.num_ands == 0
    assert stats.constants_proven >= 1


def test_pairwise_and_of_onehot_is_zero():
    aig = AIG()
    y = make_word(aig, "y", 4)
    pair = aig.and_(y[1], y[2])
    aig.add_po("pair", pair)
    folded, _ = fold_states(aig, {"y": (y, ValueSet.onehot(4))})
    assert folded.pos[0][1] == 0


def test_fig7_mux_becomes_redundant():
    """y one-hot => (y & (y>>1)) == 0 => the output mux disappears."""
    aig = AIG()
    y = make_word(aig, "y", 8)
    a = make_word(aig, "a", 8)
    b = make_word(aig, "b", 8)
    overlap = [aig.and_(y[i], y[i + 1]) for i in range(7)]
    sel = ops.reduce_or(aig, overlap)
    out = ops.mux_word(aig, sel, a, b)
    for bit, lit in enumerate(out):
        aig.add_po(f"out[{bit}]", lit)
    before = aig.num_ands
    folded, _ = fold_states(aig, {"y": (y, ValueSet.onehot(8))})
    # All that remains is out = b: zero AND nodes.
    assert folded.num_ands == 0
    assert before > 0
    for bit, (name, lit) in enumerate(folded.pos):
        # output bit should be exactly b[bit] (a PI literal).
        node_names = dict(zip(folded.pis, folded.pi_names))
        assert node_names[lit >> 1] == f"b[{bit}]"


def test_folding_preserves_function_on_care_set():
    rng = random.Random(31)
    aig = AIG()
    y = make_word(aig, "y", 4)
    x = make_word(aig, "x", 3)
    pool = list(y) + list(x)
    for _ in range(40):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for index in range(5):
        aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))

    value_set = ValueSet(4, (1, 2, 4, 8))
    folded, _ = fold_states(aig, {"y": (y, value_set)})

    po_lits_old = [lit for _, lit in aig.pos]
    po_lits_new = [lit for _, lit in folded.pos]
    new_y = [node << 1 for node, name in zip(folded.pis, folded.pi_names) if name.startswith("y")]
    new_x = [node << 1 for node, name in zip(folded.pis, folded.pi_names) if name.startswith("x")]
    for y_val in value_set.values:
        for x_val in range(8):
            want = eval_lits(
                aig, po_lits_old, pi_assign(y, y_val) | pi_assign(x, x_val)
            )
            got = eval_lits(
                folded, po_lits_new,
                pi_assign(new_y, y_val) | pi_assign(new_x, x_val),
            )
            assert got == want, (y_val, x_val)


def test_latch_bus_annotation_folds_downstream():
    """Annotated latch outputs enable cross-flop folding."""
    aig = AIG()
    x = make_word(aig, "x", 2)
    y = [aig.add_latch(f"y[{i}]") for i in range(4)]
    dec = ops.onehot_decode(aig, x)
    for lit, d in zip(y, dec):
        aig.set_latch_next(lit, d)
    # Downstream redundancy: y[0] & y[3].
    aig.add_po("bad", aig.and_(y[0], y[3]))
    # Without annotation nothing happens (the tool's real limitation).
    unfolded, stats = fold_states(aig, {})
    assert stats.constants_proven == 0
    # With the annotation the node folds to zero.
    folded, _ = fold_states(aig, {"y": (y, ValueSet.onehot(4))})
    assert folded.pos[0][1] == 0


def test_trivial_annotation_is_ignored():
    aig = AIG()
    y = make_word(aig, "y", 2)
    aig.add_po("f", aig.and_(y[0], y[1]))
    folded, stats = fold_states(aig, {"y": (y, ValueSet.full(2))})
    assert stats.rounds == 0
    assert folded.num_ands == 1


def test_merge_of_care_equivalent_nodes():
    aig = AIG()
    y = make_word(aig, "y", 2)
    z = aig.add_pi("z")
    # Under care {01, 10}: y0 == ~y1, so y0&z == ~y1&z.
    left = aig.and_(y[0], z)
    right = aig.and_(lit_compl(y[1]), z)
    aig.add_po("l", left)
    aig.add_po("r", right)
    folded, stats = fold_states(aig, {"y": (y, ValueSet(2, (1, 2)))})
    (_, l_lit), (_, r_lit) = folded.pos
    assert l_lit == r_lit
    assert stats.merges_proven >= 1


# ----------------------------------------------------------------------
# The sweep against the one it replaced
# ----------------------------------------------------------------------


def reference_signatures(aig, buses, rng):
    """``_signatures`` as it stood before counterexample reuse."""
    pi_values = {node: rng.getrandbits(_SIM_PATTERNS) for node in aig.pis}
    latch_values = {
        latch.node: rng.getrandbits(_SIM_PATTERNS) for latch in aig.latches
    }
    for bus, value_set in buses.values():
        packed = value_set.sample_packed(rng, _SIM_PATTERNS)
        for bit, lit in enumerate(bus):
            node = lit_node(lit)
            if aig.is_latch_output(node):
                latch_values[node] = packed[bit]
            else:
                pi_values[node] = packed[bit]

    mask = (1 << _SIM_PATTERNS) - 1
    values = [0] * aig.num_nodes
    for node in aig.pis:
        values[node] = pi_values[node]
    for latch in aig.latches:
        values[latch.node] = latch_values[latch.node]

    def lit_value(lit):
        value = values[lit >> 1]
        return value ^ mask if lit & 1 else value

    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        values[node] = lit_value(f0) & lit_value(f1)
    return values


def reference_prove_candidates(aig, buses, rng, stats):
    """``_prove_candidates`` as it stood before counterexample reuse:
    every candidate goes to SAT."""
    tainted = _tainted_nodes(aig, buses)
    signatures = reference_signatures(aig, buses, rng)
    mask = (1 << _SIM_PATTERNS) - 1

    builder = CnfBuilder()
    care_lits = []
    for bus, value_set in buses.values():
        care = care_literal(aig, bus, value_set)
        care_lits.append(builder.encode(aig, care))

    constants = {}
    merges = {}
    by_signature = {}
    order = aig.topo_order()
    tried = 0
    for node in order:
        if not tainted[node]:
            continue
        if tried >= _MAX_SAT_CANDIDATES:
            break
        signature = signatures[node]
        if signature == 0 or signature == mask:
            tried += 1
            stats.candidates_tried += 1
            proven = prove_lit_constant(aig, node << 1, care_lits, builder)
            if proven is not None:
                constants[node] = proven
                continue
        representative = by_signature.get(signature)
        complement = by_signature.get(signature ^ mask)
        if representative is not None:
            tried += 1
            stats.candidates_tried += 1
            if prove_lits_equal(
                aig, node << 1, representative << 1, care_lits, builder
            ):
                merges[node] = representative << 1
                continue
        elif complement is not None:
            tried += 1
            stats.candidates_tried += 1
            if prove_lits_equal(
                aig, node << 1, lit_compl(complement << 1), care_lits, builder
            ):
                merges[node] = lit_compl(complement << 1)
                continue
        by_signature.setdefault(signature, node)
    return constants, merges


def random_value_set(rng, width):
    size = rng.randint(1, (1 << width) - 1)
    return ValueSet(width, tuple(sorted(rng.sample(range(1 << width), size))))


def random_annotated_aig(rng):
    """Random logic over free PIs ``x``, an annotated PI bus ``y`` and
    an annotated latch bus ``s``.  Most ANDs extend a recent node by
    one input literal, so many nodes are sparse cubes that simulate to
    0 without being constant: false candidates whose satisfiable
    queries leave counterexamples behind."""
    aig = AIG()
    x = make_word(aig, "x", 10)
    y = make_word(aig, "y", 3)
    s = [aig.add_latch(f"s[{i}]") for i in range(3)]
    inputs = x + y + s
    pool = list(inputs)
    for _ in range(rng.randint(40, 90)):
        if rng.random() < 0.7:
            a = rng.choice(pool[-8:]) ^ (rng.random() < 0.1)
            b = rng.choice(inputs) ^ rng.randint(0, 1)
        else:
            a = rng.choice(pool) ^ rng.randint(0, 1)
            b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for index in range(6):
        aig.add_po(f"f{index}", rng.choice(pool[-40:]) ^ rng.randint(0, 1))
    for lit in s:
        aig.set_latch_next(lit, rng.choice(pool) ^ rng.randint(0, 1))
    buses = {
        "y": (y, random_value_set(rng, 3)),
        "s": (s, random_value_set(rng, 3)),
    }
    return aig, buses


def complemented(buses, rng):
    """The buses with each literal complemented at random."""
    return {
        name: ([lit ^ rng.randint(0, 1) for lit in bus], value_set)
        for name, (bus, value_set) in buses.items()
    }


class SolveCounter:
    """Counts ``Solver.solve`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Solver.solve

        def solve(solver, *args, **kwargs):
            self.calls += 1
            return original(solver, *args, **kwargs)

        monkeypatch.setattr(Solver, "solve", solve)


def stats_fields(stats):
    return (
        stats.constants_proven,
        stats.merges_proven,
        stats.candidates_tried,
        stats.rounds,
        stats.per_round,
    )


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_fold_matches_the_sweep_that_asks_sat_everything(rounds, monkeypatch):
    """Same graph and statistics as the sweep that asked SAT about
    every candidate, with every query it asked either asked again or
    skipped (``sat_calls + sat_skipped``)."""
    counter = SolveCounter(monkeypatch)
    asked = skipped = 0
    for seed in range(40):
        aig, buses = random_annotated_aig(random.Random(seed))

        def reference(graph, rebound, rng, stats, _counterexamples):
            return reference_prove_candidates(graph, rebound, rng, stats)

        with monkeypatch.context() as patch:
            patch.setattr(stateprop, "_prove_candidates", reference)
            before = counter.calls
            want, want_stats = fold_states(
                copy.deepcopy(aig), buses, rounds, random.Random(seed)
            )
            reference_calls = counter.calls - before
        before = counter.calls
        got, got_stats = fold_states(
            copy.deepcopy(aig), buses, rounds, random.Random(seed)
        )
        assert got.canonical_hash() == want.canonical_hash(), seed
        assert stats_fields(got_stats) == stats_fields(want_stats), seed
        assert got_stats.sat_calls == counter.calls - before, seed
        assert got_stats.sat_calls + got_stats.sat_skipped == reference_calls
        asked += got_stats.sat_calls
        skipped += got_stats.sat_skipped
    assert skipped > 0 and asked > 0


def test_candidates_match_under_care_violating_patterns():
    """Buses given through complemented literals: the random patterns
    are drawn for the nodes, so only some of them satisfy the care
    predicate, and only those may settle a query."""
    violating = 0
    for seed in range(60):
        rng = random.Random(seed)
        aig, buses = random_annotated_aig(rng)
        buses = complemented(buses, rng)
        want_stats = FoldStats()
        want = reference_prove_candidates(
            copy.deepcopy(aig), buses, random.Random(seed), want_stats
        )
        got_stats = FoldStats()
        got = _prove_candidates(
            copy.deepcopy(aig), buses, random.Random(seed), got_stats,
            _Counterexamples(),
        )
        assert got == want, seed
        assert got_stats.candidates_tried == want_stats.candidates_tried
        violating += any(lit & 1 for bus, _ in buses.values() for lit in bus)
    assert violating > 0


def care_holds(aig, buses, counterexamples, index):
    names = input_names(aig)
    for bus, value_set in buses.values():
        value = 0
        for bit, lit in enumerate(bus):
            name = names[lit_node(lit)]
            level = counterexamples.values.get(name, 0) >> index & 1
            value |= (level ^ (lit & 1)) << bit
        if value not in value_set.values:
            return False
    return True


def test_every_counterexample_satisfies_the_care_predicate():
    stored = 0
    for seed in range(30):
        rng = random.Random(seed)
        aig, buses = random_annotated_aig(rng)
        if seed % 2:
            buses = complemented(buses, rng)
        counterexamples = _Counterexamples()
        for _ in range(2):
            _prove_candidates(
                aig, buses, random.Random(seed), FoldStats(), counterexamples
            )
        for index in range(counterexamples.count):
            assert care_holds(aig, buses, counterexamples, index), (seed, index)
        stored += counterexamples.count
    assert stored > 0


def test_a_carried_counterexample_settles_the_query_it_answered():
    """A chain of ever sparser cubes: the first run asks SAT whether
    each cube that simulates to 0 can be 1, and a rerun that starts
    from those models (as the next round does) asks nothing."""
    aig = AIG()
    y = make_word(aig, "y", 2)
    cube = y[0]
    for lit in make_word(aig, "x", 12):
        cube = aig.and_(cube, lit)
    aig.add_po("cube", cube)
    buses = {"y": (y, ValueSet(2, (1, 2)))}
    want = reference_prove_candidates(
        copy.deepcopy(aig), buses, random.Random(7), FoldStats()
    )
    counterexamples = _Counterexamples()
    first, rerun = FoldStats(), FoldStats()
    for stats in (first, rerun):
        got = _prove_candidates(
            copy.deepcopy(aig), buses, random.Random(7), stats,
            counterexamples,
        )
        assert got == want
    assert first.sat_calls > 0
    assert counterexamples.count == first.sat_calls  # every one was SAT
    assert rerun.sat_calls == 0
    assert rerun.sat_skipped == first.sat_calls + first.sat_skipped


def test_fold_stats_pickled_before_the_sat_counters_still_load():
    old = FoldStats(constants_proven=2, per_round=[(2, 0)])
    del old.__dict__["sat_calls"], old.__dict__["sat_skipped"]
    loaded = pickle.loads(pickle.dumps(old))
    assert (loaded.sat_calls, loaded.sat_skipped) == (0, 0)
    assert loaded.constants_proven == 2


def test_inputs_sharing_a_name_must_agree_in_a_witness():
    """The SAT encoding gives same-named PIs one variable, so ``d``
    below is 0 on every real input, while the random patterns, drawn
    per node, almost never make all twelve pairs agree and show
    ``d = 1``.  Only patterns in which the pairs agree may settle a
    query, so ``n`` is still proven constant 0."""
    aig = AIG()
    y = make_word(aig, "y", 2)
    differs = [
        aig.xor(aig.add_pi(f"a{i}"), aig.add_pi(f"a{i}")) for i in range(12)
    ]
    d = ops.reduce_or(aig, differs)
    n = aig.and_(d, aig.or_(y[0], y[1]))
    aig.add_po("n", n)
    buses = {"y": (y, ValueSet(2, (1, 2)))}
    want = reference_prove_candidates(
        copy.deepcopy(aig), buses, random.Random(3), FoldStats()
    )
    assert want[0].get(lit_node(n)) == n & 1  # n itself is 0
    got = _prove_candidates(
        copy.deepcopy(aig), buses, random.Random(3), FoldStats(),
        _Counterexamples(),
    )
    assert got == want
