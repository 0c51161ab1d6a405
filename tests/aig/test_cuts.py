"""Cut enumeration and expansion against their straightforward
definitions."""

import itertools
import pickle
import random
import sys
import threading

import pytest

from repro.aig import cuts as cuts_module
from repro.aig.cuts import Cut, CutSet, enumerate_cuts, expand_cut
from repro.aig.graph import AIG, lit_node, lit_sign
from repro.aig.rewrite import rewrite
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


def pair_table(f0, f1, cut0, cut1, leaves):
    """The AND of the fanin cuts' tables over ``leaves``."""
    universe = all_ones(len(leaves))
    table0 = minterm_expand_cut(cut0.table, cut0.leaves, leaves)
    table1 = minterm_expand_cut(cut1.table, cut1.leaves, leaves)
    if lit_sign(f0):
        table0 ^= universe
    if lit_sign(f1):
        table1 ^= universe
    return table0 & table1


def reference_cuts(aig, k, max_cuts):
    """The straightforward enumerator: merge every fanin pair, keep the
    first pair's table for each new leaf set, sort by (size, leaves),
    drop cuts that contain a kept cut's leaves, keep the first
    ``max_cuts`` and append the trivial cut."""
    cuts = {source: (Cut((source,), 0b10),) for source in aig.combinational_inputs()}
    cuts[0] = (Cut((), 0),)
    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        merged = {}
        for cut0 in cuts[lit_node(f0)]:
            for cut1 in cuts[lit_node(f1)]:
                leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
                if len(leaves) > k or leaves in merged:
                    continue
                merged[leaves] = Cut(
                    leaves, pair_table(f0, f1, cut0, cut1, leaves)
                )
        kept = []
        for cut in sorted(merged.values(), key=lambda c: (c.size, c.leaves)):
            if any(set(other.leaves) <= set(cut.leaves) for other in kept):
                continue
            kept.append(cut)
        cuts[node] = tuple(kept[:max_cuts]) + (Cut((node,), 0b10),)
    return cuts


def random_cut_aig(rng, num_pis=6, num_latches=2, num_ands=50):
    """A random AIG with complemented fanins, latches, and some AND
    nodes with a constant fanin."""
    aig = AIG()
    pool = [aig.add_pi(f"x{index}") for index in range(num_pis)]
    latches = [aig.add_latch(f"q{index}") for index in range(num_latches)]
    pool += latches
    for _ in range(num_ands):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        if rng.random() < 0.1:
            # and_ folds constants away, so add such a node raw.
            node = aig._new_node(rng.randint(0, 1), a)
            pool.append(node << 1)
            continue
        b = rng.choice(pool) ^ rng.randint(0, 1)
        lit = aig.and_(a, b)
        if lit > 1:
            pool.append(lit)
    for latch in latches:
        aig.set_latch_next(latch, rng.choice(pool) ^ rng.randint(0, 1))
    for index in range(4):
        aig.add_po(f"f{index}", rng.choice(pool[-20:]) ^ rng.randint(0, 1))
    return aig


@pytest.mark.parametrize("k", range(2, 7))
def test_cut_set_matches_reference_enumerator(k):
    """Same leaves, tables and order at every node, for every cut size
    and a spread of cut limits."""
    rng = random.Random(2007 + k)
    for _ in range(6):
        aig = random_cut_aig(rng)
        for max_cuts in (1, 2, 6, 8):
            want = reference_cuts(aig, k, max_cuts)
            assert CutSet(aig, k=k, max_cuts=max_cuts).cuts == want


#: Fanin literals of eight AND nodes over three inputs (nodes 1-3).
#: Node 4 is ``1 & x2``: it duplicates x2, which and_ would fold away.
#: Some leaf sets of the last node then hold a node and part of its own
#: cone, and the fanin pairs producing them disagree on assignments the
#: circuit cannot reach.
PAIR_DEPENDENT_ANDS = [
    (1, 6), (3, 8), (4, 10), (7, 13), (10, 15), (10, 17), (14, 18), (17, 21)
]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_cut_table_comes_from_the_first_fanin_pair(k):
    aig = AIG()
    for index in range(3):
        aig.add_pi(f"x{index}")
    for fanin0, fanin1 in PAIR_DEPENDENT_ANDS:
        aig._new_node(fanin0, fanin1)
    root = aig.num_nodes - 1
    aig.add_po("f", root << 1)
    want = reference_cuts(aig, k, 8)
    # The premise: some kept cut's leaves come from two fanin pairs
    # with different tables.
    f0, f1 = aig.fanins(root)
    tables = {}
    for cut0 in want[lit_node(f0)]:
        for cut1 in want[lit_node(f1)]:
            leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
            tables.setdefault(leaves, set()).add(
                pair_table(f0, f1, cut0, cut1, leaves)
            )
    assert any(len(tables[cut.leaves]) > 1 for cut in want[root][:-1])
    assert CutSet(aig, k=k, max_cuts=8).cuts == want


@pytest.mark.parametrize("max_cuts", [0, -1])
def test_cut_set_rejects_max_cuts_below_one(max_cuts):
    aig = AIG()
    xs = [aig.add_pi(f"x{index}") for index in range(4)]
    aig.add_po("f", aig.and_(aig.and_(xs[0], xs[1]), aig.and_(xs[2], xs[3])))
    with pytest.raises(ValueError, match="max_cuts must be >= 1"):
        CutSet(aig, k=4, max_cuts=max_cuts)
    with pytest.raises(ValueError, match="max_cuts must be >= 1"):
        enumerate_cuts(aig, max_cuts=max_cuts)
    with pytest.raises(ValueError, match="max_cuts must be >= 1"):
        rewrite(aig, max_cuts=max_cuts)


@pytest.fixture
def compute_calls(monkeypatch):
    """Start with no remembered cut set, and record the graph of every
    enumeration."""
    monkeypatch.setattr(cuts_module, "_last", None)
    calls = []
    compute = CutSet._compute

    def counted(self):
        calls.append(self.aig)
        compute(self)

    monkeypatch.setattr(CutSet, "_compute", counted)
    return calls


@pytest.mark.parametrize("k", range(2, 7))
def test_remembered_cut_set_equals_a_fresh_enumeration(k, compute_calls):
    """A repeat request, here on an unpickled copy as a resumed compile
    sees it, is answered without enumerating and with the same cuts."""
    rng = random.Random(2011 + k)
    aig = random_cut_aig(rng)
    for max_cuts in (1, 2, 6, 8):
        want = reference_cuts(aig, k, max_cuts)
        fresh = CutSet(aig, k=k, max_cuts=max_cuts)
        calls = len(compute_calls)
        again = CutSet(pickle.loads(pickle.dumps(aig)), k=k, max_cuts=max_cuts)
        assert len(compute_calls) == calls
        assert again.cuts == fresh.cuts == want
    assert len(compute_calls) == 4


def renumbered_pair():
    """Two graphs that differ only in the order their two ANDs were
    created: equal canonical hashes, different node ids."""
    graphs = []
    for order in ((0, 1), (1, 0)):
        aig = AIG()
        xs = [aig.add_pi(f"x{index}") for index in range(4)]
        fanins = [(xs[0], xs[1]), (xs[2], aig.not_(xs[3]))]
        ands = {index: aig.and_(*fanins[index]) for index in order}
        aig.add_po("f", ands[0])
        aig.add_po("g", ands[1])
        graphs.append(aig)
    return graphs


def test_a_renumbered_graph_gets_cuts_over_its_own_nodes(compute_calls):
    aig, renumbered = renumbered_pair()
    assert aig.canonical_hash() == renumbered.canonical_hash()
    assert aig.pos != renumbered.pos
    CutSet(aig, k=4, max_cuts=6)
    cuts = CutSet(renumbered, k=4, max_cuts=6)
    assert compute_calls == [aig, renumbered]
    assert cuts.cuts == reference_cuts(renumbered, 4, 6)


def latch_aig():
    """A graph with one latch and an AND nothing reads yet."""
    aig = AIG()
    xs = [aig.add_pi(f"x{index}") for index in range(3)]
    q = aig.add_latch("q")
    live = aig.and_(aig.and_(xs[0], xs[1]), q)
    aig.set_latch_next(q, live)
    aig.add_po("f", aig.not_(live))
    dead = aig.and_(xs[2], aig.not_(q))
    return aig, xs, q, live, dead


@pytest.mark.parametrize("change", ["add_po", "set_latch_next", "and_"])
def test_a_graph_changed_after_enumeration_misses(change, compute_calls):
    aig, xs, q, live, dead = latch_aig()
    CutSet(aig, k=4, max_cuts=6)
    if change == "add_po":
        aig.add_po("g", dead)
    elif change == "set_latch_next":
        aig.set_latch_next(q, dead)
    else:
        aig.add_po("g", aig.and_(live, xs[2]))
    cuts = CutSet(aig, k=4, max_cuts=6)
    assert compute_calls == [aig, aig]
    assert cuts.cuts == reference_cuts(aig, 4, 6)


def test_a_set_above_the_bound_is_never_remembered(compute_calls, monkeypatch):
    """It is not kept, and the set remembered before it is dropped."""
    small, _ = renumbered_pair()
    aig = random_cut_aig(random.Random(2013))
    size = sum(map(len, reference_cuts(aig, 4, 6).values()))
    monkeypatch.setattr(cuts_module, "CUT_MEMO_MAX_CUTS", size - 1)
    CutSet(small, k=4, max_cuts=6)
    assert cuts_module._last is not None
    CutSet(aig, k=4, max_cuts=6)
    assert cuts_module._last is None
    CutSet(aig, k=4, max_cuts=6)
    assert len(compute_calls) == 3
    monkeypatch.setattr(cuts_module, "CUT_MEMO_MAX_CUTS", size)
    CutSet(aig, k=4, max_cuts=6)
    CutSet(aig, k=4, max_cuts=6)
    assert len(compute_calls) == 4


def test_per_node_cuts_are_immutable(compute_calls):
    aig = random_cut_aig(random.Random(2014))
    cuts = CutSet(aig, k=4, max_cuts=6)
    node = aig.topo_order()[-1]
    assert isinstance(cuts[node], tuple)
    with pytest.raises(TypeError):
        cuts.cuts[node] = ()
    with pytest.raises(TypeError):
        del cuts.cuts[node]
    with pytest.raises(AttributeError):
        cuts[node][0].table = 0


def test_threads_sharing_the_remembered_set_get_serial_results():
    """Four threads, each asking twice in a row for the cuts of one of
    three graphs in turn: every answer is the serial one."""
    rng = random.Random(2015)
    graphs = [random_cut_aig(rng, num_ands=80) for _ in range(3)]
    want = [reference_cuts(aig, 4, 6) for aig in graphs]
    wrong = []
    finished = []

    def work(offset):
        for step in range(24):
            index = (offset + step // 2) % len(graphs)
            if CutSet(graphs[index], k=4, max_cuts=6).cuts != want[index]:
                wrong.append((offset, step))
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []


def test_sweep_on_a_warm_cut_memo_matches_a_cold_run(
    tmp_path, monkeypatch, compute_calls
):
    """``compile_many`` twice in one process, the second time on a fresh
    compile cache, gives the graphs and areas of a run that never
    reuses a cut set."""
    from repro.expts.techsweep import build_jobs
    from repro.flow import CompileCache, compile_many

    jobs = build_jobs("small")

    def run(name):
        del compute_calls[:]
        results = compile_many(jobs, cache=CompileCache(tmp_path / name))
        return {
            key: (ctx.aig.canonical_hash(), ctx.area.total)
            for key, ctx in results.items()
        }

    with monkeypatch.context() as patch:
        patch.setattr(cuts_module, "CUT_MEMO_MAX_CUTS", 0)
        cold = run("cold")
    cold_calls = len(compute_calls)
    assert cuts_module._last is None
    assert run("first") == cold
    assert len(compute_calls) < cold_calls
    assert run("second") == cold
