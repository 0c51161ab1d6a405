"""State propagation and folding across register boundaries.

This pass is the compiler-side half of the paper's central claim: when
a signal is known to take only ``k < 2**n`` values (a *state
annotation*), downstream logic can be simplified as if the remaining
codes were don't-cares.  The windowed combinational sweeping in
:mod:`repro.aig.rewrite` discovers such facts automatically *within*
combinational logic; what it cannot do -- faithfully to the commercial
tool the paper measured -- is look across a flop boundary.  This pass
restores that ability exactly where an annotation authorises it:

1. build a care predicate over the annotated latch outputs;
2. simulate with care-respecting random states to nominate nodes that
   look constant (or pairwise equivalent) on the care set;
3. prove each nomination with SAT under the care assumption, skipping
   every query a care-respecting pattern already satisfies -- a random
   pattern, or the model of an earlier satisfiable query (SAT sweeping
   that learns from its counterexamples, as in Mishchenko et al.,
   "FRAIGs", 2005);
4. rebuild the graph with the proven substitutions.

The same machinery implements unreachable-state elimination ("the
optimizations [the authors'] manual tuning performed"): a reachability
analysis supplies a tighter value set and this pass collapses the
logic that only existed to serve unreachable states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.aig.graph import AIG, lit_node
from repro.sat.cnf import CnfBuilder, input_names
from repro.synth.statesets import ValueSet, care_literal

_SIM_PATTERNS = 128
_MAX_SAT_CANDIDATES = 2500


@dataclass
class FoldStats:
    """What the pass accomplished (for reports and tests)."""

    constants_proven: int = 0
    merges_proven: int = 0
    candidates_tried: int = 0
    rounds: int = 0
    per_round: list[tuple[int, int]] = field(default_factory=list)
    #: SAT queries asked, and queries skipped because a care-respecting
    #: pattern already satisfies them.
    sat_calls: int = 0
    sat_skipped: int = 0


def fold_states(
    aig: AIG,
    annotated_buses: dict[str, tuple[list[int], ValueSet]],
    rounds: int = 2,
    rng: random.Random | None = None,
) -> tuple[AIG, FoldStats]:
    """Fold logic under the conjunction of all bus annotations.

    Args:
        aig: the design (typically already swept/balanced).
        annotated_buses: name -> (bus literals, value set).  Bus
            literals are usually latch outputs, but primary-input buses
            work identically (used by tests).
        rounds: fixpoint iterations; each round re-simulates and
            re-proves on the rebuilt graph.
        rng: randomness for the simulation filter.

    Returns:
        The rebuilt AIG and statistics.
    """
    rng = rng or random.Random(0xC0FFEE)
    stats = FoldStats()
    useful = {
        name: (bus, vs)
        for name, (bus, vs) in annotated_buses.items()
        if not vs.is_trivial()
    }
    if not useful:
        return aig, stats

    current = aig
    polluted = False
    counterexamples = _Counterexamples()
    for _ in range(rounds):
        buses = _rebind_buses(current, useful)
        if buses is None:
            break
        constants, merges = _prove_candidates(
            current, buses, rng, stats, counterexamples
        )
        polluted = True  # care predicates were built into the graph
        if not constants and not merges:
            break
        current = _apply_substitutions(current, constants, merges)
        polluted = False
        stats.rounds += 1
        stats.per_round.append((len(constants), len(merges)))
        stats.constants_proven += len(constants)
        stats.merges_proven += len(merges)
    if polluted:
        current, _ = current.cleanup()
    return current, stats


def _rebind_buses(aig: AIG, annotated):
    """Re-locate annotated buses by latch/PI name on a rebuilt graph."""
    by_name: dict[str, int] = {}
    for latch in aig.latches:
        by_name[latch.name] = latch.node << 1
    for name, node in zip(aig.pi_names, aig.pis):
        by_name[name] = node << 1
    buses = {}
    for name, (bus, value_set) in annotated.items():
        new_bus = []
        for index in range(value_set.width):
            lit = by_name.get(f"{name}[{index}]")
            if lit is None:
                return None  # bus vanished (e.g. retimed away)
            new_bus.append(lit)
        buses[name] = (new_bus, value_set)
    return buses


class _Counterexamples:
    """Input patterns taken from the models of satisfiable queries.

    Bit ``k`` of ``values[name]`` is the named input's value in the
    ``k``-th model; names are the SAT encoding's
    (:func:`repro.sat.cnf.input_names`), so the patterns carry over to
    the next round's rebuilt graph.  An input no model mentions is 0.
    """

    def __init__(self) -> None:
        self.count = 0
        self.values: dict[str, int] = {}

    def add(self, model: dict[str, bool]) -> None:
        bit = 1 << self.count
        for name, value in model.items():
            if value:
                self.values[name] = self.values.get(name, 0) | bit
        self.count += 1

    def inputs(self, names: dict[int, str]) -> dict[int, int]:
        """Packed patterns per input node of a graph."""
        return {node: self.values.get(name, 0) for node, name in names.items()}


class _Patterns:
    """Every literal's value over ``width`` input patterns, bit-parallel
    (bit ``p`` of ``lits[lit]`` is ``lit`` under pattern ``p``), and
    ``valid``: the patterns a satisfiable query may be read off.

    A valid pattern satisfies every care literal and gives inputs that
    share a SAT variable (a name) the same value, so any literal it
    sets is satisfiable under the care assumption.
    """

    def __init__(self, aig, gates, names, inputs, width, care) -> None:
        mask = (1 << width) - 1
        lits = [0, mask] * aig.num_nodes
        for node, value in inputs.items():
            lits[node << 1] = value
            lits[node << 1 | 1] = value ^ mask
        for lit, fanin0, fanin1 in gates:
            value = lits[fanin0] & lits[fanin1]
            lits[lit] = value
            lits[lit | 1] = value ^ mask
        valid = mask
        for lit in care:
            valid &= lits[lit]
        first: dict[str, int] = {}
        for node, name in names.items():
            other = first.setdefault(name, node)
            valid &= ~(lits[node << 1] ^ lits[other << 1])
        self.width = width
        self.lits = lits
        self.valid = valid

    def shows(self, lit: int, other: int | None = None) -> bool:
        """Whether a valid pattern sets ``lit`` (or ``lit XOR other``)."""
        value = self.lits[lit]
        if other is not None:
            value ^= self.lits[other]
        return bool(value & self.valid)


def _prove_candidates(
    aig: AIG, buses, rng, stats: FoldStats, counterexamples: _Counterexamples
):
    """Simulation-filtered, SAT-confirmed constants and merges.

    The random patterns' signatures choose the candidates and their
    representatives.  A query goes to SAT only when no valid pattern --
    random, or a counterexample -- satisfies it already, and each
    satisfiable answer's model joins ``counterexamples`` (re-simulated
    before the next query), so skipping changes no answer.
    """
    tainted = _tainted_nodes(aig, buses)
    care = [care_literal(aig, bus, vs) for bus, vs in buses.values()]
    builder = CnfBuilder()
    care_lits = [builder.encode(aig, lit) for lit in care]
    gates = _gates(aig)
    names = input_names(aig)
    signatures = _Patterns(
        aig, gates, names, _random_inputs(aig, buses, rng), _SIM_PATTERNS, care
    )
    cex_patterns = None
    mask = (1 << _SIM_PATTERNS) - 1

    def satisfiable(lit: int, other: int | None = None) -> bool:
        """Can ``lit`` (or ``lit XOR other``) be 1 under the care set?"""
        nonlocal cex_patterns
        count = counterexamples.count
        if count and (cex_patterns is None or cex_patterns.width != count):
            cex_patterns = _Patterns(
                aig, gates, names, counterexamples.inputs(names), count, care
            )
        if signatures.shows(lit, other) or (
            count and cex_patterns.shows(lit, other)
        ):
            stats.sat_skipped += 1
            return True
        sat_lit = builder.encode(aig, lit)
        if other is not None:
            sat_lit = builder.xor_var(sat_lit, builder.encode(aig, other))
        stats.sat_calls += 1
        if not builder.solver.solve(assumptions=care_lits + [sat_lit]):
            return False
        counterexamples.add(builder.model_inputs())
        return True

    constants: dict[int, int] = {}
    merges: dict[int, int] = {}
    by_signature: dict[int, int] = {}
    tried = 0
    for node in aig.topo_order():
        if not tainted[node]:
            continue
        if tried >= _MAX_SAT_CANDIDATES:
            break
        lit = node << 1
        signature = signatures.lits[lit]
        if signature == 0 or signature == mask:
            tried += 1
            stats.candidates_tried += 1
            # A valid random pattern settles the query whose answer
            # the signature shows (can be 0, or can be 1).
            if not satisfiable(lit):
                constants[node] = 0
                continue
            if not satisfiable(lit | 1):
                constants[node] = 1
                continue
        representative = by_signature.get(signature)
        complement = by_signature.get(signature ^ mask)
        if representative is not None or complement is not None:
            target = (
                representative << 1
                if representative is not None
                else complement << 1 | 1
            )
            tried += 1
            stats.candidates_tried += 1
            if not satisfiable(lit, target):
                merges[node] = target
                continue
        by_signature.setdefault(signature, node)
    return constants, merges


def _tainted_nodes(aig: AIG, buses) -> bytearray:
    """Nodes downstream of any annotated bus bit."""
    tainted = bytearray(aig.num_nodes)
    for bus, _ in buses.values():
        for lit in bus:
            tainted[lit_node(lit)] = 1
    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        if tainted[lit_node(f0)] or tainted[lit_node(f1)]:
            tainted[node] = 1
    return tainted


def _gates(aig: AIG) -> list[tuple[int, int, int]]:
    """``(literal, fanin0, fanin1)`` of every AND node in node order,
    which is topological: a node is created after its fanins."""
    return [
        (node << 1, *aig.fanins(node))
        for node in range(aig.num_nodes)
        if aig.is_and(node)
    ]


def _random_inputs(aig: AIG, buses, rng) -> dict[int, int]:
    """Random packed values for every PI and latch output, each
    annotated bus drawn from its value set."""
    values = {node: rng.getrandbits(_SIM_PATTERNS) for node in aig.pis}
    for latch in aig.latches:
        values[latch.node] = rng.getrandbits(_SIM_PATTERNS)
    for bus, value_set in buses.values():
        packed = value_set.sample_packed(rng, _SIM_PATTERNS)
        for bit, lit in enumerate(bus):
            if lit_node(lit) in values:
                values[lit_node(lit)] = packed[bit]
    return values


def _apply_substitutions(
    aig: AIG, constants: dict[int, int], merges: dict[int, int]
) -> AIG:
    """Rebuild with proven facts applied (representatives come first
    in topo order, so substitution is well-founded)."""
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
        if node in constants:
            lit_map[node << 1] = constants[node]
            continue
        target = merges.get(node)
        if target is not None:
            lit_map[node << 1] = translate(target)
            continue
        f0, f1 = aig.fanins(node)
        lit_map[node << 1] = new.and_(translate(f0), translate(f1))

    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    for old_latch, new_latch in zip(aig.latches, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    return compacted
