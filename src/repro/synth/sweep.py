"""Sequential sweeping: stuck and dead register removal.

Two register-level cleanups every commercial flow performs and the
Fig. 9 comparison depends on:

* **stuck latches** -- a register whose next-state input is its own
  output (or a constant equal to its reset value) can never leave its
  reset value; replace its output with that constant.  These appear en
  masse after state folding proves a write-enable dead.
* **dead latches** -- registers observable from no primary output and
  no live register are deleted.

Both rules iterate to a fixpoint: killing one register's load often
strands another.
"""

from __future__ import annotations

from repro.aig.graph import AIG, CONST0, CONST1, lit_node


def seq_sweep(aig: AIG) -> tuple[AIG, int]:
    """Remove stuck and dead latches; returns (new AIG, latches removed)."""
    removed_total = 0
    current = aig
    while True:
        current, removed = _sweep_once(current)
        if not removed:
            return current, removed_total
        removed_total += removed


def _sweep_once(aig: AIG) -> tuple[AIG, int]:
    stuck: dict[int, int] = {}
    for latch in aig.latches:
        out_lit = latch.node << 1
        reset_const = CONST1 if latch.reset_value else CONST0
        if latch.next_lit == out_lit or latch.next_lit == reset_const:
            stuck[latch.node] = reset_const

    live = _live_latches(aig, stuck)
    removable = [
        latch for latch in aig.latches
        if latch.node in stuck or latch.node not in live
    ]
    if not removable:
        return aig, 0

    drop = {latch.node for latch in removable}
    new = AIG()
    lit_map: dict[int, int] = {0: 0}
    for node, name in zip(aig.pis, aig.pi_names):
        lit_map[node << 1] = new.add_pi(name)
    for latch in aig.latches:
        if latch.node in drop:
            lit_map[latch.node << 1] = stuck.get(latch.node, CONST0)
        else:
            lit_map[latch.node << 1] = new.add_latch(
                latch.name, latch.reset_kind, latch.reset_value
            )

    def translate(lit: int) -> int:
        return lit_map[lit & ~1] ^ (lit & 1)

    for node in aig.topo_order():
        f0, f1 = aig.fanins(node)
        lit_map[node << 1] = new.and_(translate(f0), translate(f1))
    for name, lit in aig.pos:
        new.add_po(name, translate(lit))
    kept = [latch for latch in aig.latches if latch.node not in drop]
    for old_latch, new_latch in zip(kept, new.latches):
        new.set_latch_next(new_latch.node << 1, translate(old_latch.next_lit))
    compacted, _ = new.cleanup()
    return compacted, len(removable)


def _live_latches(aig: AIG, stuck: dict[int, int]) -> set[int]:
    """Latch nodes observable from the POs (through latch-next edges).

    Stuck latches never count as live users: their next-state cone is
    about to disappear with them.  One walk from the POs reaches every
    live latch; each live, non-stuck latch extends it with its
    next-state cone, so every node is visited at most once.
    """
    next_lits = {latch.node: latch.next_lit for latch in aig.latches}
    live: set[int] = set()
    seen: set[int] = set()
    stack = [lit_node(lit) for _, lit in aig.pos]
    while stack:
        node = stack.pop()
        if node in seen or node == 0:
            continue
        seen.add(node)
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            stack.append(lit_node(f0))
            stack.append(lit_node(f1))
        elif aig.is_latch_output(node):
            live.add(node)
            if node not in stuck:
                stack.append(lit_node(next_lits[node]))
    return live
