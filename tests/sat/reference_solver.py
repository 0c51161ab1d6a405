"""The dict-backed CDCL solver, frozen as the reference for the
list-backed :class:`repro.sat.solver.Solver`.

The class below is the solver as it stood before its per-variable
state moved into lists.  ``tests/sat/test_solver.py`` requires the
list-backed solver to make the same decisions: the same answers,
models and trails on the same clause and assumption sequences.
Do not edit it to follow the production solver.
"""

from __future__ import annotations

import heapq


class Solver:
    """CDCL SAT solver."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, int | None] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: dict[int, float] = {}
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: dict[int, bool] = {}
        self._ok = True
        self._qhead = 0
        self._num_assumed = 0
        #: Indices of the unit clauses (original and learned), in the
        #: order they were added; ``solve`` re-asserts them at level 0.
        self._units: list[int] = []
        #: The VSIDS order heap (Een & Sorensson, "An Extensible
        #: SAT-solver", SAT 2003): ``(-activity, var)`` entries for the
        #: variables in ``_in_order``.  Every unassigned variable of
        #: ``1..num_vars`` is a member; assigned ones may linger until
        #: popped.  A bump pushes a fresh entry and leaves the old one
        #: stale (its key no longer matches the activity), so
        #: ``_push_order`` compacts the heap before it outgrows
        #: ``2 * num_vars`` entries.
        self._order: list[tuple[float, int]] = []
        self._in_order: set[int] = set()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its index (>= 1)."""
        self._declare(self._num_vars + 1)
        return self._num_vars

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause; [] marks the instance trivially unsatisfiable."""
        seen = set()
        clause = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._declare(abs(lit))
            if -lit in seen:
                return  # tautological clause
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._ok = False
            return
        self._clauses.append(clause)
        index = len(self._clauses) - 1
        self._watches.setdefault(clause[0], []).append(index)
        if len(clause) == 1:
            self._units.append(index)
        else:
            self._watches.setdefault(clause[1], []).append(index)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: list[int] | None = None) -> bool:
        """Decide satisfiability under the given assumptions."""
        if not self._ok:
            return False
        self._backtrack(0)
        for index in self._units:
            if not self._enqueue(self._clauses[index][0], index):
                self._ok = False
                return False
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False

        assumptions = list(assumptions or [])
        restarts = 0
        conflicts_until_restart = _luby(restarts) * 64
        num_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if self._decision_level() == 0:
                    self._ok = False
                    return False
                if len(self._trail_lim) <= self._num_assumed:
                    # Conflict depends only on assumptions; the base CNF
                    # may still be satisfiable, so do not latch _ok.
                    return False
                learned, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, self._num_assumed))
                self._learn(learned)
                self._decay_activities()
                num_conflicts += 1
                if num_conflicts >= conflicts_until_restart:
                    num_conflicts = 0
                    restarts += 1
                    conflicts_until_restart = _luby(restarts) * 64
                    self._backtrack(self._num_assumed)
            else:
                if self._num_assumed < len(assumptions):
                    lit = assumptions[self._num_assumed]
                    value = self._value(lit)
                    if value is False:
                        return False
                    self._trail_lim.append(len(self._trail))
                    self._num_assumed += 1
                    if value is None and not self._enqueue(lit, None):
                        return False
                    continue
                lit = self._pick_branch()
                if lit is None:
                    return True
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)

    def model(self) -> dict[int, bool]:
        """Satisfying assignment from the last successful solve."""
        return dict(self._assign)

    def model_value(self, lit: int) -> bool:
        value = self._assign.get(abs(lit), False)
        return value if lit > 0 else not value

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _declare(self, var: int) -> None:
        """Grow the variable universe to ``var``; new variables enter
        the order heap."""
        while self._num_vars < var:
            self._num_vars += 1
            self._push_order(self._num_vars)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _value(self, lit: int) -> bool | None:
        assigned = self._assign.get(abs(lit))
        if assigned is None:
            return None
        return assigned if lit > 0 else not assigned

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        head = self._qhead
        while head < len(self._trail):
            lit = self._trail[head]
            head += 1
            falsified = -lit
            watch_list = self._watches.get(falsified, [])
            kept = []
            index_pos = 0
            while index_pos < len(watch_list):
                clause_index = watch_list[index_pos]
                index_pos += 1
                clause = self._clauses[clause_index]
                # Ensure falsified literal sits at position 1.
                if len(clause) > 1 and clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                if len(clause) > 1 and self._value(clause[0]) is True:
                    kept.append(clause_index)
                    continue
                # Search for a replacement watch.
                replaced = False
                for position in range(2, len(clause)):
                    if self._value(clause[position]) is not False:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause_index)
                        replaced = True
                        break
                if replaced:
                    continue
                kept.append(clause_index)
                if len(clause) == 1:
                    if not self._enqueue(clause[0], clause_index):
                        kept.extend(watch_list[index_pos:])
                        self._watches[falsified] = kept
                        self._qhead = len(self._trail)
                        return clause_index
                elif not self._enqueue(clause[0], clause_index):
                    kept.extend(watch_list[index_pos:])
                    self._watches[falsified] = kept
                    self._qhead = len(self._trail)
                    return clause_index
            self._watches[falsified] = kept
        self._qhead = head
        return None

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learned clause, level)."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen: set[int] = set()
        counter = 0
        clause = self._clauses[conflict_index]
        trail_pos = len(self._trail) - 1
        current_level = self._decision_level()
        asserting_lit = None

        pending = list(clause)
        while True:
            for lit in pending:
                var = abs(lit)
                if var in seen or self._level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self._bump_activity(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail backwards for the next seen literal.
            while trail_pos >= 0 and abs(self._trail[trail_pos]) not in seen:
                trail_pos -= 1
            if trail_pos < 0:
                break
            asserting_lit = self._trail[trail_pos]
            var = abs(asserting_lit)
            seen.discard(var)
            counter -= 1
            trail_pos -= 1
            if counter == 0:
                break
            reason = self._reason.get(var)
            pending = (
                [l for l in self._clauses[reason] if abs(l) != var]
                if reason is not None
                else []
            )
        learned[0] = -asserting_lit if asserting_lit is not None else 0
        if learned[0] == 0:
            learned = learned[1:]
        if len(learned) == 1:
            return learned, 0
        back_level = max(
            (self._level[abs(lit)] for lit in learned[1:]), default=0
        )
        # Put a literal from the backtrack level in watch position 1.
        for position in range(1, len(learned)):
            if self._level[abs(learned[position])] == back_level:
                learned[1], learned[position] = learned[position], learned[1]
                break
        return learned, back_level

    def _learn(self, clause: list[int]) -> None:
        if not clause:
            self._ok = False
            return
        self._clauses.append(clause)
        index = len(self._clauses) - 1
        self._watches.setdefault(clause[0], []).append(index)
        if len(clause) == 1:
            self._units.append(index)
        else:
            self._watches.setdefault(clause[1], []).append(index)
        self._enqueue(clause[0], index)

    def _backtrack(self, level: int) -> None:
        while self._decision_level() > level:
            mark = self._trail_lim.pop()
            while len(self._trail) > mark:
                lit = self._trail.pop()
                var = abs(lit)
                self._phase[var] = lit > 0
                del self._assign[var]
                self._level.pop(var, None)
                self._reason.pop(var, None)
                # Assumptions may name variables past num_vars; those
                # are never decided on, so they stay out of the heap.
                if var not in self._in_order and var <= self._num_vars:
                    self._push_order(var)
        self._qhead = min(self._qhead, len(self._trail))
        if level == 0:
            self._num_assumed = 0
        else:
            self._num_assumed = min(self._num_assumed, level)

    def _pick_branch(self) -> int | None:
        """Pop the highest-activity unassigned variable (lowest index
        on ties) and return it in its saved phase."""
        order = self._order
        members = self._in_order
        activity = self._activity
        while order:
            key, var = heapq.heappop(order)
            if var not in members or -key != activity.get(var, 0.0):
                continue  # stale: superseded by a bump, or popped before
            members.discard(var)
            if var not in self._assign:
                return var if self._phase.get(var, False) else -var
        return None

    def _push_order(self, var: int) -> None:
        self._in_order.add(var)
        heapq.heappush(self._order, (-self._activity.get(var, 0.0), var))
        if len(self._order) > 2 * self._num_vars:
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """Re-key the heap from current activities, dropping stale
        entries."""
        self._order = [
            (-self._activity.get(var, 0.0), var) for var in self._in_order
        ]
        heapq.heapify(self._order)

    def _bump_activity(self, var: int) -> None:
        self._activity[var] = self._activity.get(var, 0.0) + self._var_inc
        if self._activity[var] > 1e100:
            for key in self._activity:
                self._activity[key] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()
        elif var in self._in_order:
            self._push_order(var)

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay


def _luby(index: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size = 1
    seq = 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq
