"""Tseitin encoding of AIGs into CNF.

:class:`CnfBuilder` incrementally encodes one or more AIGs into a
shared :class:`~repro.sat.solver.Solver` instance, unifying primary
inputs by name so that miters for equivalence checks fall out
naturally.  Latch outputs are treated as free variables (cut points),
which is the right semantics for *combinational* equivalence of
sequential netlists: next-state functions are checked as extra
outputs.
"""

from __future__ import annotations

from repro.aig.graph import AIG, lit_node, lit_sign
from repro.sat.solver import Solver


def input_names(aig: AIG) -> dict[int, str]:
    """The shared SAT input name of every PI and latch-output node: a
    PI's own name, ``latch:<name>`` for a latch output."""
    names = dict(zip(aig.pis, aig.pi_names))
    for latch in aig.latches:
        names[latch.node] = f"latch:{latch.name}"
    return names


class CnfBuilder:
    """Encode AIG cones into a SAT solver."""

    def __init__(self, solver: Solver | None = None) -> None:
        self.solver = solver or Solver()
        self._input_vars: dict[str, int] = {}
        self._node_vars: dict[tuple[int, int], int] = {}
        #: ``id(aig) -> (aig, input_names(aig))`` for every graph
        #: encoded so far.  Holding the graph keeps its ``id()`` from
        #: passing to a later graph while ``_node_vars`` still has keys
        #: under it.
        self._graphs: dict[int, tuple[AIG, dict[int, str]]] = {}

    def input_var(self, name: str) -> int:
        """SAT variable of the named input (shared across AIGs)."""
        var = self._input_vars.get(name)
        if var is None:
            var = self.solver.new_var()
            self._input_vars[name] = var
        return var

    def encode(self, aig: AIG, lit: int) -> int:
        """Encode the cone of ``lit`` and return the SAT literal for it.

        Inputs and latch outputs become (name-shared) free variables;
        AND nodes get Tseitin definitions.  Constant literals are
        encoded through a dedicated always-false variable.
        """
        node_sat = self._encode_node(aig, lit_node(lit))
        return -node_sat if lit_sign(lit) else node_sat

    def _encode_node(self, aig: AIG, node: int) -> int:
        key = (id(aig), node)
        cached = self._node_vars.get(key)
        if cached is not None:
            return cached
        if node == 0:
            var = self._constant_false_var()
        elif aig.is_and(node):
            f0, f1 = aig.fanins(node)
            a = self.encode(aig, f0)
            b = self.encode(aig, f1)
            var = self.solver.new_var()
            self.solver.add_clause([-var, a])
            self.solver.add_clause([-var, b])
            self.solver.add_clause([var, -a, -b])
        else:
            var = self.input_var(self._input_name(aig, node))
        self._node_vars[key] = var
        return var

    def _input_name(self, aig: AIG, node: int) -> str:
        entry = self._graphs.get(id(aig))
        if entry is None or node not in entry[1]:
            # First sight of the graph, or an input added since.
            entry = self._graphs[id(aig)] = (aig, input_names(aig))
        return entry[1][node]

    def _constant_false_var(self) -> int:
        var = self._input_vars.get("__const0__")
        if var is None:
            var = self.solver.new_var()
            self._input_vars["__const0__"] = var
            self.solver.add_clause([-var])
        return var

    def xor_var(self, a: int, b: int) -> int:
        """A variable equal to ``a XOR b``."""
        var = self.solver.new_var()
        self.solver.add_clause([-var, a, b])
        self.solver.add_clause([-var, -a, -b])
        self.solver.add_clause([var, -a, b])
        self.solver.add_clause([var, a, -b])
        return var

    def or_clause(self, lits: list[int]) -> None:
        self.solver.add_clause(lits)

    def model_inputs(self) -> dict[str, bool]:
        """Named input assignment from the last satisfying model."""
        return {
            name: self.solver.model_value(var)
            for name, var in self._input_vars.items()
            if not name.startswith("__")
        }
