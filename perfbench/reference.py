"""Reference checks for every netlist the benchmark reports on.

Each netlist is simulated gate by gate (:class:`repro.sim.crosscheck.
NetlistSim`) against a model that does not come from the synthesis
flow:

* an FSM design against :meth:`FsmSpec.step`, from reset, on random input
  words;
* a truth table against :meth:`TruthTable.evaluate` on random addresses;
* a PCtrl netlist against the RTL interpreter (:mod:`repro.sim.rtlsim`):
  Full against the flexible module, with one configuration first written
  through its ports; Auto and Manual against the module bound with
  :func:`repro.pe.bind_tables`.  Manual netlists only see the request
  opcodes their annotations declare legal for the configuration.

The self-check ties one output bit of a netlist that passed to constant
0 and requires the same check to fail.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

from repro.controllers.fsm import FsmSpec
from repro.pe import bind_tables
from repro.sim.crosscheck import NetlistSim
from repro.sim.rtlsim import Simulator
from repro.smartmem.config import CACHED_CONFIG, UNCACHED_CONFIG
from repro.tables.truthtable import TruthTable

FSM_CYCLES = 64
TABLE_VECTORS = 64
PCTRL_CYCLES = 48
SELF_CHECK_CYCLES = 24

CONFIGS = {"cached": CACHED_CONFIG, "uncached": UNCACHED_CONFIG}


@dataclass
class Case:
    """One netlist, a factory for its reference model, and stimulus."""

    label: str
    netlist: object
    make_reference: Callable[[], Callable[[dict], dict]]
    stimulus: list[dict]


def run_case(case: Case, netlist=None) -> tuple[str | None, list[dict]]:
    """Simulate ``netlist`` (default: the case's) against a fresh
    reference; returns the first mismatch (or ``None``) and the
    reference outputs seen."""
    gate = NetlistSim(case.netlist if netlist is None else netlist)
    reference = case.make_reference()
    seen = []
    for cycle, entry in enumerate(case.stimulus):
        expected = reference(entry)
        got = gate.step_words(entry)
        seen.append(expected)
        for name, value in expected.items():
            if got.get(name, 0) != value:
                return (
                    f"{case.label}: cycle {cycle} output {name} = "
                    f"{got.get(name, 0)}, reference {value}",
                    seen,
                )
    return None, seen


def ir_case(label: str, netlist, ir, rng: random.Random) -> Case:
    """A techsweep design: FSM or truth table."""
    if isinstance(ir, FsmSpec):
        words = [
            {"in": rng.getrandbits(ir.num_inputs)} for _ in range(FSM_CYCLES)
        ]

        def make_fsm():
            state = ir.reset_state

            def step(entry):
                nonlocal state
                state, out = ir.step(state, entry["in"])
                return {"out": out}

            return step

        return Case(label, netlist, make_fsm, words)
    if isinstance(ir, TruthTable):
        addresses = [
            {"addr": rng.getrandbits(ir.num_inputs)}
            for _ in range(TABLE_VECTORS)
        ]
        return Case(
            label,
            netlist,
            lambda: lambda entry: {"out": ir.evaluate(entry["addr"])},
            addresses,
        )
    raise TypeError(f"no reference model for {type(ir).__name__}")


def pctrl_case(
    label: str, netlist, job, rng: random.Random, full_config: dict
) -> Case:
    """A Fig. 9 job keyed ``(flow, config)``: Full, Auto or Manual.

    ``full_config`` holds the memory contents Full is programmed with
    (the Full job itself carries no bindings).
    """
    flow, config_name = job.key
    module = job.module
    if job.bindings is None:
        # Full: write the configuration through the ports, then run
        # traffic with the write enables low.
        program = []
        for memory, rows in full_config.items():
            for addr, word in enumerate(rows):
                if word:
                    program.append(
                        {
                            f"{memory}_we": 1,
                            f"{memory}_waddr": addr,
                            f"{memory}_wdata": word,
                        }
                    )
        held = {f"{memory}_we": 0 for memory in full_config}
        stimulus = program + _traffic(module, rng, held, None)
        return Case(label, netlist, lambda: Simulator(module).step, stimulus)
    bound = bind_tables(module, job.bindings)
    opcodes = None
    if flow == "manual":
        opcodes = CONFIGS[config_name].allowed_opcodes()
    stimulus = _traffic(bound, rng, {}, opcodes)
    return Case(label, netlist, lambda: Simulator(bound).step, stimulus)


def _traffic(module, rng, held: dict, opcodes) -> list[dict]:
    stimulus = []
    for _ in range(PCTRL_CYCLES):
        entry = {}
        for name, port in module.inputs.items():
            if name in held:
                entry[name] = held[name]
            elif name == "req_op" and opcodes is not None:
                entry[name] = rng.choice(opcodes)
            else:
                entry[name] = rng.getrandbits(port.width)
        stimulus.append(entry)
    return stimulus


def self_check(case: Case) -> tuple[str | None, str]:
    """Corrupt one output of ``case``'s (passing) netlist and require
    the check to catch it; returns a problem description (or ``None``)
    and what the corrupted netlist did."""
    case = dataclasses.replace(case, stimulus=case.stimulus[:SELF_CHECK_CYCLES])
    mismatch, seen = run_case(case)
    if mismatch is not None:
        return f"self-check baseline failed: {mismatch}", ""
    po_nets = case.netlist.po_nets
    target = _driven_bit(seen, po_nets)
    if target is None:
        return f"self-check: {case.label} never drives an output to 1", ""
    # Net 0 is the constant-0 net of a mapped netlist.
    corrupted = dataclasses.replace(
        case.netlist, po_nets={**po_nets, target: 0}
    )
    mismatch, _ = run_case(case, corrupted)
    if mismatch is None:
        return f"self-check: {case.label} with {target} tied to 0 passed", ""
    return None, f"{target} tied to 0 caught ({mismatch})"


def _driven_bit(seen: list[dict], po_nets: dict) -> str | None:
    """A primary-output bit the reference drove to 1 that the netlist
    does not already tie to constant 0."""
    for outputs in seen:
        for name, value in outputs.items():
            for bit in range(value.bit_length()):
                po = f"{name}[{bit}]" if f"{name}[{bit}]" in po_nets else name
                if value >> bit & 1 and po_nets.get(po, 0) != 0:
                    return po
    return None
