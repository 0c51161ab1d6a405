"""Spans around the public entry points of the synthesis layers.

The traced run records one span per call into each layer -- name,
start, end, parent -- from the benchmark's own files: every entry point
is wrapped where its callers look it up (each module-level binding made
by ``from x import f``, or the method on its class).  Nothing inside
``repro`` is edited.  Spans stay in memory and are written out at exit.

Timestamps come from ``CLOCK_MONOTONIC``, which is one clock for every
process on a Linux host, so the server's spans can be cut to the
client's timed window.

The same wrappers inject a fixed per-call delay for the sensitivity
check (``--inject``); with tracing off only the injected entry point is
wrapped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)

#: (entry id, layer span name, "module:attribute" or "module:Class.method")
#: of every process; the workload process adds ``CLIENT_ENTRY_POINTS``,
#: the server started by ``serve_launcher.py`` ``SERVER_ENTRY_POINTS``.
ENTRY_POINTS = (
    ("solve", "sat.solve", "repro.sat.solver:Solver.solve"),
    ("fold_states", "synth.fold_states", "repro.synth.stateprop:fold_states"),
    ("elaborate", "synth.elaborate", "repro.synth.elaborate:elaborate"),
    ("seq_sweep", "synth.seq_sweep", "repro.synth.sweep:seq_sweep"),
    ("rewrite", "aig.rewrite", "repro.aig.rewrite:rewrite"),
    ("tt_sweep", "aig.tt_sweep", "repro.aig.rewrite:tt_sweep"),
    ("balance", "aig.balance", "repro.aig.balance:balance"),
    ("resub", "aig.resub", "repro.aig.resub:resub"),
    ("dc_rewrite", "aig.dc_rewrite", "repro.aig.dontcare:dc_rewrite"),
    ("cuts", "aig.cuts", "repro.aig.cuts:CutSet._compute"),
    ("isop", "tables.isop", "repro.tables.isop:isop"),
    ("map_aig", "tech.map", "repro.tech.mapper:map_aig"),
    ("size_for_clock", "tech.size", "repro.tech.sizing:size_for_clock"),
    ("flow_fingerprint", "flow.fingerprint", "repro.flow.cache:flow_fingerprint"),
    (
        "fingerprint_prefixes",
        "flow.fingerprint",
        "repro.flow.cache:fingerprint_prefixes",
    ),
    ("cache_get", "flow.cache.get", "repro.flow.cache:CompileCache.get"),
    ("cache_put", "flow.cache.put", "repro.flow.cache:CompileCache.put"),
    (
        "snapshot_put",
        "flow.cache.snapshot_put",
        "repro.flow.cache:CompileCache.put_snapshot",
    ),
    (
        "snapshot_get",
        "flow.cache.snapshot_get",
        "repro.flow.cache:CompileCache.get_snapshot",
    ),
    ("check_job", "check.spec", "repro.check.spec:check_job"),
    ("check_manager", "check.spec", "repro.check.spec:check_manager"),
)

CLIENT_ENTRY_POINTS = (
    ("encode_batch", "serve.client_codec", "repro.serve.protocol:encode_batch"),
    ("decode_result", "serve.client_codec", "repro.serve.protocol:decode_result"),
)

SERVER_ENTRY_POINTS = (
    ("decode_batch", "serve.server_codec", "repro.serve.protocol:decode_batch"),
    ("encode_result", "serve.server_codec", "repro.serve.protocol:encode_result"),
    ("run_job", "serve.run_job", "repro.serve.server:CompileServer.run_job"),
)

#: Modules whose ``json`` the wire codec runs through, with the span
#: name its ``dumps``/``loads`` calls count under.
CODEC_JSON = {
    "client": ("repro.serve.client", "serve.client_codec"),
    "server": ("repro.serve.server", "serve.server_codec"),
}


def parse_inject(text: str | None) -> dict[str, float]:
    """``"solve=10,encode_result=2"`` -> ``{"solve": 0.010, ...}`` (ms in,
    seconds out)."""
    delays: dict[str, float] = {}
    for item in filter(None, (text or "").split(",")):
        entry, _, ms = item.partition("=")
        delays[entry.strip()] = float(ms) / 1000.0
    return delays


class Tracer:
    """In-memory span store.

    ``spans`` holds ``(name, start, end, span_id, parent_id)`` tuples;
    the parent is the innermost open span on the same thread (-1 at
    the top level).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``(time, candidates tried, proven)`` per ``fold_states`` call.
        self.folds: list[tuple] = []
        self.wire_bytes = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count_wire(self, size: int) -> None:
        """Add ``size`` bytes to the wire total (client threads share it)."""
        with self._lock:
            self.wire_bytes += size

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, delay_s: float = 0.0):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = now()
            try:
                if delay_s:
                    time.sleep(delay_s)
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                tracer.spans.append(
                    (name, start, end, span_id, stack[-1] if stack else -1)
                )

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "folds": self.folds}, handle)


def _delayed(fn, delay_s: float):
    @functools.wraps(fn)
    def delayed(*args, **kwargs):
        time.sleep(delay_s)
        return fn(*args, **kwargs)

    return delayed


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, method, getattr(owner, method)
    return None, attr, getattr(module, attr)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``.  The defining module's own name is among them, so
    modules imported later bind the replacement too."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(
    tracer: Tracer | None,
    role: str,
    inject: dict[str, float] | None = None,
) -> None:
    """Wrap the entry points of one process.

    Args:
        tracer: records spans; ``None`` wraps only the ``inject``ed
            entry points (the untraced sensitivity runs).
        role: ``"client"`` (the workload process) or ``"server"``
            (the compile server started by ``serve_launcher.py``).
        inject: per-call delay in seconds by entry id.
    """
    inject = dict(inject or {})
    entries = ENTRY_POINTS + (
        SERVER_ENTRY_POINTS if role == "server" else CLIENT_ENTRY_POINTS
    )
    for entry, name, target in entries:
        delay_s = inject.pop(entry, 0.0)
        if tracer is None and not delay_s:
            continue
        owner, attr, original = _resolve(target)
        if tracer is None:
            wrapped = _delayed(original, delay_s)
        else:
            wrapped = tracer.wrap(name, original, delay_s)
        if entry == "fold_states" and tracer is not None:
            wrapped = _count_folds(tracer, wrapped)
        if owner is not None:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    if inject:
        raise ValueError(f"unknown entry points to inject: {sorted(inject)}")
    if tracer is not None:
        module_name, span = CODEC_JSON[role]
        module = importlib.import_module(module_name)
        module.json = _JsonCodec(tracer, span)


def _count_folds(tracer: Tracer, fold_states):
    @functools.wraps(fold_states)
    def counted(*args, **kwargs):
        aig, stats = fold_states(*args, **kwargs)
        proven = stats.constants_proven + stats.merges_proven
        tracer.folds.append((now(), stats.candidates_tried, proven))
        return aig, stats

    return counted


class _JsonCodec:
    """Stands in for ``json`` inside one serve module: ``dumps`` and
    ``loads`` run as codec spans and count the bytes they carry."""

    def __init__(self, tracer: Tracer, span: str) -> None:
        self._tracer = tracer
        self._dumps = tracer.wrap(span, json.dumps)
        self._loads = tracer.wrap(span, json.loads)

    def dumps(self, *args, **kwargs):
        text = self._dumps(*args, **kwargs)
        self._tracer.count_wire(len(text))
        return text

    def loads(self, data, *args, **kwargs):
        self._tracer.count_wire(len(data))
        return self._loads(data, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(json, attr)


def self_times(spans, window=None) -> dict[str, dict]:
    """Per span name: call count, total span time and self time (span
    minus the time its child spans cover), over spans that start and
    end inside ``window`` (``(start, end)``) when one is given."""
    if window is not None:
        low, high = window
        spans = [s for s in spans if s[1] >= low and s[2] <= high]
    child_time: dict[int, float] = {}
    for _, start, end, _, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    layers: dict[str, dict] = {}
    for name, start, end, span_id, _ in spans:
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return layers
