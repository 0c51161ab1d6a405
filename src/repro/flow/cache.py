"""Content-addressed caching for flow pipeline compiles.

The figure drivers re-synthesize hundreds of independent
(module, pipeline) pairs, and repeated sweeps re-run identical jobs
from scratch.  This module keys a completed :class:`FlowContext` on a
stable *fingerprint* of everything that determines the result:

* the canonical content hash of the input design
  (:meth:`Module.canonical_hash` / :meth:`AIG.canonical_hash`),
* the rendered pipeline spec, including every non-default pass
  parameter (:meth:`PassManager.spec` -- which is why spec round-trip
  fidelity is load-bearing),
* the seeded annotations and configuration bindings,
* a digest of every registered cell library and of the default one
  (:func:`repro.flow.passes.registered_libraries_digest`): a spec
  names its library (``map{library=...}``), and the digest covers
  what the names stand for.

:class:`CompileCache` layers a bounded in-memory LRU over an optional
on-disk :class:`LocalDirBackend`: pickled contexts written atomically
(temp file + :func:`os.replace`), so a directory can be shared by the
worker processes of :func:`repro.flow.parallel.compile_many` and across
interpreter runs (``python -m repro.expts`` reuses ``.repro-cache/`` by
default).  Corrupt or truncated entries read as misses, never as
errors.

The cache is thread-safe: the memory LRU and every counter are guarded
by one lock, so a compile server's request handlers and pool callbacks
can share a single instance (disk I/O happens outside the lock, which
the atomic entry files make safe).

Cached contexts must be treated as read-only: an in-memory hit returns
the stored object itself.  A memory entry also keeps the context's
pickle bytes once something needs them -- a disk hit, which loaded
them, or a served hit (:meth:`CompileCache.hit_bytes`), which pickles
at most once per entry -- so a warm compile server answers from bytes.
:meth:`CompileCache.put` keeps none: a batch would hold both its
results and their pickles.

Beside completed entries the cache keeps *stage snapshots*: the
plain context after a pipeline prefix, pickled under that prefix's
fingerprint (:func:`fingerprint_prefixes`) in a namespace of its own
(``snap/`` on disk, a separate LRU in memory).  One rule decides
where they are written: a compile snapshots the boundary after pass
``k`` exactly when another job of the same batch has the same prefix
fingerprint there (:func:`repro.flow.parallel._plan_waves`, used by
``compile_many`` and by the compile server for every multi-job
batch).  A lone compile writes none.  Snapshots are the only source
a compile resumes from (:func:`repro.flow.manager.prepare_resume`).

Entries are **pickles**: loading one executes whatever its bytes
describe, so only point ``path`` at directories you trust (your own
working tree, your own CI workspace).  Do not share a cache directory
with writers you would not let run code on your machine.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.flow.core import FlowContext, FlowError, is_controller_ir

if TYPE_CHECKING:
    from repro.aig.graph import AIG
    from repro.rtl.module import Module
    from repro.synth.dc_options import StateAnnotation

#: Bump whenever fingerprinted semantics change (pass behaviour,
#: context pickling layout) to invalidate every existing entry.
#: Version 2: controller-IR inputs (``ctrl``) and configuration
#: ``bindings`` joined the key when the frontend became passes.
#: Version 3: a ``None`` library fingerprints as the *resolved*
#: default library (``repro.tech.cells.default_library``), so a
#: changed default can never serve stale hits.
#: Version 4: :class:`FlowContext` grew a ``meta`` slot (resume
#: provenance), changing the context pickling layout.
#: Version 5: :class:`FlowContext` grew a ``facts`` slot and fact
#: sheets joined the key -- a fact-assisted compile may legitimately
#: produce a different (better) result than a plain one, so the two
#: must never collide.
#: Version 6: the ``facts`` slot and its key chunk left again with the
#: facts bridge; proven value sets travel as seeded annotations.
#: Version 7: the ``library`` and ``seed`` chunks (and the context
#: slots) left: a spec names its library, the library digest covers
#: the default, and the stateprop seed is a constant of its pass.
#:
#: It versions stage snapshots too: a snapshot is a plain context kept
#: under its prefix fingerprint, so a bump orphans every snapshot along
#: with every entry (change it also when what a restored mid-pipeline
#: context means changes).
FINGERPRINT_VERSION = 7

#: The two entry kinds the on-disk store keeps: completed compile
#: results (the historical namespace) and mid-pipeline stage snapshots.
#: :class:`LocalDirBackend` ``load``/``store`` take the kind as their
#: ``kind=`` keyword.
ENTRY_KIND = "entry"
SNAPSHOT_KIND = "snapshot"

#: LRU bound of the in-memory *snapshot* layer.  Snapshots are
#: mid-pipeline contexts -- bigger and shorter-lived than completed
#: entries -- so they get their own, smaller bound.
MAX_SNAPSHOT_ENTRIES = 32

#: The lookup and store counters of a :class:`CompileCache`
#: (:meth:`CompileCache.counts`).
COUNTERS = (
    "memory_hits", "disk_hits", "misses", "stores",
    "snapshot_hits", "snapshot_misses", "snapshot_stores",
)

#: The pickle-tolerance set: anything a truncated, stale, or
#: wrong-version entry can raise while loading.  Shared by every
#: consumer that must read damaged entries as misses.
UNPICKLE_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
)


def flow_fingerprint(
    spec: str,
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
) -> str:
    """The cache key of one ``PassManager.compile`` invocation.

    Everything the run's result can depend on goes in: canonical input
    hashes, the rendered pipeline spec (per-pass parameters included,
    so ``map{library=...}`` names its library), the seeded annotations
    in order (order can matter -- encoding assigns codes by
    iteration), and the digest of the registered and default cell
    libraries (:func:`repro.flow.passes.registered_libraries_digest`).
    Annotation values are hashed in the order given, and the spec is
    the *rendered* string, so any pass whose parameters cannot
    round-trip through spec syntax raises rather than fingerprinting
    ambiguously.

    Args:
        spec: the rendered pipeline spec (:meth:`PassManager.spec`).
        ctrl: the controller-IR input, when the flow starts from the
            frontend stage; hashed by its ``ir_hash()`` (the
            :class:`~repro.flow.core.ControllerIR` protocol), so a
            warm run skips the lowering as well as the synthesis.
        module: the un-elaborated RTL input, when the flow starts from
            RTL; hashed by :meth:`Module.canonical_hash`.
        aig: the elaborated input, when the flow starts from an AIG;
            hashed by :meth:`AIG.canonical_hash`.
        annotations: seeded state annotations, hashed in order.
        bindings: configuration-memory contents consumed by the
            ``pe_bind`` pass; hashed name-sorted.

    Returns:
        A hex SHA-256 digest; equal digests mean "same compile".

    Raises:
        FlowError: via ``spec`` rendering upstream -- a pipeline whose
            parameters have no faithful spec form must not be
            fingerprinted (two distinct pipelines could collide); also
            when ``ctrl`` does not implement the ControllerIR
            protocol (an unhashable IR input must not be cached).
    """
    chunks = _input_chunks(
        ctrl=ctrl,
        module=module,
        aig=aig,
        annotations=annotations,
        bindings=bindings,
    )
    return _spec_digest(spec, chunks)


def _input_chunks(
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
) -> "list[bytes]":
    """The input-dependent digest chunks of :func:`flow_fingerprint`,
    in hashing order -- everything except the version header and the
    spec chunk, so a prefix fold (:func:`fingerprint_prefixes`) hashes
    the inputs once instead of once per prefix."""
    if ctrl is not None and not is_controller_ir(ctrl):
        raise FlowError(
            f"{type(ctrl).__name__} input has no ir_hash(): only "
            f"ControllerIR inputs can be fingerprinted"
        )
    chunks = [
        repr(("ctrl", None if ctrl is None else ctrl.ir_hash())).encode(),
        repr(
            ("module", None if module is None else module.canonical_hash())
        ).encode(),
        repr(
            (
                "bindings",
                None
                if bindings is None
                else tuple(
                    (name, tuple(words))
                    for name, words in sorted(bindings.items())
                ),
            )
        ).encode(),
        repr(
            ("aig", None if aig is None else aig.canonical_hash())
        ).encode(),
        repr(
            (
                "annotations",
                tuple((a.reg_name, tuple(a.values)) for a in annotations),
            )
        ).encode(),
    ]
    # Specs name their library (map{library=...}, or none for the
    # default); the registry digest makes the names' definitions and
    # the default part of the key, so editing any registered kit or
    # changing the default invalidates instead of replaying results
    # mapped against the old cells.  Imported lazily: this module
    # loads before the pass registry during package import.
    from repro.flow.passes import registered_libraries_digest

    chunks.append(
        repr(("library-registry", registered_libraries_digest())).encode()
    )
    return chunks


def _spec_digest(spec: str, chunks: "list[bytes]") -> str:
    digest = hashlib.sha256()
    digest.update(repr(("flow-fingerprint", FINGERPRINT_VERSION)).encode())
    digest.update(repr(("spec", spec)).encode())
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def fingerprint_prefixes(
    prefix_specs: Sequence[str],
    *,
    ctrl=None,
    module: "Module | None" = None,
    aig: "AIG | None" = None,
    annotations: Sequence["StateAnnotation"] = (),
    bindings: "dict[str, list[int]] | None" = None,
) -> "list[str]":
    """:func:`flow_fingerprint` folded over every pipeline prefix.

    ``prefix_specs`` is the cumulative rendered spec of each prefix
    (:meth:`PassManager.prefix_specs` -- element ``k`` covers the
    first ``k + 1`` passes, so the last element is the full spec).
    The input hashes are computed once and each prefix fingerprint is
    *digest-identical* to calling :func:`flow_fingerprint` on that
    prefix's spec with the same inputs: the fingerprint of a pipeline
    that genuinely ends at pass ``k`` and of the length-``k`` prefix
    of a longer pipeline are the same key, which is what makes stage
    snapshots shareable across recipes that diverge after a common
    prefix.

    Returns:
        One hex digest per prefix, in prefix order (the last is the
        full-pipeline fingerprint).
    """
    chunks = _input_chunks(
        ctrl=ctrl,
        module=module,
        aig=aig,
        annotations=annotations,
        bindings=bindings,
    )
    return [_spec_digest(spec, chunks) for spec in prefix_specs]


class LocalDirBackend:
    """The on-disk store: one atomically-written pickle file per
    fingerprint under a two-level fanout directory.

    It moves raw entry bytes only -- serialization stays in
    :class:`CompileCache`, so the corrupt-entry tolerance lives in
    exactly one place.  The cache calls it outside its own lock; the
    atomic writes make that safe from any number of threads and
    processes.

    Args:
        path: store directory; created on first write.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def entry_file(self, key: str, kind: str = ENTRY_KIND) -> Path:
        # Two-level fanout keeps directories small on big sweeps.
        # Stage snapshots live under a third path level (``snap/``):
        # pre-snapshot readers glob exactly ``*/*.pkl``, so the extra
        # component keeps the new kind invisible to them.
        if kind == SNAPSHOT_KIND:
            return self.path / "snap" / key[:2] / f"{key}.pkl"
        return self.path / key[:2] / f"{key}.pkl"

    def load(self, key: str, kind: str = ENTRY_KIND) -> bytes | None:
        """The stored ``kind`` blob for ``key``, or ``None`` on a miss.
        I/O failures read as misses, never as errors."""
        try:
            return self.entry_file(key, kind).read_bytes()
        except OSError:
            return None

    def store(self, key: str, blob: bytes, kind: str = ENTRY_KIND) -> None:
        """Persist ``blob`` under ``key`` in the ``kind`` namespace,
        replacing any previous entry."""
        entry = self.entry_file(key, kind)
        entry.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent workers may race on the same key,
        # and a reader must never observe a half-written pickle.
        handle = tempfile.NamedTemporaryFile(
            dir=entry.parent, prefix=f".{key[:8]}-", suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, entry)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _listing(self, kind: str) -> "list[Path]":
        # ``*/*.pkl`` matches exactly two path components, so entries
        # and snapshots (three components, under ``snap/``) never
        # appear in each other's listing.
        pattern = "snap/*/*.pkl" if kind == SNAPSHOT_KIND else "*/*.pkl"
        try:
            if not self.path.is_dir():
                return []
            return list(self.path.glob(pattern))
        except OSError:
            return []  # an unreadable cache directory reads as empty

    def stats(self) -> dict:
        """A JSON-safe description of the store for ``/stats``."""
        counts = {ENTRY_KIND: 0, SNAPSHOT_KIND: 0}
        sizes = {ENTRY_KIND: 0, SNAPSHOT_KIND: 0}
        for kind in (ENTRY_KIND, SNAPSHOT_KIND):
            for file in self._listing(kind):
                try:
                    size = file.stat().st_size
                except OSError:
                    continue
                counts[kind] += 1
                sizes[kind] += size
        return {
            "kind": "local-dir",
            "path": str(self.path),
            "entries": counts[ENTRY_KIND],
            "snapshots": counts[SNAPSHOT_KIND],
            "entry_bytes": sizes[ENTRY_KIND],
            "snapshot_bytes": sizes[SNAPSHOT_KIND],
        }

    # -- garbage collection -------------------------------------------
    def sweep(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> "SweepStats":
        """Evict entries by age, then by size budget (see
        :meth:`CompileCache.sweep` for the contract).

        Completed entries and stage snapshots are swept jointly: one
        age horizon, one size budget, oldest-first across both kinds
        (a snapshot is exactly as re-computable as an entry, so
        neither deserves protection from the other).  ``scanned`` /
        ``removed`` / byte totals cover both kinds; the snapshot share
        is broken out in ``scanned_snapshots``/``removed_snapshots``.
        """
        entries: list[tuple[float, int, Path, str]] = []
        for kind in (ENTRY_KIND, SNAPSHOT_KIND):
            for file in self._listing(kind):
                try:
                    if not file.is_file():
                        continue  # a directory named *.pkl is not ours
                    stat = file.stat()
                except OSError:
                    continue  # deleted (or unreadable) under us: skip
                entries.append((stat.st_mtime, stat.st_size, file, kind))
        bytes_before = sum(size for _, size, _, _ in entries)
        scanned = len(entries)
        scanned_snapshots = sum(
            1 for e in entries if e[3] == SNAPSHOT_KIND
        )

        doomed: list[tuple[float, int, Path, str]] = []
        if max_age_days is not None:
            horizon = time.time() - max_age_days * 86400.0
            doomed = [e for e in entries if e[0] < horizon]
            entries = [e for e in entries if e[0] >= horizon]
        if max_bytes is not None:
            entries.sort(key=lambda e: e[:2])  # oldest first
            kept_bytes = sum(size for _, size, _, _ in entries)
            while entries and kept_bytes > max_bytes:
                victim = entries.pop(0)
                kept_bytes -= victim[1]
                doomed.append(victim)

        removed = 0
        removed_snapshots = 0
        freed = 0
        for _, size, file, kind in doomed:
            try:
                os.unlink(file)
            except OSError:
                continue  # already gone: someone else swept it
            removed += 1
            removed_snapshots += int(kind == SNAPSHOT_KIND)
            freed += size
        return SweepStats(
            scanned=scanned,
            removed=removed,
            bytes_before=bytes_before,
            bytes_after=bytes_before - freed,
            scanned_snapshots=scanned_snapshots,
            removed_snapshots=removed_snapshots,
        )


class CompileCache:
    """A two-layer (memory LRU, optional on-disk store) cache of
    completed flow contexts, keyed by :func:`flow_fingerprint`.

    Args:
        path: directory of the on-disk :class:`LocalDirBackend`;
            created on first write.  ``None`` keeps the cache
            memory-only.
        max_memory_entries: LRU bound of the in-memory layer.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_memory_entries: int = 512,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError(
                f"max_memory_entries must be >= 1, got {max_memory_entries}"
            )
        self.backend = None if path is None else LocalDirBackend(path)
        self.max_memory_entries = max_memory_entries
        #: One lock guards the LRU dicts and every counter: server
        #: request handlers and pool callbacks share one instance, and
        #: an unguarded OrderedDict corrupts under concurrent movers.
        #: Backend I/O and (un)pickling happen outside the lock.
        self._lock = threading.Lock()
        #: Fingerprint -> (context, its pickle bytes or ``None``).
        self._memory: OrderedDict[str, tuple] = OrderedDict()  # guarded-by: _lock
        #: The snapshot LRU stores pickled context *bytes*, never the
        #: unpickled context: resuming mutates the restored context in
        #: place, so handing two resumes one shared object would let
        #: the first corrupt the second.  Every hit unpickles fresh.
        self._snapshots: OrderedDict[str, bytes] = OrderedDict()  # guarded-by: _lock
        self.memory_hits = 0  # guarded-by: _lock
        self.disk_hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.stores = 0  # guarded-by: _lock
        self.snapshot_hits = 0  # guarded-by: _lock
        self.snapshot_misses = 0  # guarded-by: _lock
        self.snapshot_stores = 0  # guarded-by: _lock

    @property
    def path(self) -> Path | None:
        """The store directory (:func:`repro.flow.parallel.compile_many`
        ships this to worker processes); ``None`` when memory-only."""
        return None if self.backend is None else self.backend.path

    # -- lookup -------------------------------------------------------
    @property
    def hits(self) -> int:
        with self._lock:
            return self.memory_hits + self.disk_hits

    def get(self, key: str) -> "FlowContext | None":
        """Look up a completed context by fingerprint.

        A backend hit is promoted into the memory layer together with
        the bytes it loaded and validated, so :meth:`hit_bytes` serves
        exactly those.  Corrupt or truncated backend entries read as
        misses, never as errors.

        Args:
            key: a :func:`flow_fingerprint` digest.

        Returns:
            The cached context (treat as read-only -- memory hits
            share one object), or ``None`` on a miss.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.memory_hits += 1
                return entry[0]
        loaded = self._backend_get(key)
        if loaded is not None:
            with self._lock:
                self.disk_hits += 1
            self._remember(key, loaded)
            return loaded[0]
        with self._lock:
            self.misses += 1
        return None

    def hit_bytes(self, key: str, ctx: "FlowContext") -> bytes:
        """The pickle bytes of ``ctx``, which :meth:`get` just returned
        for ``key`` -- what a compile server sends for a hit.

        The memory entry keeps them: a disk hit already holds the bytes
        it loaded, and otherwise the first call pickles ``ctx`` (outside
        the lock) and every later call returns the same bytes.  An
        entry evicted or replaced meanwhile is pickled and not kept.
        """
        with self._lock:
            entry = self._memory.get(key)
        if entry is not None and entry[0] is ctx and entry[1] is not None:
            return entry[1]
        blob = _dumps(ctx)
        with self._lock:
            if entry is not None and self._memory.get(key) is entry:
                self._memory[key] = (ctx, blob)
        return blob

    def put(self, key: str, ctx: "FlowContext") -> None:
        """Store a completed context under ``key`` (memory and
        backend).

        Args:
            key: a :func:`flow_fingerprint` digest.
            ctx: the finished flow context; stored by reference in
                memory and pickled to the backend, so do not mutate it
                after storing.  The memory entry keeps no pickle
                bytes: a batch would hold both its results and their
                pickles.

        Raises:
            OSError: a local backend's directory is not writable.
        """
        self.put_memory(key, ctx)
        if self.backend is not None:
            self.backend.store(key, _dumps(ctx), kind=ENTRY_KIND)
        with self._lock:
            self.stores += 1

    # -- stage snapshots ----------------------------------------------
    def get_snapshot(self, prefix_fingerprint: str) -> "FlowContext | None":
        """Restore the mid-pipeline context snapshotted under a prefix
        fingerprint (:func:`fingerprint_prefixes`), or ``None``.

        Every hit unpickles a *fresh* context -- the caller will
        mutate it by running the remaining passes, so snapshot hits
        never share objects (unlike :meth:`get`).  A corrupt blob, or
        one that is not a :class:`FlowContext`, reads as a miss.
        """
        with self._lock:
            blob = self._snapshots.get(prefix_fingerprint)
            if blob is not None:
                self._snapshots.move_to_end(prefix_fingerprint)
        if blob is None and self.backend is not None:
            blob = self.backend.load(prefix_fingerprint, kind=SNAPSHOT_KIND)
        ctx = None if blob is None else _loads(blob)
        if ctx is None:
            with self._lock:
                self.snapshot_misses += 1
            return None
        self._put_snapshot_memory(prefix_fingerprint, blob)
        with self._lock:
            self.snapshot_hits += 1
        return ctx

    def put_snapshot(
        self, prefix_fingerprint: str, ctx: "FlowContext"
    ) -> None:
        """Snapshot a mid-pipeline context under a prefix fingerprint.

        The context is pickled once, here -- the stored bytes are the
        snapshot's identity from then on, immune to the caller
        continuing to mutate ``ctx``.
        """
        blob = _dumps(ctx)
        self._put_snapshot_memory(prefix_fingerprint, blob)
        if self.backend is not None:
            self.backend.store(prefix_fingerprint, blob, kind=SNAPSHOT_KIND)
        with self._lock:
            self.snapshot_stores += 1

    def _put_snapshot_memory(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._snapshots[key] = blob
            self._snapshots.move_to_end(key)
            while len(self._snapshots) > MAX_SNAPSHOT_ENTRIES:
                self._snapshots.popitem(last=False)

    def stats(self) -> dict:
        """A JSON-safe counter snapshot -- what the compile server
        exposes at ``/stats``.  ``disk_hits`` counts backend hits of
        any kind."""
        with self._lock:
            return {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "hits": self.memory_hits + self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "memory_entries": len(self._memory),
                "snapshot_hits": self.snapshot_hits,
                "snapshot_misses": self.snapshot_misses,
                "snapshot_stores": self.snapshot_stores,
                "snapshot_entries": len(self._snapshots),
                "backend": None
                if self.backend is None
                else self.backend.stats(),
            }

    def stats_line(self) -> str:
        """The one-line human form of :meth:`stats`."""
        stats = self.stats()
        return (
            f"cache: {stats['memory_hits']} memory hits, "
            f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
            f"{stats['stores']} stores"
        )

    def counts(self) -> "dict[str, int]":
        """The lookup and store counters, by name (:data:`COUNTERS`)."""
        with self._lock:
            return {name: getattr(self, name) for name in COUNTERS}

    def add_counts(self, counts: "dict[str, int]") -> None:
        """Add another instance's :meth:`counts` to this one's.  A
        ``compile_many`` pool worker looks up and stores through a
        cache of its own over the shared directory; the batch's cache
        adds the worker's counts, so a pooled batch reports what a
        serial one does."""
        with self._lock:
            for name in COUNTERS:
                setattr(self, name, getattr(self, name) + counts.get(name, 0))

    # -- the memory layer ---------------------------------------------
    def put_memory(self, key: str, ctx: "FlowContext") -> None:
        """Store in the memory layer only (used when the backend was
        already written by a worker process)."""
        self._remember(key, (ctx, None))

    def _remember(self, key: str, entry: tuple) -> None:
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    # -- the backend layer --------------------------------------------
    def _backend_get(self, key: str) -> "tuple | None":
        """``(context, the bytes it unpickled from)`` for a valid
        backend entry, else ``None``."""
        if self.backend is None:
            return None
        blob = self.backend.load(key, kind=ENTRY_KIND)
        if blob is None:
            return None
        ctx = _loads(blob)
        return None if ctx is None else (ctx, blob)

    # -- garbage collection -------------------------------------------
    def sweep(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
    ) -> "SweepStats":
        """Evict on-disk entries by age, then by size budget.

        ``.repro-cache/`` otherwise grows without bound: every distinct
        (design, pipeline) fingerprint adds a pickle
        that nothing ever deletes.  The sweep first drops entries older
        than ``max_age_days`` (by mtime -- ``os.replace`` preserves the
        write time, so age means "time since this result was
        computed"), then, if the survivors still exceed ``max_bytes``,
        drops the oldest survivors first until the budget holds.
        Concurrently-deleted files are skipped, so sweeping a live
        shared cache is safe; the memory layer is left intact (it is
        bounded by ``max_memory_entries`` already).

        Args:
            max_bytes: total size budget for the local store; ``None``
                means no size bound.
            max_age_days: entries older than this are evicted
                regardless of the size budget; ``None`` means no age
                bound.

        Returns:
            A :class:`SweepStats` describing what was scanned, what
            was removed, and the bytes before/after.  A memory-only
            cache, a missing or empty cache directory, and a ``path``
            that is not a directory at all return all-zero stats --
            GC of nothing is a no-op, never an error.  Foreign files
            in the cache directory (anything that is not a regular
            ``*.pkl`` entry file, including stray subdirectories named
            like entries) and files that vanish or turn unreadable
            mid-sweep are skipped, not crashed on.

        Raises:
            ValueError: a negative ``max_bytes`` or ``max_age_days``.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_age_days is not None and max_age_days < 0:
            raise ValueError(
                f"max_age_days must be >= 0, got {max_age_days}"
            )
        if self.backend is None:
            return SweepStats()
        return self.backend.sweep(
            max_bytes=max_bytes, max_age_days=max_age_days
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "memory" if self.backend is None else repr(self.backend.stats())
        return f"<CompileCache {where} {self.stats_line()!r}>"


def _dumps(ctx: "FlowContext") -> bytes:
    return pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(blob: bytes) -> "FlowContext | None":
    try:
        loaded = pickle.loads(blob)
    except UNPICKLE_ERRORS:
        # A truncated or stale entry is a miss, not an error.
        return None
    if not isinstance(loaded, FlowContext):
        # A foreign pickle under an entry or snapshot key is a miss,
        # never a context.
        return None
    return loaded


@dataclass(frozen=True)
class SweepStats:
    """What one :meth:`CompileCache.sweep` did.  ``scanned``,
    ``removed``, and the byte totals cover completed entries *and*
    stage snapshots; the ``*_snapshots`` fields break out the snapshot
    share of the first two."""

    scanned: int = 0
    removed: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    scanned_snapshots: int = 0
    removed_snapshots: int = 0

    def __str__(self) -> str:
        return (
            f"swept "
            f"{self.removed - self.removed_snapshots}"
            f"/{self.scanned - self.scanned_snapshots} entries "
            f"({self.removed_snapshots}/{self.scanned_snapshots} "
            f"snapshots), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
