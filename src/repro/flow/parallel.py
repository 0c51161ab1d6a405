"""Process-pool fan-out for independent (module, pipeline) compiles.

The figure drivers compile hundreds of independent jobs; this module
distributes them across worker processes with :func:`compile_many`,
returning completed :class:`FlowContext` objects (pass records and
all) keyed by job, in submission order.

Caching composes: hits are resolved in the parent before any worker
spawns, workers share the disk layer of a path-backed
:class:`~repro.flow.cache.CompileCache` (atomic entry files make the
sharing safe), and every parallel result is folded back into the
parent cache so later serial queries hit in memory.

A failing job raises :class:`CompileJobError` carrying the job key and
the pass records accumulated up to the failure -- the log context an
error report needs -- identically from the serial and the parallel
path (the earliest failing job in submission order wins, so error
behaviour is deterministic regardless of worker scheduling).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.flow.cache import CompileCache, fingerprint_prefixes
from repro.flow.core import (
    FlowContext,
    FlowError,
    PassRecord,
    ensure_recursion_headroom,
    render_log,
)
from repro.flow.manager import (
    PassManager,
    prefix_specs_of,
    prepare_resume,
    run_resumable,
)

if TYPE_CHECKING:
    from repro.rtl.module import Module


@dataclass(frozen=True)
class CompileJob:
    """One independent compile: a design plus one pipeline spec.

    ``pipeline`` is a spec string (``PassManager.spec()`` renders one),
    parsed where the job runs; it alone says how the design is
    compiled, cell library included (``map{library=...}``).  The
    design is the rest: a controller IR (``ctrl``, lowered by the
    pipeline's ``ctrl``-stage passes) or an RTL ``module``, the
    seeded state ``annotations``, and configuration-memory
    ``bindings`` for ``pe_bind``.  Every field but ``key`` enters the
    job's fingerprint.  ``key`` identifies the job in the result
    mapping and must be unique within one ``compile_many`` call.

    A job ships the *IR*, not a pre-built module, so the lowering
    itself is cached, parallelized, and fingerprinted like every
    other stage.
    """

    key: Hashable
    pipeline: str
    module: "Module | None" = None
    ctrl: object | None = None
    annotations: tuple = ()
    bindings: "dict[str, list[int]] | None" = None


class CompileJobError(FlowError):
    """A compile job failed; carries the job key and the pass records
    (hence log lines) accumulated up to the failure."""

    def __init__(
        self, key: Hashable, error: str, records: Sequence[PassRecord] = ()
    ) -> None:
        self.key = key
        self.error = error
        self.records = list(records)
        tail = render_log(self.records)[-4:]
        message = f"compile job {key!r} failed: {error}"
        if tail:
            message += "; log tail: " + " | ".join(tail)
        super().__init__(message)

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the rendered
        # message) into ``__init__`` -- replay the real fields instead
        # so the error crosses the process pool intact.
        return (CompileJobError, (self.key, self.error, self.records))


def _job_error(
    job: CompileJob, exc: Exception, records: Sequence[PassRecord] = ()
) -> CompileJobError:
    """``exc``, raised while compiling ``job``, as the job's keyed
    :class:`CompileJobError`."""
    return CompileJobError(job.key, f"{type(exc).__name__}: {exc}", records)


def _job_inputs(job: CompileJob) -> dict:
    """The keyword inputs of :meth:`PassManager.compile` a job carries."""
    return dict(
        ctrl=job.ctrl,
        module=job.module,
        annotations=job.annotations,
        bindings=job.bindings,
    )


def _job_prefix_fingerprints(job: CompileJob) -> list[str]:
    """The job's prefix fingerprints; the last is its cache key.

    The prefix specs come from the process's spec analysis memo
    (:func:`~repro.flow.manager.prefix_specs_of`), so a spec seen
    before costs only the hashing of the job's inputs.

    Raises:
        CompileJobError: the spec does not parse, or an input cannot
            be fingerprinted.
    """
    try:
        return fingerprint_prefixes(
            prefix_specs_of(job.pipeline), **_job_inputs(job)
        )
    except Exception as exc:
        raise _job_error(job, exc) from exc


def _execute_job(
    job: CompileJob,
    cache: CompileCache | None,
    fingerprints: Sequence[str],
    snapshot_after: frozenset,
) -> FlowContext:
    """Resume, run and store one job whose key the caller already
    looked up and missed, wrapping failures with their log context.

    ``fingerprints`` are the job's prefix fingerprints (unused without
    a cache; the last is the key).  ``snapshot_after`` holds the
    top-level pass indices whose boundary the batch planner
    (:func:`_plan_waves`) marked as shared with another job.  No spec
    check runs here; the compile server runs its own on every job it
    serves."""
    try:
        pipeline = PassManager.parse(job.pipeline)
    except FlowError as exc:
        raise _job_error(job, exc) from exc
    ctx, start = prepare_resume(
        pipeline,
        cache=cache,
        prefix_fingerprints=fingerprints,
        **_job_inputs(job),
    )
    try:
        run_resumable(
            pipeline,
            ctx,
            start=start,
            cache=cache,
            prefix_fingerprints=fingerprints,
            snapshot_after=snapshot_after,
        )
    except CompileJobError:
        raise
    except Exception as exc:
        raise _job_error(job, exc, ctx.records) from exc
    if cache is not None:
        cache.put(fingerprints[-1], ctx)
    return ctx


def _worker_run(
    job: CompileJob,
    cache_path: str | None,
    fingerprints: Sequence[str],
    snapshot_after: frozenset,
) -> "tuple[FlowContext, dict[str, int]]":
    """Entry point executed inside a pool worker: the job's context
    and the :meth:`~repro.flow.cache.CompileCache.counts` of the
    worker's own cache over the shared directory (empty without one),
    for the batch's cache to add."""
    ensure_recursion_headroom()
    cache = None if cache_path is None else CompileCache(path=cache_path)
    ctx = _execute_job(job, cache, fingerprints, snapshot_after)
    return ctx, {} if cache is None else cache.counts()


def _pool_context():
    """Fork on Linux (cheap, inherits the recursion limit and warning
    filters); spawn elsewhere -- fork is crash-prone on macOS, which is
    why CPython itself switched that platform's default to spawn."""
    methods = multiprocessing.get_all_start_methods()
    use_fork = sys.platform == "linux" and "fork" in methods
    return multiprocessing.get_context("fork" if use_fork else "spawn")


def _plan_waves(
    prefix_lists: Sequence[Sequence[str]],
) -> "tuple[list[list[int]], dict[int, frozenset]]":
    """The prefix-trie schedule of one job batch -- the one place that
    decides which boundaries a compile snapshots.

    ``prefix_lists[i]`` is job ``i``'s prefix fingerprints (full
    fingerprint last); a fingerprint appearing in two or more jobs is
    *shared* -- work that must execute exactly once.  The rule: job
    ``i`` snapshots the boundary after pass ``k`` exactly when
    ``prefix_lists[i][k]`` is shared, the final boundary included (a
    job whose whole pipeline is a prefix of another's hands it its
    result that way).  It depends on the batch's inputs alone, never
    on timing.

    The plan is a list of waves (job indices) plus those boundaries
    per job (``forced``): within a wave no two jobs carry the same
    not-yet-covered shared fingerprint, so each shared prefix has
    exactly one *leader*; after the wave the leader's snapshots are
    published, and the followers -- deferred to later waves -- resume
    from them instead of re-executing the prefix.  Two
    content-identical jobs (distinct keys) serialize the same way,
    and the second resumes from the first one's final snapshot.

    Returns:
        ``(waves, forced)`` -- waves partition ``range(len(...))`` in
        submission order; ``forced[i]`` holds the top-level pass
        indices after which job ``i`` must snapshot.
    """
    counts = Counter(fp for fps in prefix_lists for fp in fps)
    forced = {
        i: frozenset(k for k, fp in enumerate(fps) if counts[fp] >= 2)
        for i, fps in enumerate(prefix_lists)
    }
    covered: set[str] = set()
    waves: list[list[int]] = []
    remaining = list(range(len(prefix_lists)))
    while remaining:
        wave: list[int] = []
        claimed: set[str] = set()
        deferred: list[int] = []
        for i in remaining:
            wants = {
                fp
                for fp in prefix_lists[i]
                if counts[fp] >= 2 and fp not in covered
            }
            if wants & claimed:
                deferred.append(i)
            else:
                wave.append(i)
                claimed |= wants
        waves.append(wave)
        covered |= claimed
        remaining = deferred
    return waves, forced


def default_workers() -> int:
    """A sensible worker count for ``--jobs 0`` style requests.

    Returns:
        One worker per CPU core the scheduler reports (at least 1):
        the jobs are CPU-bound synthesis runs, so oversubscription
        buys nothing.
    """
    return max(os.cpu_count() or 1, 1)


def compile_many(
    jobs: Iterable[CompileJob],
    *,
    workers: int = 1,
    cache: CompileCache | None = None,
    server: "str | None" = None,
) -> "dict[Hashable, FlowContext]":
    """Compile independent jobs, optionally across worker processes
    or through a remote compile server.

    Results are bit-identical to running the same jobs serially --
    parallelism only changes wall time, never outputs (contexts cross
    the process boundary by pickle, which preserves floats exactly).

    With a cache, hits are resolved up front in the parent (no worker
    is spawned for them); misses computed by workers are folded back
    into the parent's memory layer, and the disk layer -- when the
    cache has a ``path`` -- is shared with the workers directly
    (atomic entry files make concurrent writers safe).  The cache's
    counters then include the workers' stores and snapshot probes, so
    a pooled batch reports the same counts as a serial one.  A memory-only
    cache still dedups across one ``compile_many`` call, but workers
    cannot share it.  ``cache=None`` compiles every job from scratch:
    nothing is looked up, resumed or stored.

    The misses are planned as one batch (:func:`_plan_waves`): each
    job snapshots exactly the boundaries whose prefix fingerprint
    another job of the batch shares, so exactly one leader executes
    each shared prefix and the followers resume from its snapshot
    (serially, submission order achieves this; across workers, jobs
    are batched into waves that never race on an uncovered shared
    prefix -- which requires a path-backed cache, since followers
    read the leader's snapshots through the shared disk layer).
    Each job then takes :meth:`PassManager.compile`'s path -- resume,
    run, store -- without its spec check, and a failure raises
    :class:`CompileJobError`.

    With ``server``, cache misses are submitted to a
    :mod:`repro.serve` compile server as one batch instead of
    executing locally (the server plans the batch the same way); a
    local ``cache`` then *fronts* the shared service (read-through
    for the up-front hit resolution, write-through as returned
    contexts are stored back), so only the first sighting of a
    fingerprint ever crosses the network.  Error behaviour is
    identical to local execution -- the earliest failing job in
    submission order raises its :class:`CompileJobError` -- and
    ``workers`` is ignored (the server's pool bounds concurrency).

    Args:
        jobs: the independent compiles; ``job.key`` must be unique
            within the call.
        workers: process count; ``<= 1`` runs serially in-process.
        cache: a shared :class:`~repro.flow.cache.CompileCache`, or
            ``None`` to always compile.
        server: base URL of a running compile server
            (``http://127.0.0.1:8731``), or ``None`` to execute
            locally.

    Returns:
        ``{job.key: completed FlowContext}`` in submission order; each
        context carries its own :class:`PassRecord` stream, which is
        how per-job instrumentation merges back.

    Raises:
        FlowError: duplicate job keys; transport failures against
            ``server`` (:class:`repro.serve.client.ServeError`).
        CompileJobError: a job failed, or its spec does not parse;
            the earliest failing job in submission order raises
            (deterministic regardless of worker scheduling), carrying
            its key and the pass records accumulated up to the
            failure.
    """
    jobs = list(jobs)
    seen_keys: set = set()
    for job in jobs:
        if job.key in seen_keys:
            raise FlowError(f"duplicate compile job key {job.key!r}")
        seen_keys.add(job.key)

    ensure_recursion_headroom()
    results: dict[Hashable, FlowContext] = {}
    pending: list[tuple[int, CompileJob, list[str]]] = []
    for index, job in enumerate(jobs):
        fingerprints: list[str] = []
        if cache is not None:
            fingerprints = _job_prefix_fingerprints(job)
            hit = cache.get(fingerprints[-1])
            if hit is not None:
                results[job.key] = hit
                continue
        pending.append((index, job, fingerprints))

    if server is not None:
        # Imported lazily: repro.serve depends on this module.
        from repro.serve.client import ServeClient

        if pending:
            remote = ServeClient(server).compile(
                [job for _, job, _ in pending]
            )
            for _, job, fingerprints in pending:
                ctx = remote[job.key]
                results[job.key] = ctx
                if cache is not None:
                    cache.put(fingerprints[-1], ctx)
    elif workers <= 1 or len(pending) <= 1:
        # Submission order already executes each shared prefix exactly
        # once: the first job carrying it leads (snapshotting the
        # shared boundary), every later job resumes from the snapshot.
        _, forced = _plan_waves([fps for _, _, fps in pending])
        for position, (_, job, fingerprints) in enumerate(pending):
            results[job.key] = _execute_job(
                job, cache, fingerprints, forced[position]
            )
    else:
        cache_path = None if cache is None or cache.path is None else str(
            cache.path
        )
        # Workers cannot see each other's snapshots without a shared
        # disk layer: plan nothing shared, and so run one wave.
        waves, forced = _plan_waves(
            [fps if cache_path else [] for _, _, fps in pending]
        )
        failures: list[tuple[int, CompileJobError]] = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=_pool_context(),
            initializer=ensure_recursion_headroom,
        ) as pool:
            for wave in waves:
                futures = [
                    (position,
                     pool.submit(
                         _worker_run,
                         pending[position][1],
                         cache_path,
                         pending[position][2],
                         forced[position],
                     ))
                    for position in wave
                ]
                for position, future in futures:
                    index, job, fingerprints = pending[position]
                    try:
                        ctx, counts = future.result()
                    except CompileJobError as exc:
                        failures.append((index, exc))
                        continue
                    results[job.key] = ctx
                    if cache is not None:
                        # The worker already published to the shared
                        # disk layer; fold into the parent's memory
                        # layer too, and count what it stored.
                        cache.put_memory(fingerprints[-1], ctx)
                        cache.add_counts(counts)
        if failures:
            # Deterministic: the earliest job in submission order
            # raises, exactly as the serial path would.
            failures.sort(key=lambda pair: pair[0])
            raise failures[0][1]

    return {job.key: results[job.key] for job in jobs}
