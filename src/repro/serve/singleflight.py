"""Single-flight execution: N concurrent identical calls, one run.

The compile server dedupes in-flight work by
:func:`~repro.flow.cache.flow_fingerprint`: when many clients submit
the same compile concurrently (a CI fan-out warming one shared cache
is the motivating case), exactly one *leader* executes it and every
concurrent *follower* blocks on the leader's result instead of
burning a worker slot on a duplicate.  This is the classic
``singleflight`` primitive of Go's ``groupcache``, reduced to what a
threaded server needs.

Scope: single-flight spans *concurrent* calls only.  Once the leader
finishes, its table entry is dropped -- a later identical call starts
fresh (and is expected to hit the result cache instead; the server
always re-checks the cache inside the flight, so the leader/cache
composition never computes twice either).

Errors propagate to everyone: the leader's exception is re-raised in
each waiting follower, so a failing compile fails every submitter of
that fingerprint rather than hanging the followers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

T = TypeVar("T")


class _Flight:
    """One in-flight computation: an event the followers wait on and
    the slots the leader fills before setting it."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.followers = 0


@dataclass(frozen=True)
class FlightOutcome:
    """What one :meth:`SingleFlight.do` call observed.

    ``leader`` is True for the caller that actually executed ``fn``;
    ``deduped`` for followers that rode an in-flight leader.  Exactly
    one of them is True per call.
    """

    value: object
    leader: bool

    @property
    def deduped(self) -> bool:
        return not self.leader


@dataclass
class FlightStats:
    """Thread-safe counters over one :class:`SingleFlight` table."""

    started: int = 0  # guarded-by: _lock
    deduped: int = 0  # guarded-by: _lock
    errors: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "started": self.started,
                "deduped": self.deduped,
                "errors": self.errors,
            }


class SingleFlight:
    """A table of in-flight keyed computations with leader election.

    Usage::

        flight = SingleFlight()
        outcome = flight.do(fingerprint, compute)
        ctx = outcome.value          # computed once per concurrent burst
        if outcome.deduped: ...      # this caller rode a leader

    Thread-safe; ``fn`` runs outside the table lock, so flights of
    *different* keys execute concurrently and never wait on each
    other.  Only equal keys share a flight: the compile server keys a
    job by its whole fingerprint, and a batch shares its prefixes by
    running in submission order instead (see
    :class:`~repro.serve.server.CompileServer`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}  # guarded-by: _lock
        self.stats = FlightStats()

    def inflight(self) -> int:
        """How many distinct keys are currently executing."""
        with self._lock:
            return len(self._flights)

    def do(self, key: str, fn: Callable[[], T]) -> FlightOutcome:
        """Run ``fn`` once per concurrent burst of ``key``.

        The first caller of a key becomes the leader and executes
        ``fn``; callers arriving while the leader runs block and
        receive the leader's result (or re-raise its exception) without
        executing anything.

        Args:
            key: the dedup key (a flow fingerprint, for the server).
            fn: the computation; executed by leaders only.

        Returns:
            A :class:`FlightOutcome` carrying the value and whether
            this caller led or was deduped.

        Raises:
            BaseException: whatever ``fn`` raised, in the leader *and*
                in every follower of that flight.
        """
        with self._lock:
            flight = self._flights.get(key)
            leading = flight is None
            if leading:
                flight = self._flights[key] = _Flight()
            else:
                flight.followers += 1
            with self.stats._lock:
                if leading:
                    self.stats.started += 1
                else:
                    self.stats.deduped += 1
        if leading:
            try:
                flight.result = fn()
            except BaseException as exc:
                flight.error = exc
                with self.stats._lock:
                    self.stats.errors += 1
                raise
            finally:
                # Drop the table entry *before* waking followers: a
                # caller arriving after completion must start a fresh
                # flight (and normally hits the result cache instead).
                with self._lock:
                    del self._flights[key]
                flight.done.set()
            return FlightOutcome(flight.result, leader=True)

        flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return FlightOutcome(flight.result, leader=False)
