"""Single-flight dedup: one execution per key, everyone gets it."""

import threading
import time

import pytest

from repro.serve import SingleFlight


def test_lone_caller_leads():
    flights = SingleFlight()
    outcome = flights.do("k", lambda: 42)
    assert outcome.value == 42
    assert outcome.leader and not outcome.deduped
    assert flights.inflight() == 0
    stats = flights.stats.to_json()
    assert stats == {"started": 1, "deduped": 0, "errors": 0}


def test_concurrent_callers_share_exactly_one_execution():
    """The satellite guarantee: N concurrent callers of one key cost
    exactly one execution, and every caller gets the identical
    object."""
    flights = SingleFlight()
    calls = []
    release = threading.Event()
    started = threading.Barrier(9)  # 8 callers + the test thread

    def fn():
        calls.append(threading.get_ident())
        release.wait(timeout=10.0)
        return object()  # identity matters below

    outcomes = [None] * 8

    def caller(i):
        started.wait(timeout=10.0)
        outcomes[i] = flights.do("key", fn)

    threads = [
        threading.Thread(target=caller, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    started.wait(timeout=10.0)
    # Hold the leader inside fn until all seven other callers have
    # joined its flight: released any earlier, a caller still on its
    # way to do() would find no flight and lead a second execution.
    deadline = time.monotonic() + 10.0
    while (
        flights.stats.to_json()["deduped"] < 7
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    release.set()
    for t in threads:
        t.join(timeout=10.0)

    assert len(calls) == 1  # exactly one execution
    leaders = [o for o in outcomes if o.leader]
    followers = [o for o in outcomes if o.deduped]
    assert len(leaders) == 1 and len(followers) == 7
    shared = leaders[0].value
    assert all(o.value is shared for o in outcomes)
    assert flights.inflight() == 0
    stats = flights.stats.to_json()
    assert stats["started"] == 1 and stats["deduped"] == 7


def test_sequential_calls_each_execute():
    """The table only dedups *in-flight* work; completed flights are
    dropped, so sequential duplicates re-execute (cache layering above
    single-flight is what turns those into hits)."""
    flights = SingleFlight()
    counter = iter(range(100))
    first = flights.do("key", lambda: next(counter))
    second = flights.do("key", lambda: next(counter))
    assert (first.value, second.value) == (0, 1)
    assert first.leader and second.leader


def test_distinct_keys_do_not_dedup():
    flights = SingleFlight()
    release = threading.Event()
    results = {}

    def slow():
        release.wait(timeout=10.0)
        return "slow"

    def run_a():
        results["a"] = flights.do("a", slow)

    thread = threading.Thread(target=run_a)
    thread.start()
    deadline = time.monotonic() + 10.0
    while flights.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    results["b"] = flights.do("b", lambda: "fast")  # unrelated key
    release.set()
    thread.join(timeout=10.0)
    assert results["a"].value == "slow" and results["a"].leader
    assert results["b"].value == "fast" and results["b"].leader


def test_leader_error_propagates_to_every_follower():
    flights = SingleFlight()
    release = threading.Event()
    ready = threading.Event()

    def explode():
        ready.set()
        release.wait(timeout=10.0)
        raise RuntimeError("boom")

    errors = []

    def leader():
        with pytest.raises(RuntimeError, match="boom"):
            flights.do("key", explode)

    def follower():
        try:
            flights.do("key", explode)
        except RuntimeError as exc:
            errors.append(exc)

    lead = threading.Thread(target=leader)
    lead.start()
    assert ready.wait(timeout=10.0)
    follows = [threading.Thread(target=follower) for _ in range(3)]
    for t in follows:
        t.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        with flights._lock:
            flight = flights._flights.get("key")
            if flight is not None and flight.followers == 3:
                break
        time.sleep(0.001)
    release.set()
    lead.join(timeout=10.0)
    for t in follows:
        t.join(timeout=10.0)
    assert len(errors) == 3
    assert flights.stats.to_json()["errors"] >= 1
    # A failed flight is dropped: the next caller re-executes.
    assert flights.do("key", lambda: "recovered").value == "recovered"
