"""Prefix-aware single-flight, alone and inside the server."""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.expts.techsweep import build_jobs
from repro.flow import CompileCache, CompileJob, PassManager, compile_many
from repro.rtl.builder import ModuleBuilder
from repro.serve import CompileServer, ServeClient, SingleFlight


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


# ---------------------------------------------------------------------
# SingleFlight prefix keys.
# ---------------------------------------------------------------------

def test_prefix_sharer_waits_once_then_leads():
    flights = SingleFlight()
    release = threading.Event()
    order = []

    def leader_fn():
        order.append("leader")
        release.wait(timeout=10.0)
        return "lead-result"

    outcomes = {}

    def leader():
        outcomes["a"] = flights.do(
            "full-a", leader_fn, prefix_keys=("p1", "p2")
        )

    thread = threading.Thread(target=leader)
    thread.start()
    deadline = time.monotonic() + 10.0
    while flights.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)

    def sharer():
        # Distinct full key, shared prefix: waits for the leader once,
        # then executes itself.
        outcomes["b"] = flights.do(
            "full-b", lambda: order.append("sharer") or "share-result",
            prefix_keys=("p1", "p3"),
        )

    share = threading.Thread(target=sharer)
    share.start()
    # The sharer must be parked on the leader, not executing.
    time.sleep(0.05)
    assert "sharer" not in order
    release.set()
    thread.join(timeout=10.0)
    share.join(timeout=10.0)

    assert order == ["leader", "sharer"]
    assert outcomes["a"].leader and outcomes["b"].leader
    stats = flights.stats.to_json()
    assert stats["started"] == 2
    assert stats["deduped"] == 0
    assert stats["prefix_waits"] == 1
    assert flights.inflight() == 0


def test_unrelated_prefixes_run_concurrently():
    flights = SingleFlight()
    release = threading.Event()

    def slow():
        release.wait(timeout=10.0)
        return "slow"

    results = {}

    def run_slow():
        results["a"] = flights.do("ka", slow, prefix_keys=("pa",))

    thread = threading.Thread(target=run_slow)
    thread.start()
    deadline = time.monotonic() + 10.0
    while flights.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    # No prefix overlap: executes immediately, no wait.
    results["b"] = flights.do("kb", lambda: "fast", prefix_keys=("pb",))
    release.set()
    thread.join(timeout=10.0)
    assert results["b"].value == "fast"
    assert flights.stats.to_json()["prefix_waits"] == 0


def test_prefix_table_entries_are_cleaned_up():
    flights = SingleFlight()
    flights.do("k", lambda: 1, prefix_keys=("p1", "p2"))
    assert flights.inflight() == 0
    with flights._lock:
        assert not flights._prefixes


def test_no_two_callers_run_through_one_advertised_prefix_at_once():
    """A caller re-checks its prefixes after every wait, so it never
    leads while another leader holds one of them -- even when that
    leader was elected while the caller was waiting on a third.  Eight
    threads over a two-level prefix trie, with a short switch
    interval; any overlap is a lost exactly-once guarantee."""
    flights = SingleFlight()
    lock = threading.Lock()
    running: Counter = Counter()
    overlaps = []

    def call(i: int) -> None:
        keys = ("root", f"mid-{i % 3}")

        def fn():
            with lock:
                running.update(keys)
                overlaps.extend(k for k in keys if running[k] > 1)
            time.sleep(0.002)
            with lock:
                running.subtract(keys)
            return i

        flights.do(f"full-{i}", fn, prefix_keys=keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(
                target=lambda t=t: [call(t * 6 + j) for j in range(6)]
            )
            for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert overlaps == []
    assert flights.stats.to_json()["started"] == 48
    assert flights.inflight() == 0


# ---------------------------------------------------------------------
# Server end to end.
# ---------------------------------------------------------------------

@pytest.fixture()
def server(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    with CompileServer(cache=cache, workers=2) as srv:
        yield srv


def test_server_batch_resumes_shared_prefix(server):
    """Two jobs sharing everything up to ``map`` submitted as one
    batch: the second must resume from the first one's snapshots (or
    wait on its flight), never recompute the shared prefix -- and the
    results must equal local from-scratch compiles."""
    module = build_rom_module()
    # size's clock target must differ *from the default*: a default
    # parameter renders out of the spec and the jobs would collapse to
    # one fingerprint.
    specs = {
        "fast": "elaborate,optimize,map,size{clock_period_ns=4.0}",
        "slow": "elaborate,optimize,map,size{clock_period_ns=40.0}",
    }
    jobs = [
        CompileJob(key, spec, module=module)
        for key, spec in specs.items()
    ]
    results = ServeClient(server.url).compile(jobs)
    assert set(results) == set(specs)

    stats = ServeClient(server.url).stats()
    assert stats["compiles"] == 2
    assert stats["prefix_resumes"] >= 1
    for key, spec in specs.items():
        local = PassManager.parse(spec).compile(module=module)
        assert record_signature(results[key]) == record_signature(local)
        assert results[key].area.total == local.area.total


@pytest.fixture(scope="module")
def small_grid_from_scratch():
    return compile_many(build_jobs("small"))


@pytest.mark.parametrize("workers", [1, 2])
def test_server_plans_a_batch_like_compile_many(
    tmp_path, small_grid_from_scratch, workers
):
    """One POST of the small techsweep grid executes exactly the 87
    pass records ``compile_many`` executes on it, and stores the same
    21 snapshots, with any number of pool workers: the server plans
    the batch with the same rule, and a job that shares a prefix with
    an executing leader waits for it instead of racing it."""
    cache = CompileCache(tmp_path / "cache")
    with CompileServer(cache=cache, workers=workers) as srv:
        served = ServeClient(srv.url).compile(build_jobs("small"))
    executed = sum(
        len(ctx.records) - int(ctx.meta.get("resumed_records", 0))
        for ctx in served.values()
    )
    assert executed == 87
    assert cache.snapshot_stores == 21
    assert set(served) == set(small_grid_from_scratch)
    for key, ctx in served.items():
        scratch = small_grid_from_scratch[key]
        assert record_signature(ctx) == record_signature(scratch)
        assert ctx.aig.canonical_hash() == scratch.aig.canonical_hash()
        assert ctx.area.total == scratch.area.total
