"""Prefix sharing through the server: a batch runs in submission
order, as serial ``compile_many`` runs it."""

import http.client
import json
import random
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.expts.techsweep import build_jobs
from repro.flow import CompileCache, CompileJob, PassManager, compile_many
from repro.rtl.builder import ModuleBuilder
import repro.serve.server as server_module
from repro.serve import CompileServer, ServeClient
from repro.serve.protocol import encode_batch


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def build_random_rom_module(addr_bits, name):
    """A ROM of random bytes; its compile time grows with
    ``addr_bits``."""
    rng = random.Random(name)
    words = [rng.randrange(256) for _ in range(1 << addr_bits)]
    b = ModuleBuilder(name)
    addr = b.input("addr", addr_bits)
    rom = b.rom("t", 8, len(words), words)
    b.output("data", rom.read(addr))
    return b.build()


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


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
    batch: the second must resume from the first one's snapshots,
    never recompute the shared prefix -- and the results must equal
    local from-scratch compiles."""
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
    assert stats["prefix_resumes"] == 1
    for key, spec in specs.items():
        local = PassManager.parse(spec).compile(module=module)
        assert record_signature(results[key]) == record_signature(local)
        assert results[key].area.total == local.area.total


@pytest.fixture(scope="module")
def small_grid_from_scratch():
    return compile_many(build_jobs("small"))


@pytest.mark.parametrize("workers", [1, 2])
def test_server_plans_a_batch_like_compile_many(
    tmp_path, monkeypatch, small_grid_from_scratch, workers
):
    """One POST of the small techsweep grid executes exactly the 87
    pass records ``compile_many`` executes on it, and stores the same
    21 snapshots, with any number of pool workers: the server plans
    the batch with the same rule and runs it in the same order.  The
    plan fingerprints each job once, and the job runs with those
    fingerprints; a one-job POST is not planned."""
    fingerprinted = []
    real_fingerprints = server_module._job_prefix_fingerprints

    def counting_fingerprints(job):
        fingerprinted.append(job.key)
        return real_fingerprints(job)

    monkeypatch.setattr(
        server_module, "_job_prefix_fingerprints", counting_fingerprints
    )
    cache = CompileCache(tmp_path / "cache")
    with CompileServer(cache=cache, workers=workers) as srv:
        client = ServeClient(srv.url)
        served = client.compile(build_jobs("small"))
        assert sorted(fingerprinted) == list(range(18))
        fingerprinted.clear()
        client.compile(build_jobs("small")[:1])
        assert fingerprinted == [0]
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


def test_concurrent_batches_compile_each_job_once(
    tmp_path, small_grid_from_scratch
):
    """Two concurrent POSTs of the small grid: each runs in submission
    order, so job by job one leads and the other rides its flight or
    hits its entry -- 18 compiles and the 21 snapshots one POST
    stores, and every result equals its from-scratch compile."""
    cache = CompileCache(tmp_path / "cache")
    served = [None, None]
    with CompileServer(cache=cache, workers=2) as srv:

        def post(i):
            served[i] = ServeClient(srv.url).compile(build_jobs("small"))

        threads = [
            threading.Thread(target=post, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        compiles = ServeClient(srv.url).stats()["compiles"]
    assert compiles == 18
    assert cache.snapshot_stores == 21
    for results in served:
        assert results is not None
        assert set(results) == set(small_grid_from_scratch)
        for key, ctx in results.items():
            scratch = small_grid_from_scratch[key]
            assert record_signature(ctx) == record_signature(scratch)
            assert ctx.aig.canonical_hash() == scratch.aig.canonical_hash()
            assert ctx.area.total == scratch.area.total


def test_batch_lines_arrive_in_submission_order():
    """A slow compile submitted before a fast unrelated one still
    answers first, on a server with a free worker for the fast one:
    a batch runs one job after another, in submission order.  (The
    slow job takes about a hundred times as long as the fast one, so
    a server that ran them together would answer ``[1, 0]``.)"""
    jobs = [
        CompileJob(
            "slow", "elaborate,optimize,map,size",
            module=build_random_rom_module(8, "slow"),
        ),
        CompileJob(
            "fast", "elaborate,map",
            module=build_random_rom_module(3, "fast"),
        ),
    ]
    with CompileServer(workers=2) as srv:
        request = urllib.request.Request(
            f"{srv.url}/compile",
            data=json.dumps(encode_batch(jobs)).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=120.0) as response:
            ids = [json.loads(line)["id"] for line in response]
    assert ids == [0, 1]


def test_jobs_after_a_hang_up_still_compile_into_the_cache():
    """A client that hangs up after the first line of its batch does
    not stop the batch: the remaining jobs still compile, in order,
    and warm the cache for whoever asks next."""
    jobs = [
        CompileJob(
            scale, "elaborate,optimize,map,size",
            module=build_rom_module(scale, name=f"hangup{scale}"),
        )
        for scale in (3, 5, 7)
    ]
    with CompileServer(workers=2) as srv:
        address = urllib.parse.urlsplit(srv.url)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=60.0
        )
        connection.request(
            "POST", "/compile",
            body=json.dumps(encode_batch(jobs)),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert json.loads(response.readline())["id"] == 0
        response.close()
        connection.close()
        deadline = time.monotonic() + 60.0
        while (
            srv.stats()["compiles"] < len(jobs)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert srv.stats()["compiles"] == len(jobs)
        warm = ServeClient(srv.url).compile_detailed(jobs)
    assert all(result.cache_hit for result in warm)
