"""The compile server end to end: identity with local execution,
caching, single-flight dedup, and error paths."""

import base64
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.flow import (
    CompileCache,
    CompileJob,
    CompileJobError,
    PassManager,
    compile_many,
    flow_fingerprint,
)
import repro.serve
from repro.serve import CompileServer, ServeClient
from repro.serve.protocol import encode_batch
from repro.rtl.builder import ModuleBuilder


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def sample_jobs(name="m"):
    """Four jobs; another ``name`` gives four other fingerprints."""
    return [
        CompileJob(
            ("rom", scale), "elaborate,optimize,map,size",
            module=build_rom_module(scale, name=name),
        )
        for scale in (3, 5, 7, 11)
    ]


def record_signature(ctx):
    """Everything deterministic about a record stream (wall times are
    the one legitimately run-dependent field)."""
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One shared disk-backed server for the whole module."""
    cache = CompileCache(tmp_path_factory.mktemp("serve") / "cache")
    with CompileServer(cache=cache, workers=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


def test_health_and_stats_endpoints(server, client):
    assert client.healthy()
    stats = client.stats()
    assert stats["protocol_version"] == 2
    assert stats["workers"] == 2
    assert {"requests", "jobs", "compiles", "job_errors"} <= set(stats)
    assert stats["cache"]["backend"]["kind"] == "local-dir"
    assert "started" in stats["singleflight"]


def test_served_results_match_local_execution(server, client):
    local = compile_many(sample_jobs(), workers=1)
    served = client.compile(sample_jobs())
    assert list(served) == list(local)  # key order = submission order
    for key in local:
        assert served[key].area.total == local[key].area.total
        assert (
            served[key].timing.critical_delay
            == local[key].timing.critical_delay
        )
        assert record_signature(served[key]) == record_signature(local[key])


def test_warm_batch_is_served_without_compiling(server, client):
    before = client.stats()["compiles"]
    detailed = client.compile_detailed(sample_jobs())
    assert client.stats()["compiles"] == before  # zero new compiles
    assert all(r.cache_hit and not r.deduped for r in detailed)
    assert all(r.error is None for r in detailed)
    # Repeated fetches of one warm entry are byte-identical: the wire
    # context pickles exactly like the server's stored entry.
    fingerprint = detailed[0].fingerprint
    blob = server.cache.backend.load(fingerprint)
    assert blob is not None
    assert pickle.loads(blob).area.total == detailed[0].ctx.area.total


def test_concurrent_identical_jobs_compile_exactly_once(server):
    """The dedup satellite: N clients, same fingerprint, concurrently
    -- exactly one compile happens and everyone gets identical bytes."""
    job = CompileJob(
        "dedup", "elaborate,optimize,map,size",
        module=build_rom_module(13, name="dedup"),
    )
    clients = 6
    barrier = threading.Barrier(clients)
    results = [None] * clients

    def submit(i):
        barrier.wait(timeout=30.0)
        results[i] = ServeClient(server.url).compile_detailed([job])[0]

    before = ServeClient(server.url).stats()["compiles"]
    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)

    assert all(r is not None and r.error is None for r in results)
    after = ServeClient(server.url).stats()["compiles"]
    assert after - before == 1  # exactly one compile across 6 clients
    fingerprints = {r.fingerprint for r in results}
    assert len(fingerprints) == 1
    blobs = {pickle.dumps(r.ctx) for r in results}
    assert len(blobs) == 1  # identical bytes for every caller
    # At most one caller was the cold leader; everyone else was either
    # deduped onto the flight or answered from the just-warmed cache.
    cold = [r for r in results if not r.cache_hit and not r.deduped]
    assert len(cold) <= 1


def test_job_failures_come_back_as_results_with_context(server, client):
    # ``elaborate`` with no input design fails server-side; the error
    # crosses back with its pass records instead of poisoning the batch.
    good = sample_jobs()[0]
    bad = CompileJob("bad", "elaborate,optimize,map,size")
    detailed = client.compile_detailed([bad, good])
    assert detailed[0].error is not None and detailed[0].ctx is None
    assert detailed[1].error is None and detailed[1].ctx is not None
    # compile() raises the earliest failure re-keyed to the real key.
    with pytest.raises(CompileJobError) as err:
        client.compile([bad, good])
    assert err.value.key == "bad"


def test_compile_many_server_path_matches_local(server):
    local = compile_many(sample_jobs("m23"), workers=1)
    via_server = compile_many(sample_jobs("m23"), server=server.url)
    for key in local:
        assert via_server[key].area.total == local[key].area.total
        assert record_signature(via_server[key]) == record_signature(
            local[key]
        )


def test_compile_many_local_cache_fronts_the_server(server):
    cache = CompileCache()
    jobs_before = ServeClient(server.url).stats()["jobs"]
    first = compile_many(sample_jobs("m31"), server=server.url, cache=cache)
    assert ServeClient(server.url).stats()["jobs"] == jobs_before + 4
    # Warm local cache: the second run never touches the network.
    second = compile_many(sample_jobs("m31"), server=server.url, cache=cache)
    assert ServeClient(server.url).stats()["jobs"] == jobs_before + 4
    assert cache.memory_hits == 4
    for key in first:
        assert second[key] is first[key]


def raw_post_status(url, content_length):
    """POST /compile with a hand-written ``Content-Length`` header and
    no body; the status code of the reply."""
    address = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (address.hostname, address.port), timeout=5.0
    ) as sock:
        sock.sendall(
            f"POST /compile HTTP/1.1\r\nHost: {address.hostname}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def test_bad_requests_are_rejected_cleanly(server, client):
    before = client.stats()["bad_requests"]
    request = urllib.request.Request(
        f"{server.url}/compile", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
    # A version-mismatched batch is a 400 with a JSON error detail.
    body = json.dumps({"version": 999, "jobs": []}).encode()
    request = urllib.request.Request(
        f"{server.url}/compile",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
    assert "version" in json.loads(err.value.read())["error"]
    # A job payload that unpickles to anything but a dict is a 400
    # too, not a dropped connection.
    batch = encode_batch(sample_jobs()[:1])
    batch["jobs"][0]["payload"] = base64.b64encode(
        pickle.dumps(["not", "a", "dict"])
    ).decode("ascii")
    request = urllib.request.Request(
        f"{server.url}/compile",
        data=json.dumps(batch).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
    assert "not a dict" in json.loads(err.value.read())["error"]
    # A bogus Content-Length is refused before any body byte is read:
    # trusted, -1 reads until the client hangs up, a non-number raises
    # in the handler, and a huge length allocates that much.
    assert raw_post_status(server.url, "-1") == 400
    assert raw_post_status(server.url, "abc") == 400
    assert raw_post_status(server.url, "99999999999") == 413
    assert client.stats()["bad_requests"] - before == 6


def test_cache_uploads_are_refused(server, client):
    """No client can plant bytes in the cache: a result uploaded under
    another job's fingerprint is refused, and that job still compiles
    to its own netlist."""
    spec = "elaborate,optimize,map,size"
    job_a = CompileJob(
        "a", spec, module=build_rom_module(17, name="upload_a")
    )
    job_b = CompileJob(
        "b", spec, module=build_rom_module(19, name="upload_b")
    )
    local = compile_many([job_a, job_b], workers=1)
    assert local["a"].area.total != local["b"].area.total
    fp_b = flow_fingerprint(
        PassManager.parse(spec).spec(), module=job_b.module
    )
    planted = pickle.dumps(local["a"])
    for url in (
        f"{server.url}/cache/{fp_b}",
        f"{server.url}/cache/snap/{fp_b}",
    ):
        put = urllib.request.Request(url, data=planted, method="PUT")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(put)
        assert err.value.code == 501
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url)
        assert err.value.code == 404
    [result] = client.compile_detailed([job_b])
    assert result.fingerprint == fp_b and not result.cache_hit
    assert result.ctx.area.total == local["b"].area.total


def _returns_promptly(action, timeout=5.0) -> bool:
    """Run ``action`` on a daemon thread; did it finish in time?  (A
    hang then fails the test instead of hanging the suite.)"""
    worker = threading.Thread(target=action, daemon=True)
    worker.start()
    worker.join(timeout)
    return not worker.is_alive()


def test_close_returns_on_a_server_that_never_served():
    assert _returns_promptly(CompileServer().close)


def test_serve_forever_after_close_returns_at_once():
    server = CompileServer()
    assert _returns_promptly(server.close)
    assert _returns_promptly(server.serve_forever)


def test_close_right_after_start_returns():
    for _ in range(20):
        assert _returns_promptly(CompileServer().start().close)


@pytest.mark.parametrize(
    "sig, sigint_ignored",
    [
        (signal.SIGINT, False),
        # A background job starts with SIGINT ignored.
        (signal.SIGINT, True),
        (signal.SIGTERM, False),
    ],
    ids=["sigint", "sigint-while-ignored", "sigterm"],
)
def test_cli_server_stops_through_close_on_a_signal(sig, sigint_ignored):
    """``python -m repro.serve`` exits 0 via ``close()`` on a signal sent
    as soon as its banner is read."""
    src = str(Path(repro.serve.__file__).parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def ignore_sigint():
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--memory-only", "--quiet"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=ignore_sigint if sigint_ignored else None,
    )
    banner = proc.stdout.readline()
    assert banner.startswith("serving on "), banner
    proc.send_signal(sig)
    try:
        out, err = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"server still running 5 s after {sig.name}")
    assert proc.returncode == 0, err
    assert "shutting down" in out
