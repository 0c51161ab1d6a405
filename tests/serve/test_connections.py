"""Connections to the compile server: each client thread keeps one
HTTP/1.1 connection, a dropped one is reconnected once, and close()
ends every connection a server holds."""

import json
import socket
import sys
import threading
import time
import urllib.parse

import pytest

import repro.serve.client as client_module
import repro.serve.server as server_module
from repro.flow import CompileCache, CompileJob, compile_many
from repro.rtl.builder import ModuleBuilder
from repro.serve import CompileServer, ServeClient, ServeError
from repro.serve.protocol import encode_batch

SPEC = "elaborate,optimize,map,size"


def rom_job(scale, name="conn"):
    b = ModuleBuilder(f"{name}{scale}")
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return CompileJob((name, scale), SPEC, module=b.build())


@pytest.fixture
def connections(monkeypatch):
    """The address of every connection a client opens."""
    opened = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        opened.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return opened


def test_one_client_sends_every_request_over_one_connection(connections):
    jobs = [rom_job(scale) for scale in (3, 5)]
    with CompileServer(cache=CompileCache(), workers=1) as server:
        client = ServeClient(server.url)
        for i in range(48):
            results = client.compile_detailed(jobs)
            assert all(r.error is None for r in results)
            assert all(r.cache_hit for r in results) == (i > 0)
        assert client.healthy()
        assert client.stats()["requests"] == 50
    assert len(connections) == 1


def test_a_shared_client_keeps_one_connection_per_thread(connections):
    """More client threads than cores, switching often: each keeps its
    own connection, and every result equals the local compile."""
    jobs = [rom_job(scale) for scale in (3, 5, 7)]
    local = compile_many(jobs, workers=1)
    clients = 4
    served = [[] for _ in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with CompileServer(cache=CompileCache(), workers=2) as server:
            client = ServeClient(server.url)

            def submit(i):
                for _ in range(5):
                    served[i].append(client.compile(jobs))

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(connections) == clients
    for results in sum(served, []):
        assert list(results) == list(local)
        for key, ctx in results.items():
            assert ctx.area.total == local[key].area.total
            assert ctx.aig.canonical_hash() == local[key].aig.canonical_hash()
    assert sum(map(len, served)) == clients * 5


def test_close_ends_the_kept_alive_connections():
    """An idle kept-alive connection must not outlive its server: the
    next request of a client that had compiled gets ``ServeError``,
    never a result, and no thread the server started is left."""
    before = set(threading.enumerate())
    server = CompileServer(cache=CompileCache(), workers=2).start()
    client = ServeClient(server.url)
    jobs = [rom_job(scale) for scale in (3, 5)]
    client.compile(jobs)
    assert all(r.cache_hit for r in client.compile_detailed(jobs))
    server.close()
    assert set(threading.enumerate()) - before == set()
    with pytest.raises(ServeError):
        client.compile_detailed(jobs)


def test_close_during_a_batch_serves_no_later_job(monkeypatch):
    """close() while job 0 of [miss, hit, hit] compiles: the hits are
    not served, and the client gets at most one line and a
    ``ServeError``."""
    slow, *warm = [rom_job(scale, name="short") for scale in (3, 5, 7)]
    server = CompileServer(cache=CompileCache(), workers=2).start()
    ServeClient(server.url).compile(warm)

    compiling, release = threading.Event(), threading.Event()
    real_execute = server_module._execute_job

    def held_execute(*args):
        compiling.set()
        release.wait(timeout=60.0)
        return real_execute(*args)

    decoded, served = [], []
    real_decode = client_module.decode_result
    real_run_job = CompileServer.run_job

    def counting_decode(line):
        decoded.append(line["id"])
        return real_decode(line)

    def counting_run_job(self, job, index, *plan):
        served.append(index)
        return real_run_job(self, job, index, *plan)

    monkeypatch.setattr(server_module, "_execute_job", held_execute)
    monkeypatch.setattr(client_module, "decode_result", counting_decode)
    monkeypatch.setattr(CompileServer, "run_job", counting_run_job)
    outcome = []

    def submit():
        try:
            outcome.append(ServeClient(server.url).compile([slow, *warm]))
        except ServeError as exc:
            outcome.append(exc)

    client_thread = threading.Thread(target=submit)
    client_thread.start()
    assert compiling.wait(timeout=60.0)
    closer = threading.Thread(target=server.close)
    closer.start()
    deadline = time.monotonic() + 60.0
    while not server.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    release.set()
    closer.join(timeout=60.0)
    client_thread.join(timeout=60.0)
    assert not closer.is_alive() and not client_thread.is_alive()
    [error] = outcome
    assert isinstance(error, ServeError)
    assert len(decoded) <= 1
    assert served == [0]
    assert server.stats()["compiles"] == 1 + len(warm)


def test_a_restarted_server_costs_one_reconnect(connections):
    job = rom_job(3)
    first = CompileServer(cache=CompileCache(), workers=1).start()
    port = first.httpd.server_address[1]
    client = ServeClient(first.url)
    try:
        client.compile([job])
    finally:
        first.close()
    with CompileServer(cache=CompileCache(), workers=1, port=port):
        [result] = client.compile_detailed([job])
        assert result.error is None and not result.cache_hit
        assert len(connections) == 2
    # Nothing listens there now: one reconnect, refused, then a
    # ServeError; a fresh client tries exactly once.
    with pytest.raises(ServeError):
        client.compile([job])
    assert len(connections) == 3
    with pytest.raises(ServeError):
        ServeClient(first.url).compile([job])
    assert len(connections) == 4


def test_a_400_after_the_body_was_read_keeps_the_connection(
    monkeypatch, connections
):
    job = rom_job(3)
    with CompileServer(cache=CompileCache(), workers=1) as server:
        client = ServeClient(server.url)
        monkeypatch.setattr(
            client_module,
            "encode_batch",
            lambda jobs: {**encode_batch(jobs), "version": 999},
        )
        with pytest.raises(ServeError, match=r"HTTP 400 \(protocol version"):
            client.compile([job])
        monkeypatch.setattr(client_module, "encode_batch", encode_batch)
        assert job.key in client.compile([job])
        assert client.stats()["bad_requests"] == 1
    assert len(connections) == 1


def raw_exchange(url, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection; everything the server
    sends until it closes the connection."""
    address = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (address.hostname, address.port), timeout=10.0
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_an_http_1_0_client_reads_a_close_delimited_stream():
    jobs = [rom_job(scale) for scale in (3, 5)]
    body = json.dumps(encode_batch(jobs)).encode()
    with CompileServer(cache=CompileCache(), workers=1) as server:
        reply = raw_exchange(
            server.url,
            b"POST /compile HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body),
        )
    head, _, stream = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"chunked" not in head.lower()
    assert [json.loads(line)["id"] for line in stream.splitlines()] == [0, 1]


def test_a_post_to_an_unknown_endpoint_closes_the_connection():
    """Its body is never read, so the connection cannot carry another
    request."""
    with CompileServer(cache=CompileCache(), workers=1) as server:
        reply = raw_exchange(
            server.url,
            b"POST /nowhere HTTP/1.1\r\nHost: x\r\nContent-Length: 25\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n",
        )
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert reply.count(b"HTTP/1.1 ") == 1
