"""The compile server: synthesis-as-a-service over plain HTTP.

PRs 2-5 made every compile a pure function of content hashes
(:func:`~repro.flow.cache.flow_fingerprint`); this server is the
payoff.  A long-running :class:`CompileServer` accepts JSON batches of
:class:`~repro.flow.parallel.CompileJob` envelopes, answers warm
fingerprints straight from a shared :class:`~repro.flow.cache.
CompileCache`, dedupes concurrent identical misses through
:class:`~repro.serve.singleflight.SingleFlight` (N clients submitting
the same fingerprint cost exactly one compile), executes the remainder
on a bounded worker pool, and streams per-job results back as NDJSON
-- each line carrying the fingerprint, cache-hit and dedup flags, and
the server-side wall time.  A batch runs as serial ``compile_many``
runs its misses: one job after another, in submission order, each
line written when its job finishes.

Endpoints (stdlib :mod:`http.server` over HTTP/1.1 keep-alive, one
handler thread per connection)::

    POST /compile    JSON batch in, NDJSON results out (chunked)
    GET  /stats      JSON counters (cache, single-flight, pool)
    GET  /healthz    liveness probe

A client keeps its connection from request to request.  Each request
runs on its connection's handler thread: a cache hit is answered
there, and only a miss takes a slot of the bounded compile pool.  The
NDJSON reply is chunked, one chunk per line, so the connection
outlives the reply; JSON replies carry a ``Content-Length``.  A reply
sent without reading the request body (a bad ``Content-Length``, an
unknown endpoint) closes the connection.

Results are byte-identical to local execution: contexts cross the
wire by the same pickle serialization ``compile_many``'s process pool
uses, and a cold compile runs the exact ``_execute_job`` code path the
pool workers run.

Trust model: the only pickles the server accepts from the network
are the design payloads inside ``POST /compile`` jobs (see
:mod:`repro.serve.protocol`); nothing a client sends is ever written
to the cache as bytes.  Bind to loopback (the default) or a network
whose clients you would let run code on this machine.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.flow.cache import CompileCache
from repro.flow.parallel import (
    CompileJob,
    CompileJobError,
    _execute_job,
    _job_error,
    _job_prefix_fingerprints,
    _plan_waves,
)
from repro.check.spec import check_job
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobResult,
    ProtocolError,
    SpecCheckError,
    decode_batch,
    encode_result,
)
from repro.serve.singleflight import SingleFlight

#: The largest request body the server reads.  The biggest batch a
#: figure driver sends (Fig. 9 at paper scale) is about 170 kB, so this
#: leaves two orders of magnitude of headroom while refusing lengths
#: that would exhaust memory.
MAX_BODY_BYTES = 16 * 1024 * 1024


class CompileServer:
    """A threaded compile service over one shared cache.

    Args:
        cache: the shared :class:`~repro.flow.cache.CompileCache`
            (thread-safe); ``None`` builds a memory-only one.
        workers: bound of the compile pool -- at most this many
            synthesis jobs execute concurrently across *all* requests.
            It bounds compiles only: connections are unbounded and
            cheap, and a warm lookup runs on its connection's handler
            thread without taking a pool slot.
        host: bind address; loopback by default (see the module
            docstring's trust model).
        port: bind port; ``0`` picks an ephemeral free port, read the
            result back from :attr:`url`.
        verbose: log one line per request to stdout.

    Each multi-job ``POST /compile`` batch is planned and run as
    serial ``compile_many`` plans and runs its misses: a job snapshots
    exactly the boundaries whose prefix fingerprint another job of
    the batch shares (:func:`~repro.flow.parallel._plan_waves`), and
    the jobs run one after another in submission order, so a job that
    shares a prefix with an earlier one resumes from the snapshot the
    earlier one left (``prefix_resumes`` in ``/stats``).  Each compile
    is one pool task, so ``workers`` bounds the compiles of concurrent
    requests.  A single-job request writes no snapshot.
    """

    def __init__(
        self,
        cache: CompileCache | None = None,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache if cache is not None else CompileCache()
        self.workers = workers
        self.verbose = verbose
        self.pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="compile"
        )
        self.flights = SingleFlight()
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._counters = {  # guarded-by: _lock
            "requests": 0,
            "jobs": 0,
            "compiles": 0,
            "prefix_resumes": 0,
            "job_errors": 0,
            "spec_rejects": 0,
            "bad_requests": 0,
        }
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.app = self  # the handler reaches the service here
        self._thread: threading.Thread | None = None
        #: "idle" until a serve loop is about to begin ("serving"),
        #: "closed" once close() has begun.
        self._state = "idle"  # guarded-by: _lock
        #: Each open connection's socket, and the handler thread
        #: serving it; close() ends them all.
        # guarded-by: _lock
        self._connections: dict[socket.socket, threading.Thread] = {}

    # -- lifecycle ----------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests (the CLI entry point); returns at
        once on a closed server."""
        with self._lock:
            if self._state == "closed":
                return
            self._state = "serving"
        self.httpd.serve_forever()

    def start(self) -> "CompileServer":
        """Serve on a daemon thread (tests, in-process hosting);
        returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="compile-server", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests, end every open connection, and
        release the pool.

        A handler thread idle on a kept-alive connection is blocked
        reading its next request, and it is a daemon that
        ``server_close`` does not join: close() shuts its socket down
        so it reads the end of the stream and returns, and joins it.
        A batch in progress serves no later job once close() has
        begun; its stream ends short, which the client reports.

        Returns promptly on a server that never served, too: it waits
        for a serve loop only when one has begun or is about to (a
        loop that begins after a shutdown request exits at once), and
        a ``serve_forever`` called after it returns at once.
        """
        with self._lock:
            serving = self._state == "serving"
            self._state = "closed"
            # Under the lock, so no handler closes a socket between
            # this snapshot and its shutdown.
            handlers = list(self._connections.values())
            for sock in self._connections:
                _hang_up(sock)
        if serving:
            self.httpd.shutdown()
        self.httpd.server_close()
        self.pool.shutdown(wait=True)
        for handler in handlers:
            handler.join(timeout=10.0)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    @property
    def closed(self) -> bool:
        """Has close() begun?"""
        with self._lock:
            return self._state == "closed"

    def _connected(self, sock: socket.socket) -> None:
        """Track a new connection for close(); on a closed server, end
        it at once."""
        with self._lock:
            if self._state == "closed":
                _hang_up(sock)
            self._connections[sock] = threading.current_thread()

    def _disconnected(self, sock: socket.socket) -> None:
        with self._lock:
            self._connections.pop(sock, None)

    def __enter__(self) -> "CompileServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accounting ---------------------------------------------------
    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] += delta

    def log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve] {message}", flush=True)

    def stats(self) -> dict:
        """The ``/stats`` payload: server, single-flight, and cache
        counters in one JSON dict."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "inflight": self.flights.inflight(),
            **counters,
            "singleflight": self.flights.stats.to_json(),
            "cache": self.cache.stats(),
        }

    # -- the job path -------------------------------------------------
    def plan(
        self, jobs: "list[CompileJob]"
    ) -> "list[tuple[frozenset, list[str] | None]]":
        """Per job of one batch, ``(snapshot_after, prefix_fps)``: the
        boundaries it snapshots, by
        :func:`~repro.flow.parallel._plan_waves`'s rule as
        ``compile_many`` applies it, and its prefix fingerprints, which
        :meth:`run_job` then does not compute again.  A single job
        shares nothing, and so is not fingerprinted here
        (``prefix_fps`` is ``None``); nor is a job whose pipeline
        cannot be fingerprinted, which shares nothing either
        (:meth:`run_job` reports its error)."""
        if len(jobs) < 2:
            return [(frozenset(), None)] * len(jobs)
        prefix_lists = []
        for job in jobs:
            try:
                prefix_lists.append(_job_prefix_fingerprints(job))
            except CompileJobError:
                prefix_lists.append(None)
        _, forced = _plan_waves([fps or [] for fps in prefix_lists])
        return [(forced[i], fps) for i, fps in enumerate(prefix_lists)]

    def run_job(
        self,
        job: CompileJob,
        index: int,
        snapshot_after: frozenset,
        prefix_fps: "list[str] | None" = None,
    ) -> JobResult:
        """Serve one job: cache, then single-flight, then compile.

        ``snapshot_after`` and ``prefix_fps`` are the job's share of
        its batch's :meth:`plan`: the boundaries it snapshots if it
        compiles, and its prefix fingerprints (``None``: compute them
        here).

        Runs on the calling thread -- a request's handler thread --
        and only a miss's compile is a pool task, so ``workers``
        bounds compiles and never delays a hit.  A hit costs the spec
        check and the prefix specs from the process's spec analysis
        memo, the hashing of the job's inputs, and one
        :meth:`~repro.flow.cache.CompileCache.get`; it carries the
        cache entry's pickle bytes
        (:meth:`~repro.flow.cache.CompileCache.hit_bytes`), so
        :func:`~repro.serve.protocol.encode_result` pickles nothing for
        it.

        Never raises -- failures come back as error results so one bad
        job cannot poison the rest of a streamed batch.  ``job.key``
        is the wire index (set by the protocol decoder), so error
        records cross back re-keyable.
        """
        started = time.perf_counter()

        def done(**kwargs) -> JobResult:
            return JobResult(
                index=index,
                wall_time_s=time.perf_counter() - started,
                **kwargs,
            )

        # Statically wrong jobs are rejected before the pipeline is
        # even resolved: no cache probe, no pool slot, no compile --
        # they count under ``spec_rejects``, not ``compiles``.
        problems = [
            diagnostic
            for diagnostic in check_job(job)
            if diagnostic.severity == "error"
        ]
        if problems:
            self._count("spec_rejects")
            return done(
                fingerprint="", error=SpecCheckError(index, problems)
            )

        if prefix_fps is None:
            try:
                prefix_fps = _job_prefix_fingerprints(job)
            except CompileJobError as exc:
                self._count("job_errors")
                return done(fingerprint="", error=exc)
        fingerprint = prefix_fps[-1]

        ctx = self.cache.get(fingerprint)
        if ctx is not None:
            return done(
                fingerprint=fingerprint,
                ctx=ctx,
                ctx_bytes=self.cache.hit_bytes(fingerprint, ctx),
                cache_hit=True,
            )

        def compute() -> tuple:
            # Re-check under the flight: a previous leader may have
            # published between our miss and winning the election.
            hit = self.cache.get(fingerprint)
            if hit is not None:
                return hit, True, False
            # The compile_many path on the server cache: resume from
            # the deepest stage snapshot (an earlier job's of this
            # batch, or an earlier batch's), publish this job's
            # planned snapshots and its completed entry.
            fresh = _execute_job(job, self.cache, prefix_fps, snapshot_after)
            self._count("compiles")
            resumed = bool(fresh.meta.get("passes_skipped"))
            if resumed:
                self._count("prefix_resumes")
            return fresh, False, resumed

        try:
            # The leader compiles in the pool; a closing server's pool
            # refuses, and the handler then ends the stream short.
            outcome = self.flights.do(
                fingerprint, lambda: self.pool.submit(compute).result()
            )
        except CompileJobError as exc:
            self._count("job_errors")
            return done(fingerprint=fingerprint, error=exc)
        except Exception as exc:  # cache/backend I/O gone wrong
            self._count("job_errors")
            return done(fingerprint=fingerprint, error=_job_error(job, exc))
        ctx, was_cached, _ = outcome.value
        return done(
            fingerprint=fingerprint,
            ctx=ctx,
            ctx_bytes=(
                self.cache.hit_bytes(fingerprint, ctx) if was_cached else None
            ),
            cache_hit=was_cached and not outcome.deduped,
            deduped=outcome.deduped,
        )


def _hang_up(sock: socket.socket) -> None:
    """Shut a connection down both ways; its handler then reads the
    end of the stream, and its writes fail."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the client is already gone


class _Handler(BaseHTTPRequestHandler):
    """Request plumbing; the service logic lives on the app.

    One instance serves one connection, request after request
    (HTTP/1.1 keep-alive).  With keep-alive a reply's head and its
    first chunk are separate small writes; without ``TCP_NODELAY``
    the second could wait for the client's delayed ACK.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # Per-request log lines go through the app's verbosity switch.
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.app.verbose:
            self.app.log(f"{self.address_string()} {format % args}")

    @property
    def app(self) -> CompileServer:
        return self.server.app

    # -- the connection -----------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.app._connected(self.request)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client hung up, or close() ended the connection

    def finish(self) -> None:
        self.app._disconnected(self.request)
        super().finish()

    # -- helpers ------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _bad_request(
        self, message: str, status: int = 400, body_unread: bool = False
    ) -> None:
        """Answer an error as JSON.  ``body_unread``: the request body
        was not read, so its bytes would be parsed as the next request
        -- the reply closes the connection instead."""
        self.app._count("bad_requests")
        if body_unread:
            self.close_connection = True
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` once a missing or malformed
        ``Content-Length`` (400) or an oversized one (413) has been
        answered and the connection closed.  The header is checked
        before any byte is read, so it can neither stall the handler
        nor make it allocate."""
        header = (self.headers.get("Content-Length") or "").strip()
        if not (header.isascii() and header.isdigit()):
            self._bad_request(
                f"bad Content-Length: {header!r}", body_unread=True
            )
            return None
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._bad_request(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                status=413,
                body_unread=True,
            )
            return None
        return self.rfile.read(length)

    # -- routes -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.app._count("requests")
        if self.path == "/healthz":
            self._send_json({"ok": True})
        elif self.path == "/stats":
            self._send_json(self.app.stats())
        else:
            self._bad_request(f"no such endpoint: {self.path}", status=404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.app._count("requests")
        if self.path != "/compile":
            self._bad_request(
                f"no such endpoint: {self.path}", status=404, body_unread=True
            )
            return
        body = self._read_body()
        if body is None:
            return
        try:
            jobs = decode_batch(json.loads(body))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._bad_request(f"request body is not JSON: {exc}")
            return
        except ProtocolError as exc:
            self._bad_request(str(exc))
            return
        self.app._count("jobs", len(jobs))
        # An HTTP/1.0 client cannot read chunks: its lines form a body
        # delimited by closing the connection.
        chunked = self.request_version != "HTTP/1.0"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
            self.send_header("Connection", "close")
        self.end_headers()
        # One job at a time, in submission order, so a job resumes
        # from the snapshots of the earlier jobs it shares a prefix
        # with.  Each NDJSON line is one chunk, written when its job
        # finishes, the terminal chunk with the last line.
        plan = self.app.plan(jobs)
        writing = True
        for i, job in enumerate(jobs):
            result = self.app.run_job(job, i, *plan[i])
            if self.app.closed:
                # close() has begun: no later job is served, and the
                # stream ends short, which the client reports.
                self.close_connection = True
                return
            if not writing:
                continue
            line = json.dumps(encode_result(result)).encode("utf-8") + b"\n"
            if chunked:
                end = b"0\r\n\r\n" if i == len(jobs) - 1 else b""
                line = b"%X\r\n%s\r\n%s" % (len(line), line, end)
            writing = self._write(line)
        if chunked and not jobs:
            self._write(b"0\r\n\r\n")

    def _write(self, data: bytes) -> bool:
        """Send reply bytes; False once the client has hung up, which
        closes the connection after this request.  The remaining jobs
        of its batch still compile and warm the cache for whoever asks
        next."""
        try:
            self.wfile.write(data)
            return True
        except ConnectionError:
            self.close_connection = True
            return False
