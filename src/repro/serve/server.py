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
in completion order -- each line carrying the fingerprint, cache-hit
and dedup flags, and the server-side wall time.

Endpoints (stdlib :mod:`http.server`, one thread per connection,
compiles bounded by the pool)::

    POST /compile    JSON batch in, NDJSON results out
    GET  /stats      JSON counters (cache, single-flight, pool)
    GET  /healthz    liveness probe

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.flow.cache import CompileCache, resolve_snapshot_policy
from repro.flow.parallel import (
    CompileJob,
    CompileJobError,
    _execute_job,
    _job_fingerprint,
    _job_prefix_fingerprints,
    _resolve_pipeline,
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
            synthesis jobs execute concurrently across *all* requests
            (connections themselves are unbounded and cheap; warm
            lookups never occupy a pool slot for long).
        host: bind address; loopback by default (see the module
            docstring's trust model).
        port: bind port; ``0`` picks an ephemeral free port, read the
            result back from :attr:`url`.
        verbose: log one line per request to stdout.
        snapshots: the stage-snapshot policy
            (:func:`~repro.flow.cache.resolve_snapshot_policy` --
            ``None`` reads the environment, ``False`` disables).  With
            snapshots on, concurrent jobs sharing a pipeline prefix
            dedup through prefix flight keys: one leader compiles the
            prefix, the others resume from its snapshots
            (``prefix_resumes`` in ``/stats``).
    """

    def __init__(
        self,
        cache: CompileCache | None = None,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        snapshots=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache if cache is not None else CompileCache()
        self.workers = workers
        self.verbose = verbose
        self.snapshot_policy = resolve_snapshot_policy(snapshots)
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

    # -- lifecycle ----------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests (the CLI entry point)."""
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
        """Stop accepting requests and release the pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.pool.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

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
    def run_job(self, job: CompileJob, index: int) -> JobResult:
        """Serve one job: cache, then single-flight, then compile.

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

        try:
            pipeline = _resolve_pipeline(job.pipeline)
            policy = self.snapshot_policy
            if policy.enabled and len(pipeline.passes) > 1:
                prefix_fps = _job_prefix_fingerprints(job, pipeline)
                fingerprint = prefix_fps[-1]
            else:
                prefix_fps = []
                fingerprint = _job_fingerprint(job, pipeline)
        except Exception as exc:
            self._count("job_errors")
            return done(
                fingerprint="",
                error=CompileJobError(
                    index, f"{type(exc).__name__}: {exc}"
                ),
            )

        ctx = self.cache.get(fingerprint)
        if ctx is not None:
            return done(fingerprint=fingerprint, ctx=ctx, cache_hit=True)

        def compute() -> tuple:
            # Re-check under the flight: a previous leader may have
            # published between our miss and winning the election.
            hit = self.cache.get(fingerprint)
            if hit is not None:
                return hit, True, False
            self.cache.inflight_begin()
            try:
                # Sharing the server cache makes the run resumable:
                # the deepest stage snapshot (a prefix leader's, or a
                # previous run's) is restored, and this run's own
                # snapshots and completed entry publish through it.
                fresh = _execute_job(
                    job, cache=self.cache, fingerprint=fingerprint,
                    snapshots=policy,
                )
            finally:
                self.cache.inflight_end()
            self._count("compiles")
            resumed = bool(fresh.meta.get("passes_skipped"))
            if resumed:
                self._count("prefix_resumes")
            return fresh, False, resumed

        try:
            outcome = self.flights.do(
                fingerprint, compute, prefix_keys=tuple(prefix_fps[:-1])
            )
        except CompileJobError as exc:
            self._count("job_errors")
            return done(fingerprint=fingerprint, error=exc)
        except Exception as exc:  # cache/backend I/O gone wrong
            self._count("job_errors")
            return done(
                fingerprint=fingerprint,
                error=CompileJobError(
                    index, f"{type(exc).__name__}: {exc}"
                ),
            )
        ctx, was_cached, _ = outcome.value
        if outcome.deduped:
            return done(fingerprint=fingerprint, ctx=ctx, deduped=True)
        return done(fingerprint=fingerprint, ctx=ctx, cache_hit=was_cached)


class _Handler(BaseHTTPRequestHandler):
    """Request plumbing; the service logic lives on the app."""

    # Per-request log lines go through the app's verbosity switch.
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        self.app.log(f"{self.address_string()} {format % args}")

    @property
    def app(self) -> CompileServer:
        return self.server.app

    # -- helpers ------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _bad_request(self, message: str, status: int = 400) -> None:
        self.app._count("bad_requests")
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` once a missing or malformed
        ``Content-Length`` (400) or an oversized one (413) has been
        answered.  The header is checked before any byte is read, so
        it can neither stall the handler nor make it allocate."""
        header = (self.headers.get("Content-Length") or "").strip()
        if not (header.isascii() and header.isdigit()):
            self._bad_request(f"bad Content-Length: {header!r}")
            return None
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._bad_request(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                status=413,
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
            self._bad_request(f"no such endpoint: {self.path}", status=404)
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
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        # One NDJSON line per job in *completion* order; the ids let
        # the client reassemble.  HTTP/1.0 close-delimits the body, so
        # lines stream to the client as they flush.
        futures = {
            self.app.pool.submit(self.app.run_job, job, i): i
            for i, job in enumerate(jobs)
        }
        for future in as_completed(futures):
            line = json.dumps(encode_result(future.result()))
            try:
                self.wfile.write(line.encode("utf-8") + b"\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up mid-stream; remaining jobs still
                # finish and warm the cache for whoever asks next.
                break
