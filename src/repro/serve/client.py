"""The compile server's client: batch submission over HTTP/1.1.

:class:`ServeClient` is what :func:`repro.flow.parallel.compile_many`
targets when given ``server=``: jobs are encoded through
:mod:`repro.serve.protocol`, POSTed as one batch, and the NDJSON
response stream is reassembled into completed
:class:`~repro.flow.core.FlowContext` objects in submission order --
byte-identical to local execution, because contexts cross the wire by
the same pickle serialization the local process pool uses.

Each thread keeps one connection to the server and reuses it from
request to request (HTTP/1.1 keep-alive).  A request goes out in one
write, head and body together, and its reply is read through one
64 KiB buffer by a small reader that frames exactly the replies a
:class:`~repro.serve.server.CompileServer` sends: a status line,
headers, then a ``Content-Length`` or chunked body.

Failure semantics mirror ``compile_many`` exactly: the earliest
failing job in submission order raises a re-keyed
:class:`~repro.flow.parallel.CompileJobError` (pass records and all),
so swapping ``--server`` in and out never changes error behaviour.
Transport problems (server down, protocol mismatch, truncated stream)
raise :class:`ServeError` instead -- a network failure must never
masquerade as a compile failure.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import weakref
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.flow.core import FlowError
from repro.flow.parallel import CompileJob, CompileJobError
from repro.serve.protocol import (
    JobResult,
    ProtocolError,
    SpecCheckError,
    decode_result,
    encode_batch,
)

if TYPE_CHECKING:
    from repro.flow.core import FlowContext

#: Compiles are slow; transport reads must outlive the slowest job of
#: a batch, not a socket round-trip.
DEFAULT_TIMEOUT_S = 600.0

#: The reply reader's buffer: a warm hit's NDJSON line (a medium
#: techsweep context is about 35 kB) arrives in one read.
READ_BUFFER_BYTES = 64 * 1024

#: The longest status, header or chunk-size line the reader accepts.
_MAX_LINE = 64 * 1024


class ServeError(FlowError):
    """A transport or protocol failure talking to a compile server
    (distinct from a job that *compiled* and failed, which raises
    :class:`~repro.flow.parallel.CompileJobError`)."""


class _Connection:
    """One kept-alive connection: its socket and its reply reader.
    Closed by ``close()``, or once nothing holds it -- its thread
    ended, or its client was dropped."""

    def __init__(self, address: tuple, timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        try:
            # A request is one write; send it without waiting on Nagle.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb", READ_BUFFER_BYTES)
        except OSError:
            self.sock.close()
            raise
        self.close = weakref.finalize(self, _close, self.reader, self.sock)

    def send(self, request: bytes) -> bool:
        """Send one request; did any byte of a reply come back?"""
        self.sock.sendall(request)
        return bool(self.reader.peek(1))


def _close(reader, sock: socket.socket) -> None:
    reader.close()
    sock.close()


def _read_head(reader) -> "tuple[int, dict[str, str]]":
    """A reply's status code and headers (names lower-cased).

    Raises:
        ValueError: a malformed or cut-short head.
    """
    status_line = reader.readline(_MAX_LINE)
    version, _, rest = status_line.partition(b" ")
    code = rest[:3]
    if not version.startswith(b"HTTP/1.") or not code.isdigit():
        raise ValueError(f"malformed status line {status_line[:80]!r}")
    headers = {}
    while True:
        line = reader.readline(_MAX_LINE)
        if line in (b"\r\n", b"\n"):
            return int(code), headers
        name, colon, value = line.partition(b":")
        if not colon:
            raise ValueError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1")
        )


def _read_body(reader, headers: "dict[str, str]"):
    """Yield the pieces of a reply body: one per chunk of a chunked
    body, the whole of a ``Content-Length`` one.  Returns whether the
    body was read to its end; False means the connection closed first
    (a stream cut short).

    Raises:
        ValueError: a malformed body, or a reply with neither framing.
    """
    if headers.get("transfer-encoding", "").lower() == "chunked":
        while True:
            size_line = reader.readline(_MAX_LINE)
            if not size_line:
                return False
            size = int(size_line.split(b";", 1)[0], 16)
            if size == 0:
                break
            data = reader.read(size)
            if len(data) < size:
                return False
            yield data
            if reader.readline(_MAX_LINE) not in (b"\r\n", b"\n"):
                return False
        # The trailer section, ended by an empty line.
        while (line := reader.readline(_MAX_LINE)) not in (b"\r\n", b"\n"):
            if not line:
                return False
        return True
    length = headers.get("content-length", "")
    if not length.isdigit():
        raise ValueError(f"reply has no chunks and Content-Length {length!r}")
    data = reader.read(int(length))
    yield data
    return len(data) == int(length)


class ServeClient:
    """A client of one compile server.

    Each thread that uses a client keeps one connection to the server
    and sends all its requests over it, so one client may be shared by
    many threads.  A reused connection that fails before any reply
    byte arrives (the server closed it, or restarted) is reconnected
    once and the request resent -- safe for ``POST /compile``, whose
    resend the content-addressed cache answers or dedups.  A fresh
    connection that fails raises :class:`ServeError` at once.

    Args:
        url: the server base URL (``http://127.0.0.1:8731``).
        timeout: socket timeout per request, seconds.
    """

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        scheme, _, rest = self.url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(f"not an http:// URL: {url!r}")
        netloc, slash, path = rest.partition("/")
        host, colon, port = netloc.rpartition(":")
        if not (colon and port.isdigit()):
            host, port = netloc, "80"
        self._host = netloc
        self._address = (host.strip("[]"), int(port))
        self._path = slash + path  # a path prefix the server sits under
        self._local = threading.local()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServeClient {self.url}>"

    # -- plumbing -----------------------------------------------------
    def _send(self, request: bytes) -> _Connection:
        """This thread's connection with ``request`` sent and the first
        byte of its reply waiting.

        Raises:
            OSError: the request could not be delivered, or no reply
                came back on a fresh connection.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                if conn.send(request):
                    return conn
            except TimeoutError:
                # A slow server, not a closed connection: no resend.
                self._drop(conn)
                raise
            except OSError:
                pass
            # The server closed the kept-alive connection before
            # answering (it restarted, say): reconnect once.
            self._drop(conn)
        conn = self._local.conn = _Connection(self._address, self.timeout)
        try:
            if conn.send(request):
                return conn
            raise ConnectionError("connection closed without a reply")
        except OSError:
            self._drop(conn)
            raise

    def _drop(self, conn: _Connection) -> None:
        if getattr(self._local, "conn", None) is conn:
            del self._local.conn
        conn.close()

    def _exchange(self, method: str, path: str, body: bytes = b""):
        """One round trip on this thread's connection: yield the reply's
        status, then each piece of its body.  The connection is kept
        for the next request only once the whole reply has been read
        and the server did not ask to close it."""
        head = f"{method} {self._path}{path} HTTP/1.1\r\n"
        head += f"Host: {self._host}\r\n"
        if method == "POST":
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        conn = self._send((head + "\r\n").encode("latin-1") + body)
        kept = False
        try:
            status, headers = _read_head(conn.reader)
            yield status
            complete = yield from _read_body(conn.reader, headers)
            closing = headers.get("connection", "").lower() == "close"
            kept = complete and not closing
        finally:
            if not kept:
                self._drop(conn)

    def _get_json(self, path: str) -> dict:
        try:
            with contextlib.closing(self._exchange("GET", path)) as reply:
                status = next(reply)
                body = b"".join(reply)
            if status != 200:
                raise ValueError(f"HTTP {status}{_error_detail(body)}")
            return json.loads(body.decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise ServeError(f"GET {path} against {self.url}: {exc}") from exc

    def stats(self) -> dict:
        """The server's ``/stats`` counters."""
        return self._get_json("/stats")

    def healthy(self) -> bool:
        """Liveness: does ``/healthz`` answer?"""
        try:
            return bool(self._get_json("/healthz").get("ok"))
        except ServeError:
            return False

    # -- compiling ----------------------------------------------------
    def compile_detailed(
        self, jobs: Sequence[CompileJob]
    ) -> list[JobResult]:
        """Submit one batch; per-job outcomes in submission order.

        This is the instrumented surface perfbench's serve-warm
        workload reads: each :class:`~repro.serve.protocol.JobResult`
        carries the fingerprint, cache-hit/dedup flags and server wall
        time, and job *failures* come back as results
        (``result.error``) rather than raising, so a benchmark can
        count errors without dying.

        Raises:
            ServeError: transport failure, non-200 response, protocol
                mismatch, or a stream missing results.
            FlowError: a job whose pipeline cannot be encoded.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        body = json.dumps(encode_batch(jobs)).encode("utf-8")
        results: dict[int, JobResult] = {}
        try:
            with contextlib.closing(
                self._exchange("POST", "/compile", body)
            ) as reply:
                status = next(reply)
                if status != 200:
                    raise ServeError(
                        f"POST /compile against {self.url}: HTTP {status}"
                        + _error_detail(b"".join(reply))
                    )
                for line in _lines(reply):
                    result = decode_result(json.loads(line))
                    results[result.index] = result
        except OSError as exc:
            raise ServeError(
                f"POST /compile against {self.url}: {exc}"
            ) from exc
        except (ValueError, ProtocolError) as exc:
            raise ServeError(
                f"undecodable response from {self.url}: {exc}"
            ) from exc
        missing = [i for i in range(len(jobs)) if i not in results]
        if missing:
            shown = ", ".join(str(i) for i in missing[:5])
            if len(missing) > 5:
                shown += ", ..."
            raise ServeError(
                f"{self.url} returned {len(results)} of {len(jobs)} "
                f"results (missing wire ids {shown})"
            )
        return [results[i] for i in range(len(jobs))]

    def compile(
        self, jobs: Sequence[CompileJob]
    ) -> "dict[object, FlowContext]":
        """Submit one batch; ``{job.key: completed context}`` in
        submission order, exactly like a local ``compile_many``.

        Raises:
            ServeError: transport/protocol failure.
            SpecCheckError: the server's static spec check rejected a
                job before compiling anything; ``.diagnostics`` carries
                the findings.
            CompileJobError: a job failed; the earliest in submission
                order raises, re-keyed from the wire index back to the
                job's real key.
        """
        jobs = list(jobs)
        detailed = self.compile_detailed(jobs)
        for job, result in zip(jobs, detailed):
            if result.error is None:
                continue
            if isinstance(result.error, SpecCheckError):
                raise SpecCheckError(
                    job.key, result.error.diagnostics, result.error.records
                )
            raise CompileJobError(
                job.key, result.error.error, result.error.records
            )
        return {
            job.key: result.ctx for job, result in zip(jobs, detailed)
        }


def _lines(pieces: "Iterator[bytes]") -> "Iterator[bytes]":
    """The non-empty NDJSON lines of a body's pieces, wherever the
    pieces split them.  A last line with no newline was cut short, and
    is dropped."""
    tail = b""
    for piece in pieces:
        *lines, tail = (tail + piece).split(b"\n")
        for line in lines:
            line = line.strip()
            if line:
                yield line


def _error_detail(body: bytes) -> str:
    """`` (message)`` from an error reply's JSON body, if it has one."""
    try:
        detail = json.loads(body.decode("utf-8")).get("error", "")
    except (ValueError, AttributeError):  # not JSON, or not an object
        detail = ""
    return f" ({detail})" if detail else ""
