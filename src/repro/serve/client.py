"""The compile server's client: batch submission over HTTP.

:class:`ServeClient` is what :func:`repro.flow.parallel.compile_many`
targets when given ``server=``: jobs are encoded through
:mod:`repro.serve.protocol`, POSTed as one batch, and the NDJSON
response stream is reassembled into completed
:class:`~repro.flow.core.FlowContext` objects in submission order --
byte-identical to local execution, because contexts cross the wire by
the same pickle serialization the local process pool uses.

Failure semantics mirror ``compile_many`` exactly: the earliest
failing job in submission order raises a re-keyed
:class:`~repro.flow.parallel.CompileJobError` (pass records and all),
so swapping ``--server`` in and out never changes error behaviour.
Transport problems (server down, protocol mismatch, truncated stream)
raise :class:`ServeError` instead -- a network failure must never
masquerade as a compile failure.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Sequence

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


class ServeError(FlowError):
    """A transport or protocol failure talking to a compile server
    (distinct from a job that *compiled* and failed, which raises
    :class:`~repro.flow.parallel.CompileJobError`)."""


class ServeClient:
    """A client of one compile server.

    Args:
        url: the server base URL (``http://127.0.0.1:8731``).
        timeout: socket timeout per request, seconds.
    """

    def __init__(self, url: str, timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServeClient {self.url}>"

    # -- plumbing -----------------------------------------------------
    def _get_json(self, path: str) -> dict:
        try:
            with urllib.request.urlopen(
                f"{self.url}{path}", timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except (OSError, urllib.error.URLError, json.JSONDecodeError) as exc:
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
        request = urllib.request.Request(
            f"{self.url}/compile",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        results: dict[int, JobResult] = {}
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                for raw in response:
                    line = raw.strip()
                    if not line:
                        continue
                    result = decode_result(json.loads(line))
                    results[result.index] = result
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get(
                    "error", ""
                )
            except Exception:
                pass
            raise ServeError(
                f"POST /compile against {self.url}: HTTP {exc.code}"
                + (f" ({detail})" if detail else "")
            ) from exc
        except (OSError, urllib.error.URLError) as exc:
            raise ServeError(
                f"POST /compile against {self.url}: {exc}"
            ) from exc
        except (json.JSONDecodeError, ProtocolError) as exc:
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
