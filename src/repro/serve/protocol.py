"""The compile server's wire format: jobs and results as JSON lines.

A batch request is one JSON object ``{"jobs": [...]}``; each job is a
JSON envelope whose readable fields (pipeline spec, bindings) mirror
:class:`~repro.flow.parallel.CompileJob`, while the design inputs
themselves (controller IR / RTL module / annotations) ride as one
base64-encoded pickle blob -- the same serialization
:func:`~repro.flow.parallel.compile_many` already trusts across its
process pool, wrapped so the envelope stays a valid JSON document.

Jobs are keyed *positionally* on the wire (``id`` = index in the
batch): a client's real job keys can be arbitrary hashables (the
figure drivers use tuples), which JSON cannot carry faithfully, so
the client keeps the key mapping and the server echoes indices.

The response is NDJSON: one JSON object per job, in submission order
(the server runs a batch's jobs one after another and writes each
line as its job finishes), each carrying the fingerprint, a cache-hit
flag, a single-flight dedup flag, the server-side wall time, and
either the completed context (base64 pickle -- byte-identical to what
a local compile would produce) or the error.  A hit's ``ctx`` is the
base64 of the server cache entry's own pickle bytes
(:meth:`~repro.flow.cache.CompileCache.hit_bytes`): a warm server
pickles each entry at most once, however often it is served.

Over HTTP/1.1 each line is one chunk of a chunked body, so the
connection carries the client's next request once the terminal chunk
is read.  The framing is HTTP's, not the wire format's: it leaves
every field as it is.

Trust model: pickles execute what their bytes describe.  The server
deserializes job payloads and the client deserializes result
contexts, so both ends must trust each other exactly as much as the
on-disk cache trusts its writers (see :mod:`repro.flow.cache`); bind
the server to loopback or a network you control.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.check.diagnostics import Diagnostic
from repro.flow.cache import UNPICKLE_ERRORS
from repro.flow.core import FlowError
from repro.flow.manager import prefix_specs_of
from repro.flow.parallel import CompileJob, CompileJobError

if TYPE_CHECKING:
    from repro.flow.core import FlowContext

#: Bump on incompatible wire changes; both ends send it and refuse
#: mismatches loudly instead of mis-decoding each other.
#: Version 2: the job envelope lost its ``seed`` and ``library`` fields
#: and the payload its ``library`` and ``aig``; a version-1 client
#: choosing a library or seed is refused, never served the default.
PROTOCOL_VERSION = 2


class ProtocolError(FlowError):
    """A malformed or version-incompatible wire message."""


class SpecCheckError(CompileJobError):
    """A job the static spec check rejected before any compile ran.

    Distinct from a runtime :class:`CompileJobError`: the server never
    resolved the pipeline, never touched the cache, and never consumed
    a compile -- the job was *statically* wrong for its inputs.
    Carries the full :class:`~repro.check.diagnostics.Diagnostic` list
    so the client can render codes and suggestions, not just a string.
    """

    def __init__(self, key, diagnostics, records=()) -> None:
        self.diagnostics = list(diagnostics)
        shown = "; ".join(str(d) for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            shown += f" (+{len(self.diagnostics) - 3} more)"
        super().__init__(key, f"rejected by spec check: {shown}", records)

    def __reduce__(self):
        return (SpecCheckError, (self.key, self.diagnostics, self.records))


def _b64(obj) -> str:
    return _b64_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _b64_bytes(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text: str):
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except (ValueError, *UNPICKLE_ERRORS) as exc:
        raise ProtocolError(f"undecodable payload: {exc}") from exc


def encode_job(job: CompileJob, index: int) -> dict:
    """One job as a JSON-safe envelope (see the module docstring).

    The pipeline travels as its *canonical spec string* -- the same
    form the fingerprint hashes -- rendered once per process for each
    spec (:func:`~repro.flow.manager.prefix_specs_of`).

    Args:
        job: the compile job; ``job.key`` stays client-side.
        index: the job's position in the batch (the wire ``id``).

    Raises:
        FlowError: an unparseable spec.
    """
    return {
        "id": index,
        "pipeline": prefix_specs_of(job.pipeline)[-1],
        "bindings": job.bindings,
        "payload": _b64(
            {
                "ctrl": job.ctrl,
                "module": job.module,
                "annotations": tuple(job.annotations),
            }
        ),
    }


def decode_job(data: dict) -> tuple[int, CompileJob]:
    """Rebuild a (wire id, job) pair from :func:`encode_job` output.

    The rebuilt job's ``key`` is the wire id; the caller re-maps it to
    the client's real key.

    Raises:
        ProtocolError: missing fields, or a payload that does not
            decode to a dict.
    """
    try:
        index = int(data["id"])
        payload = _unb64(data["payload"])
        if not isinstance(payload, dict):
            raise TypeError(
                f"payload is a {type(payload).__name__}, not a dict"
            )
        return index, CompileJob(
            key=index,
            pipeline=str(data["pipeline"]),
            ctrl=payload.get("ctrl"),
            module=payload.get("module"),
            annotations=tuple(payload.get("annotations", ())),
            bindings=data.get("bindings"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed job envelope: {exc}") from exc


def encode_batch(jobs: list[CompileJob]) -> dict:
    """The request body for one ``POST /compile``."""
    return {
        "version": PROTOCOL_VERSION,
        "jobs": [encode_job(job, i) for i, job in enumerate(jobs)],
    }


def decode_batch(data: dict) -> list[CompileJob]:
    """Rebuild the jobs of one request body, in wire-id order.

    Raises:
        ProtocolError: version mismatch, duplicate or non-contiguous
            wire ids, or a malformed job.
    """
    if not isinstance(data, dict):
        raise ProtocolError("request body must be a JSON object")
    version = data.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} != {PROTOCOL_VERSION} "
            f"(client and server checkouts disagree)"
        )
    raw = data.get("jobs")
    if not isinstance(raw, list):
        raise ProtocolError("request body carries no job list")
    decoded = dict(decode_job(item) for item in raw)
    if sorted(decoded) != list(range(len(raw))):
        raise ProtocolError("job ids must be the batch indices 0..N-1")
    return [decoded[i] for i in range(len(raw))]


@dataclass(frozen=True)
class JobResult:
    """One job's outcome as both ends see it.

    Exactly one of ``ctx``/``error`` is set.  ``cache_hit`` means the
    server answered from its cache (memory or backend); ``deduped``
    means this job rode another in-flight identical compile
    (single-flight) instead of executing; ``wall_time_s`` is the
    server-side handling time of this job.  ``ctx_bytes`` is set only
    server-side, for a context the cache already holds: its pickle
    bytes, which :func:`encode_result` sends instead of pickling
    ``ctx`` again.  A decoded result never carries it.
    """

    index: int
    fingerprint: str
    ctx: "FlowContext | None" = None
    error: CompileJobError | None = None
    cache_hit: bool = False
    deduped: bool = False
    wall_time_s: float = 0.0
    ctx_bytes: "bytes | None" = None


def encode_result(result: JobResult) -> dict:
    """One NDJSON response line.  Its ``ctx`` is the base64 of
    ``result.ctx_bytes`` when set (a hit: the cache's bytes, nothing
    pickled here), else of a fresh pickle of ``result.ctx``."""
    line = {
        "id": result.index,
        "fingerprint": result.fingerprint,
        "cache_hit": result.cache_hit,
        "deduped": result.deduped,
        "wall_time_s": result.wall_time_s,
    }
    if result.error is not None:
        error_line = {
            "message": str(result.error),
            "payload": _b64(result.error),
        }
        if isinstance(result.error, SpecCheckError):
            # Diagnostics also travel as plain JSON so a client can
            # render codes and suggestions without unpickling anything.
            error_line["kind"] = "spec_check"
            error_line["diagnostics"] = [
                diagnostic.to_json()
                for diagnostic in result.error.diagnostics
            ]
        line["error"] = error_line
    elif result.ctx_bytes is not None:
        line["ctx"] = _b64_bytes(result.ctx_bytes)
    else:
        line["ctx"] = _b64(result.ctx)
    return line


def decode_result(line: dict) -> JobResult:
    """Rebuild a :class:`JobResult` from one response line.

    A result whose error payload does not unpickle client-side (e.g.
    the server saw an exception type this checkout lacks) degrades to
    a generic :class:`CompileJobError` carrying the server's rendered
    message instead of failing the decode.

    Raises:
        ProtocolError: missing fields or an undecodable context.
    """
    try:
        index = int(line["id"])
        fingerprint = str(line["fingerprint"])
        error_data = line.get("error")
        if error_data is not None:
            try:
                error = _unb64(error_data["payload"])
            except ProtocolError:
                error = None
            if not isinstance(error, CompileJobError):
                if error_data.get("kind") == "spec_check":
                    error = SpecCheckError(
                        index,
                        [
                            Diagnostic.from_json(item)
                            for item in error_data.get("diagnostics", [])
                        ],
                    )
                else:
                    error = CompileJobError(
                        index,
                        str(error_data.get("message", "remote failure")),
                    )
            return JobResult(
                index=index,
                fingerprint=fingerprint,
                error=error,
                cache_hit=bool(line.get("cache_hit", False)),
                deduped=bool(line.get("deduped", False)),
                wall_time_s=float(line.get("wall_time_s", 0.0)),
            )
        return JobResult(
            index=index,
            fingerprint=fingerprint,
            ctx=_unb64(line["ctx"]),
            cache_hit=bool(line.get("cache_hit", False)),
            deduped=bool(line.get("deduped", False)),
            wall_time_s=float(line.get("wall_time_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed result line: {exc}") from exc
