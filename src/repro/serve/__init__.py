"""``repro.serve`` -- synthesis-as-a-service over the flow cache.

The fingerprint machinery of :mod:`repro.flow` makes every compile a
pure function of content hashes; this package turns that into shared
infrastructure::

    python -m repro.serve --port 8731 --cache-dir .repro-cache

starts a long-running compile server: CI, developers, and many
concurrent clients submit :class:`~repro.flow.parallel.CompileJob`
batches over HTTP and share one warm cache.  Concurrent identical
jobs are deduped in flight (single-flight: N submitters, one
compile), results stream back per job with cache-hit flags and wall
times, and ``/stats`` exposes the whole service's counters as JSON.

Client side, any ``compile_many`` call can target a server::

    compile_many(jobs, cache=local_cache, server="http://ci-cache:8731")

(the local cache answers repeats without touching the network), and
every figure driver accepts ``--server URL``.  The server's only
network inputs are those job batches: it answers ``POST /compile``,
``GET /stats`` and ``GET /healthz`` and nothing else.

Measure it with the traffic-replay benchmark::

    python -m repro.expts replay --clients 4 --jobs-per-client 8

(N client threads x M sampled jobs, cold then warm; p50/p99 latency
and cache-hit rate land in the run store for ``repro.track diff``).
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobResult,
    ProtocolError,
    SpecCheckError,
)
from repro.serve.server import CompileServer
from repro.serve.singleflight import FlightOutcome, SingleFlight

__all__ = [
    "CompileServer",
    "FlightOutcome",
    "JobResult",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "SingleFlight",
    "SpecCheckError",
]
