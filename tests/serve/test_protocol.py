"""The wire format: job/batch/result round-trips and rejection."""

import pytest

from repro.flow import CompileJob, CompileJobError, PassManager
from repro.flow.core import PassRecord
from repro.serve import PROTOCOL_VERSION, ProtocolError
from repro.serve.protocol import (
    JobResult,
    decode_batch,
    decode_job,
    decode_result,
    encode_batch,
    encode_job,
    encode_result,
)
from repro.rtl.builder import ModuleBuilder
from repro.synth.dc_options import StateAnnotation


def build_module(scale=3):
    b = ModuleBuilder("m")
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def sample_job(key=("design", "recipe")):
    return CompileJob(
        key,
        "elaborate,optimize,map{library=generic45ish},size",
        module=build_module(),
        annotations=(StateAnnotation("state", (0, 1)),),
        bindings={"cfg": [1, 2, 3]},
    )


def test_job_round_trip_preserves_everything_but_the_key():
    job = sample_job()
    index, back = decode_job(encode_job(job, 7))
    assert index == 7
    assert back.key == 7  # wire jobs are keyed positionally
    assert back.pipeline == PassManager.parse(job.pipeline).spec()
    assert back.ctrl is None
    assert back.module.canonical_hash() == job.module.canonical_hash()
    assert back.annotations == job.annotations
    assert back.bindings == job.bindings


def test_envelope_is_json_safe_and_readable():
    import json

    envelope = encode_job(sample_job(), 0)
    json.dumps(envelope)  # no bytes, no objects
    assert sorted(envelope) == ["bindings", "id", "payload", "pipeline"]
    # The library travels where it is chosen: in the spec.
    assert envelope["pipeline"] == (
        "elaborate,optimize,map{library=generic45ish},size"
    )
    assert envelope["bindings"] == {"cfg": [1, 2, 3]}


def test_specs_travel_in_canonical_form():
    job = CompileJob(
        0,
        "elaborate, optimize,map,size{clock_period_ns=2.0}",
        module=build_module(),
    )
    envelope = encode_job(job, 0)
    assert envelope["pipeline"] == (
        "elaborate,optimize,map,size{clock_period_ns=2.0}"
    )


def test_batch_round_trip_and_validation():
    jobs = [sample_job(key=i) for i in range(3)]
    batch = encode_batch(jobs)
    assert batch["version"] == PROTOCOL_VERSION
    assert [j.key for j in decode_batch(batch)] == [0, 1, 2]

    with pytest.raises(ProtocolError, match="version"):
        decode_batch({**batch, "version": PROTOCOL_VERSION + 1})
    with pytest.raises(ProtocolError, match="no job list"):
        decode_batch({"version": PROTOCOL_VERSION})
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_batch([1, 2])
    shuffled = {
        "version": PROTOCOL_VERSION,
        "jobs": [{**batch["jobs"][0], "id": 5}],
    }
    with pytest.raises(ProtocolError, match="batch indices"):
        decode_batch(shuffled)


def test_version_1_clients_are_refused():
    """A version-1 client may send a ``library`` or ``seed``; it is
    refused, never compiled with the default library and seed."""
    envelope = {**encode_job(sample_job(), 0), "seed": 13, "library": None}
    with pytest.raises(ProtocolError, match=r"protocol version 1 != 2"):
        decode_batch({"version": 1, "jobs": [envelope]})


def test_malformed_job_and_payload_rejected():
    with pytest.raises(ProtocolError, match="malformed job envelope"):
        decode_job({"id": 0})  # no payload
    envelope = encode_job(sample_job(), 0)
    with pytest.raises(ProtocolError, match="undecodable payload"):
        decode_job({**envelope, "payload": "bm90IGEgcGlja2xl"})


def test_error_results_round_trip_with_records():
    record = PassRecord(
        name="explode", stage="aig", wall_time_s=0.0,
        before=None, after=None, failed=True,
    )
    error = CompileJobError(4, "RuntimeError: boom", [record])
    line = encode_result(JobResult(index=4, fingerprint="f" * 64, error=error))
    back = decode_result(line)
    assert back.index == 4 and back.ctx is None
    assert back.error.error == "RuntimeError: boom"
    assert back.error.records[0].name == "explode"
    assert back.error.records[0].failed


def test_undecodable_error_payload_degrades_to_generic_error():
    error = CompileJobError(0, "boom")
    line = encode_result(JobResult(index=0, fingerprint="", error=error))
    line["error"]["payload"] = "bm90IGEgcGlja2xl"  # b"not a pickle"
    back = decode_result(line)
    assert isinstance(back.error, CompileJobError)
    assert "boom" in str(back.error)  # the rendered message survived


def test_malformed_result_line_rejected():
    with pytest.raises(ProtocolError, match="malformed result line"):
        decode_result({"fingerprint": "x"})  # no id
