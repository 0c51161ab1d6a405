"""Warm hits: the server answers a cache hit with the cache entry's own
pickle bytes, pickling each entry at most once, and does only the
request-dependent work per hit."""

import base64
import json
import pickle
import urllib.request

import pytest

from repro.flow import CompileCache, CompileJob, PassManager, compile_many
from repro.flow.cache import flow_fingerprint
from repro.rtl.builder import ModuleBuilder
import repro.serve.server as server_module
from repro.serve import CompileServer, ServeClient
from repro.serve.protocol import encode_batch, encode_result

SPEC = "elaborate,optimize,map,size"


def build_rom_module(scale=3):
    b = ModuleBuilder("m")
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def rom_job(scale=3):
    return CompileJob(("rom", scale), SPEC, module=build_rom_module(scale))


def fingerprint_of(job):
    return flow_fingerprint(
        PassManager.parse(SPEC).spec(), module=job.module
    )


@pytest.fixture
def count_pickles(monkeypatch):
    calls = []
    real_dumps = pickle.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    return calls


def served_line(url, job):
    """The one NDJSON line a single-job ``POST /compile`` answers."""
    body = json.dumps(encode_batch([job])).encode("utf-8")
    request = urllib.request.Request(
        f"{url}/compile", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        [line] = [raw for raw in response if raw.strip()]
    return json.loads(line)


def test_a_hit_sends_the_cache_entrys_bytes():
    with CompileServer(cache=CompileCache(), workers=1) as server:
        job = rom_job()
        cold = served_line(server.url, job)
        assert not cold["cache_hit"]
        warm = served_line(server.url, job)
        assert warm["cache_hit"]
        fingerprint = warm["fingerprint"]
        assert fingerprint == fingerprint_of(job)
        cache = server.cache
        kept = cache.hit_bytes(fingerprint, cache.get(fingerprint))
        assert base64.b64decode(warm["ctx"]) == kept
        # And the bytes are the context the cache holds.
        ctx = pickle.loads(kept)
        assert ctx.area.total == cache.get(fingerprint).area.total


def test_an_entry_is_pickled_at_most_once_however_often_it_is_served(
    count_pickles,
):
    with CompileServer(cache=CompileCache(), workers=1) as server:
        job = rom_job()
        miss = server.run_job(job, 0, frozenset())
        assert not miss.cache_hit and miss.ctx_bytes is None
        encode_result(miss)  # a miss pickles its fresh context
        count_pickles.clear()
        lines = []
        for _ in range(4):
            hit = server.run_job(job, 0, frozenset())
            assert hit.cache_hit and hit.ctx is miss.ctx
            lines.append(encode_result(hit))
        assert count_pickles == ["FlowContext"]  # the first hit only
        assert len({line["ctx"] for line in lines}) == 1


def test_a_disk_hit_serves_the_bytes_it_loaded(tmp_path, count_pickles):
    job = rom_job()
    compile_many([job], cache=CompileCache(tmp_path / "cache"))
    fingerprint = fingerprint_of(job)
    [entry] = list((tmp_path / "cache").glob("*/*.pkl"))
    on_disk = entry.read_bytes()
    cache = CompileCache(tmp_path / "cache")  # a cold memory layer
    with CompileServer(cache=cache, workers=1) as server:
        count_pickles.clear()
        hit = server.run_job(job, 0, frozenset())
        line = encode_result(hit)
        assert hit.cache_hit and cache.disk_hits == 1
        assert hit.fingerprint == fingerprint
        assert hit.ctx_bytes == on_disk
        assert base64.b64decode(line["ctx"]) == on_disk
        assert count_pickles == []  # nothing pickled: the bytes came loaded


def test_a_corrupt_disk_entry_is_recompiled_never_served(tmp_path):
    job = rom_job()
    first = compile_many([job], cache=CompileCache(tmp_path / "cache"))
    [entry] = list((tmp_path / "cache").glob("*/*.pkl"))
    entry.write_bytes(b"not a pickle")
    cache = CompileCache(tmp_path / "cache")
    with CompileServer(cache=cache, workers=1) as server:
        result = server.run_job(job, 0, frozenset())
        assert result.error is None
        assert not result.cache_hit and result.ctx_bytes is None
        # Missed by the lookup and by the flight's re-check.
        assert cache.misses == 2 and cache.hits == 0
        assert server.stats()["compiles"] == 1
        assert result.ctx.area.total == first[job.key].area.total
        # The recompile replaced the damaged entry.
        assert pickle.loads(entry.read_bytes()).area.total == (
            result.ctx.area.total
        )


def test_a_served_hit_gets_and_checks_each_job_once(monkeypatch):
    jobs = [rom_job(scale) for scale in (3, 5, 7)]
    with CompileServer(cache=CompileCache(), workers=2) as server:
        client = ServeClient(server.url)
        client.compile(jobs)  # cold fill
        gets = []
        checks = []
        real_get = CompileCache.get
        real_check = server_module.check_job

        def counting_get(self, key):
            gets.append(key)
            return real_get(self, key)

        def counting_check(job):
            checks.append(job.key)
            return real_check(job)

        monkeypatch.setattr(CompileCache, "get", counting_get)
        monkeypatch.setattr(server_module, "check_job", counting_check)
        for _ in range(2):
            results = client.compile_detailed(jobs)
            assert all(result.cache_hit for result in results)
        assert sorted(checks) == [0, 0, 1, 1, 2, 2]
        assert sorted(gets) == sorted(
            [fingerprint_of(job) for job in jobs] * 2
        )
