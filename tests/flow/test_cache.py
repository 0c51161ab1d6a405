"""The compile cache: fingerprints, hit/miss/invalidation, disk layer,
and the size/age sweep (``CompileCache.sweep``)."""

import os

import pytest

from repro.flow import (
    CompileCache,
    FlowError,
    PassManager,
    SweepStats,
    flow_fingerprint,
)
from repro.flow.core import Pass, register_pass
from repro.rtl.builder import ModuleBuilder
from repro.synth.dc_options import StateAnnotation
from repro.tech.cells import Library


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def full_pipeline():
    return PassManager.parse("elaborate,optimize,map,size")


# ---------------------------------------------------------------------
# Canonical hashes.
# ---------------------------------------------------------------------

def test_module_hash_is_content_addressed():
    assert (
        build_rom_module().canonical_hash()
        == build_rom_module().canonical_hash()
    )
    assert (
        build_rom_module(3).canonical_hash()
        != build_rom_module(5).canonical_hash()
    )
    assert (
        build_rom_module(name="a").canonical_hash()
        != build_rom_module(name="b").canonical_hash()
    )


def test_aig_hash_is_content_addressed():
    from repro.synth.elaborate import elaborate

    one = elaborate(build_rom_module()).aig
    two = elaborate(build_rom_module()).aig
    other = elaborate(build_rom_module(5)).aig
    assert one.canonical_hash() == two.canonical_hash()
    assert one.canonical_hash() != other.canonical_hash()


def test_aig_hash_ignores_dead_nodes():
    from repro.aig.graph import AIG

    def build(extra_dead):
        aig = AIG()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        aig.add_po("y", aig.and_(a, b))
        if extra_dead:
            aig.and_(aig.not_(a), aig.not_(b))  # unreachable from outputs
        return aig

    assert build(False).canonical_hash() == build(True).canonical_hash()


# ---------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------

def test_fingerprint_covers_every_input():
    module = build_rom_module()
    base = dict(module=module, seed=1, library=Library.tsmc90ish())
    fp = flow_fingerprint("elaborate,optimize", **base)
    assert fp == flow_fingerprint("elaborate,optimize", **base)
    assert fp != flow_fingerprint("elaborate", **base)
    assert fp != flow_fingerprint(
        "elaborate,optimize", **{**base, "seed": 2}
    )
    assert fp != flow_fingerprint(
        "elaborate,optimize", **{**base, "module": build_rom_module(5)}
    )
    # A None library resolves to the default (tsmc90ish today) before
    # hashing: the fingerprint covers what TechMapPass will actually
    # map with, so "no library" and "the default library" are the same
    # compile -- and a *changed* default is a different one.
    assert fp == flow_fingerprint(
        "elaborate,optimize", **{**base, "library": None}
    )
    assert fp != flow_fingerprint(
        "elaborate,optimize", **{**base, "library": Library.generic45ish()}
    )
    annotated = flow_fingerprint(
        "elaborate,optimize",
        annotations=(StateAnnotation("state", (0, 1)),),
        **base,
    )
    assert fp != annotated


def test_default_library_is_resolved_before_fingerprinting(monkeypatch):
    """Regression: two jobs differing only in the *resolved* default
    library must miss each other's cache entries.

    ``TechMapPass.run`` falls back to ``default_library()`` when
    neither the pass nor the context pins one; the fingerprint must
    resolve the same default up front, otherwise changing the built-in
    default would replay results mapped against the old library.
    """
    from repro.tech import cells

    module = build_rom_module()
    before = flow_fingerprint("elaborate,optimize,map,size", module=module)
    monkeypatch.setattr(
        cells, "DEFAULT_LIBRARY_FACTORY", Library.generic45ish
    )
    after = flow_fingerprint("elaborate,optimize,map,size", module=module)
    assert before != after
    # And the resolved default equals the explicitly-passed library.
    assert after == flow_fingerprint(
        "elaborate,optimize,map,size",
        module=module,
        library=Library.generic45ish(),
    )


def test_default_library_change_misses_the_cache(monkeypatch):
    """End to end: a warm cache entry compiled under one default
    library is not served once the default changes."""
    from repro.tech import cells

    cache = CompileCache()
    pipeline = full_pipeline()
    first = pipeline.compile(build_rom_module(), cache=cache)
    assert cache.misses == 1
    monkeypatch.setattr(
        cells, "DEFAULT_LIBRARY_FACTORY", Library.generic45ish
    )
    second = pipeline.compile(build_rom_module(), cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    assert second is not first
    assert second.netlist.library.name == "generic45ish"


def test_registered_library_edit_invalidates_fingerprints(monkeypatch):
    """``map{library=...}`` pins libraries by *name* in the spec; the
    fingerprint must cover the names' definitions (the registry
    digest), or editing a registered kit would replay results mapped
    against the old cells."""
    from dataclasses import replace as dc_replace

    from repro.flow import passes

    module = build_rom_module()
    spec = "elaborate,optimize,map{library=generic45ish},size"
    before = flow_fingerprint(spec, module=module)
    assert before == flow_fingerprint(spec, module=module)  # memo is stable

    def tweaked_generic45ish():
        lib = Library.generic45ish()
        inv = lib.cells["INV"]
        lib.cells["INV"] = dc_replace(inv, area=inv.area * 2)
        return lib

    monkeypatch.setitem(
        passes.LIBRARY_FACTORIES, "generic45ish", tweaked_generic45ish
    )
    assert flow_fingerprint(spec, module=module) != before


def test_differently_parameterized_pipelines_fingerprint_apart():
    module = build_rom_module()
    one = PassManager.parse("elaborate,optimize,map,size")
    two = PassManager.parse("elaborate,optimize,map,size{clock_period_ns=2.0}")
    assert flow_fingerprint(one.spec(), module=module) != flow_fingerprint(
        two.spec(), module=module
    )


# ---------------------------------------------------------------------
# Hit / miss / invalidation through PassManager.compile.
# ---------------------------------------------------------------------

def test_memory_cache_hit_returns_same_context():
    cache = CompileCache()
    pipeline = full_pipeline()
    first = pipeline.compile(build_rom_module(), cache=cache)
    second = pipeline.compile(build_rom_module(), cache=cache)
    assert second is first
    assert cache.memory_hits == 1 and cache.misses == 1 and cache.stores == 1


def test_cache_invalidates_on_param_seed_and_module_change():
    cache = CompileCache()
    pipeline = full_pipeline()
    pipeline.compile(build_rom_module(), cache=cache)
    # Different pass parameter -> miss.
    PassManager.parse("elaborate,optimize,map,size{clock_period_ns=2.0}").compile(
        build_rom_module(), cache=cache
    )
    # Different seed -> miss.
    pipeline.compile(build_rom_module(), seed=99, cache=cache)
    # Edited module -> miss.
    pipeline.compile(build_rom_module(5), cache=cache)
    assert cache.hits == 0 and cache.misses == 4 and cache.stores == 4


def test_disk_cache_survives_a_new_cache_instance(tmp_path):
    pipeline = full_pipeline()
    warm = CompileCache(tmp_path / "cache")
    first = pipeline.compile(build_rom_module(), cache=warm)

    executed = []

    @register_pass("disk_probe")
    class DiskProbe(Pass):
        stage = "rtl"

        def run(self, ctx):
            executed.append(self.name)

    try:
        probed = PassManager.parse("disk_probe,elaborate,optimize,map,size")
        cold = CompileCache(tmp_path / "cache")
        cold_ctx = probed.compile(build_rom_module(), cache=cold)
        assert executed == ["disk_probe"]  # cold: the pipeline really ran
        again = CompileCache(tmp_path / "cache")
        result = probed.compile(build_rom_module(), cache=again)
        assert executed == ["disk_probe"]  # warm: zero passes executed
        assert again.disk_hits == 1 and again.misses == 0
        assert result.area.total == first.area.total
        # A hit replays the cold compile's records, wall times included.
        assert result.records == cold_ctx.records
        assert sum(r.wall_time_s for r in result.records) > 0.0
    finally:
        from repro.flow import PASS_REGISTRY

        PASS_REGISTRY.pop("disk_probe", None)


def test_corrupt_disk_entry_reads_as_miss(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    pipeline = full_pipeline()
    pipeline.compile(build_rom_module(), cache=cache)
    # Exactly the completed-entry namespace: stage snapshots live
    # under snap/ (three path levels) and are not this test's target.
    [entry] = list((tmp_path / "cache").glob("*/*.pkl"))
    entry.write_bytes(b"not a pickle")
    fresh = CompileCache(tmp_path / "cache")
    ctx = pipeline.compile(build_rom_module(), cache=fresh)
    assert fresh.misses == 1 and fresh.disk_hits == 0
    assert ctx.area is not None


def test_cached_results_equal_uncached_results():
    pipeline = full_pipeline()
    plain = pipeline.compile(build_rom_module())
    cache = CompileCache()
    pipeline.compile(build_rom_module(), cache=cache)
    cached = pipeline.compile(build_rom_module(), cache=cache)
    assert cached.area.total == plain.area.total
    assert cached.log == plain.log


def test_lru_bound_evicts_oldest():
    cache = CompileCache(max_memory_entries=2)
    pipeline = full_pipeline()
    for scale in (3, 5, 7):  # third insert evicts the first
        pipeline.compile(build_rom_module(scale), cache=cache)
    pipeline.compile(build_rom_module(3), cache=cache)  # evicted -> miss
    assert cache.misses == 4
    pipeline.compile(build_rom_module(7), cache=cache)
    assert cache.memory_hits == 1


def test_bad_memory_bound_rejected():
    with pytest.raises(ValueError):
        CompileCache(max_memory_entries=0)


# ---------------------------------------------------------------------
# Fingerprint soundness guards.
# ---------------------------------------------------------------------

def test_modified_library_fingerprints_apart_despite_same_name():
    from dataclasses import replace as dc_replace

    stock = Library.tsmc90ish()
    tweaked = Library.tsmc90ish()
    inv = tweaked.cells["INV"]
    tweaked.cells["INV"] = dc_replace(inv, area=inv.area * 2)
    assert stock.name == tweaked.name
    assert stock.canonical_hash() != tweaked.canonical_hash()
    module = build_rom_module()
    assert flow_fingerprint(
        "elaborate,map", module=module, library=stock
    ) != flow_fingerprint("elaborate,map", module=module, library=tweaked)


def test_pinned_unregistered_library_has_no_spec_form():
    from dataclasses import replace as dc_replace

    from repro.flow.passes import TechMapPass

    tweaked = Library.tsmc90ish()
    inv = tweaked.cells["INV"]
    tweaked.cells["INV"] = dc_replace(inv, area=inv.area * 2)
    with pytest.raises(FlowError, match="no spec form"):
        PassManager([TechMapPass(tweaked)]).spec()
    # The stock library still renders by name.
    assert TechMapPass(Library.tsmc90ish()).spec() == "map{library=tsmc90ish}"


def test_custom_metric_fixed_point_has_no_spec_form():
    from repro.flow import until_converged
    from repro.flow.passes import RewritePass

    loop = until_converged(RewritePass(), metric=lambda ctx: ctx.aig.depth())
    with pytest.raises(FlowError, match="custom metric"):
        loop.spec()
    # The default metric keeps its spec form.
    assert "rewrite" in until_converged(RewritePass()).spec()


# ---------------------------------------------------------------------
# Backend plumbing and concurrency.
# ---------------------------------------------------------------------

def test_stats_dict_shape_and_counters(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    pipeline = full_pipeline()
    pipeline.compile(build_rom_module(), cache=cache)
    pipeline.compile(build_rom_module(), cache=cache)
    stats = cache.stats()
    assert stats["memory_hits"] == 1 and stats["misses"] == 1
    assert stats["hits"] == 1 and stats["stores"] == 1
    assert stats["inflight"] == 0 and stats["memory_entries"] == 1
    assert stats["backend"]["kind"] == "local-dir"
    assert stats["backend"]["entries"] == 1
    assert cache.path == tmp_path / "cache"
    assert CompileCache().path is None
    assert CompileCache().stats()["backend"] is None
    import json

    json.dumps(stats)  # the /stats endpoint serves this verbatim
    assert "1 memory hits" in cache.stats_line()


def test_local_dir_backend_round_trip(tmp_path):
    from repro.flow import LocalDirBackend

    backend = LocalDirBackend(tmp_path / "b")
    key = "ab" + "0" * 62
    assert backend.load(key) is None
    backend.store(key, b"payload")
    assert backend.load(key) == b"payload"
    assert backend.entry_file(key).parent.name == "ab"  # prefix-sharded


def test_cache_is_thread_safe_under_concurrent_traffic(tmp_path):
    """Satellite regression: the memory LRU and counters are shared by
    server handler threads; hammering one cache from many threads must
    neither corrupt the LRU nor lose counter updates."""
    import threading

    cache = CompileCache(tmp_path / "cache", max_memory_entries=4)
    pipeline = full_pipeline()
    contexts = {
        scale: pipeline.compile(build_rom_module(scale))
        for scale in (3, 5, 7, 11, 13)
    }
    errors = []

    def worker(offset):
        try:
            for round_ in range(20):
                scale = (3, 5, 7, 11, 13)[(offset + round_) % 5]
                key = flow_fingerprint(
                    full_pipeline().spec(), module=build_rom_module(scale)
                )
                hit = cache.get(key)
                if hit is None:
                    cache.inflight_begin()
                    try:
                        cache.put(key, contexts[scale])
                    finally:
                        cache.inflight_end()
                else:
                    assert hit.area.total == contexts[scale].area.total
        except Exception as exc:  # surfaced below; threads swallow
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = cache.stats()
    assert stats["inflight"] == 0
    assert stats["hits"] + stats["misses"] == 8 * 20
    assert len(cache._memory) <= 4


def test_anonymous_pass_has_no_spec_form():
    class Anonymous(Pass):
        def run(self, ctx):
            pass

    with pytest.raises(FlowError, match="no spec form"):
        Anonymous().spec()
    with pytest.raises(FlowError, match="no spec form"):
        PassManager([Anonymous()]).compile(
            build_rom_module(), cache=CompileCache()
        )


# ---------------------------------------------------------------------
# Sweep (size and age bounds).
# ---------------------------------------------------------------------

def _fill_cache(tmp_path, sizes_and_ages):
    """A disk cache with fake entries of given (bytes, age-days)."""
    import time as time_mod

    cache = CompileCache(tmp_path / "cache")
    files = []
    for index, (size, age_days) in enumerate(sizes_and_ages):
        key = f"{index:02d}" + "ab" * 31  # 64 hex-ish chars
        entry = cache.backend.entry_file(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(b"x" * size)
        stamp = time_mod.time() - age_days * 86400.0
        os.utime(entry, (stamp, stamp))
        files.append(entry)
    return cache, files


def test_sweep_evicts_oldest_first_for_size_budget(tmp_path):
    cache, files = _fill_cache(
        tmp_path, [(100, 5), (100, 3), (100, 1)]
    )
    stats = cache.sweep(max_bytes=150)
    # Oldest two go; the newest survives.
    assert stats.removed == 2 and stats.scanned == 3
    assert stats.bytes_before == 300 and stats.bytes_after == 100
    assert not files[0].exists() and not files[1].exists()
    assert files[2].exists()


def test_sweep_age_bound_ignores_fresh_entries(tmp_path):
    cache, files = _fill_cache(tmp_path, [(100, 10), (100, 0)])
    stats = cache.sweep(max_age_days=2)
    assert stats.removed == 1
    assert not files[0].exists() and files[1].exists()


def test_sweep_combined_age_then_size(tmp_path):
    cache, files = _fill_cache(
        tmp_path, [(100, 10), (100, 4), (100, 2), (100, 1)]
    )
    stats = cache.sweep(max_bytes=200, max_age_days=5)
    # Age kills the 10-day entry; budget then evicts the 4-day one.
    assert stats.removed == 2
    assert [f.exists() for f in files] == [False, False, True, True]


def test_sweep_noop_cases(tmp_path):
    assert CompileCache().sweep(max_bytes=0).scanned == 0  # memory-only
    cache = CompileCache(tmp_path / "never-written")
    assert cache.sweep(max_bytes=0).scanned == 0
    cache, files = _fill_cache(tmp_path, [(100, 1)])
    stats = cache.sweep()  # no bounds given: nothing evicted
    assert stats.removed == 0 and files[0].exists()
    with pytest.raises(ValueError):
        cache.sweep(max_bytes=-1)
    with pytest.raises(ValueError):
        cache.sweep(max_age_days=-1)


def test_sweep_missing_and_empty_dirs_return_zero_stats(tmp_path):
    """GC of nothing is a no-op, never an error."""
    missing = CompileCache(tmp_path / "does-not-exist")
    stats = missing.sweep(max_bytes=0, max_age_days=0)
    assert stats == SweepStats()
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    stats = CompileCache(empty_dir).sweep(max_bytes=0, max_age_days=0)
    assert stats == SweepStats()
    # A path that is a *file* is as good as no cache.
    file_path = tmp_path / "plain-file"
    file_path.write_bytes(b"x")
    stats = CompileCache(file_path).sweep(max_bytes=0)
    assert stats == SweepStats()


def test_sweep_skips_foreign_files(tmp_path):
    """Files the cache did not write are never counted or deleted."""
    cache, files = _fill_cache(tmp_path, [(100, 10)])
    root = cache.path
    (root / "README.txt").write_text("not an entry")
    (root / "ab").mkdir(exist_ok=True)
    (root / "ab" / "notes.json").write_text("{}")
    impostor = root / "ab" / "dir-named-like-entry.pkl"
    impostor.mkdir()
    (impostor / "inner").write_bytes(b"x")
    stats = cache.sweep(max_bytes=0, max_age_days=0)
    # Only the genuine entry was scanned and removed.
    assert stats.scanned == 1 and stats.removed == 1
    assert not files[0].exists()
    assert (root / "README.txt").exists()
    assert (root / "ab" / "notes.json").exists()
    assert impostor.is_dir() and (impostor / "inner").exists()


def test_swept_cache_still_works(tmp_path):
    """Eviction must read as a miss, not an error, on the next run."""
    b = ModuleBuilder("m")
    addr = b.input("a", 2)
    b.output("y", ~addr)
    module = b.build()

    cache = CompileCache(tmp_path / "cache")
    pipeline = PassManager.parse("elaborate,optimize")
    pipeline.compile(module, cache=cache)
    swept = cache.sweep(max_bytes=0)
    # One completed entry, plus the stage-boundary snapshot the
    # default policy wrote after elaborate -- both evicted.
    assert swept.removed - swept.removed_snapshots == 1
    assert swept.removed_snapshots == 1
    fresh = CompileCache(tmp_path / "cache")  # cold memory layer
    ctx = pipeline.compile(module, cache=fresh)
    assert ctx.aig is not None and fresh.misses == 1
