"""Stage snapshots: prefix fingerprints, resume, foreign blobs, GC."""

import pickle

import pytest

from repro.flow import (
    CompileCache,
    CompileJob,
    PassManager,
    compile_many,
    fingerprint_prefixes,
    flow_fingerprint,
)
from repro.flow.cache import _dumps
from repro.flow.core import FlowContext
from repro.rtl.builder import ModuleBuilder


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


FULL_SPEC = "elaborate,optimize,resub,dc_rewrite,map,size"


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


# ---------------------------------------------------------------------
# Prefix fingerprints.
# ---------------------------------------------------------------------

def test_prefix_fingerprints_equal_standalone_fingerprints():
    """Element k of the fold is byte-identical to flow_fingerprint of
    the k-pass pipeline -- the identity cross-recipe sharing rests on."""
    pipeline = PassManager.parse(FULL_SPEC)
    module = build_rom_module()
    fps = pipeline.prefix_fingerprints(module=module)
    assert len(fps) == len(pipeline.passes)
    for spec, fp in zip(pipeline.prefix_specs(), fps):
        assert fp == flow_fingerprint(spec, module=module)


def test_prefix_fingerprints_diverge_only_from_the_edit_point():
    module = build_rom_module()
    longer = PassManager.parse(FULL_SPEC).prefix_fingerprints(module=module)
    shorter = PassManager.parse("elaborate,optimize,map,size").\
        prefix_fingerprints(module=module)
    assert longer[:2] == shorter[:2]  # shared elaborate,optimize prefix
    assert longer[2] != shorter[2]


def test_short_pipeline_full_fingerprint_is_longer_ones_prefix():
    module = build_rom_module()
    short = PassManager.parse("elaborate,optimize")
    longer = PassManager.parse("elaborate,optimize,resub")
    assert (
        short.prefix_fingerprints(module=module)[-1]
        == longer.prefix_fingerprints(module=module)[1]
    )


# ---------------------------------------------------------------------
# Snapshot storage round trips.
# ---------------------------------------------------------------------

def test_snapshot_roundtrip_returns_fresh_objects(tmp_path):
    """Every get_snapshot must hand out an independent context --
    resume mutates the restored object, so sharing would corrupt the
    stored snapshot for the next consumer."""
    cache = CompileCache(tmp_path)
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module)[0]

    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    cache.put_snapshot(fp, ctx)

    first = cache.get_snapshot(fp)
    second = cache.get_snapshot(fp)
    assert first is not None and second is not None
    assert first is not second and first is not ctx
    assert first.aig.canonical_hash() == ctx.aig.canonical_hash()
    # Mutating one restored copy must not leak into the next.
    first.meta["poisoned"] = True
    assert "poisoned" not in cache.get_snapshot(fp).meta
    assert cache.snapshot_hits == 3 and cache.snapshot_stores == 1


def test_snapshot_survives_process_boundary(tmp_path):
    """Disk-only restore: a second cache instance over the same
    directory (a fresh worker, in production) sees the snapshot."""
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module)[0]
    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    CompileCache(tmp_path).put_snapshot(fp, ctx)

    restored = CompileCache(tmp_path).get_snapshot(fp)
    assert restored is not None
    assert restored.aig.canonical_hash() == ctx.aig.canonical_hash()


def test_resumed_compile_matches_from_scratch(tmp_path):
    """The correctness bar: one batch holds a shorter pipeline and a
    longer one sharing its every pass; the longer job resumes from the
    shorter one's final snapshot and gets byte-identical results
    (hashes + records modulo wall time)."""
    module = build_rom_module()
    scratch = PassManager.parse(FULL_SPEC).compile(module=module)

    batch = compile_many(
        [
            CompileJob("prefix", "elaborate,optimize,resub", module=module),
            CompileJob("full", FULL_SPEC, module=module),
        ],
        cache=CompileCache(tmp_path),
    )
    resumed = batch["full"]
    assert resumed.meta["passes_skipped"] == 3
    assert resumed.meta["resumed_at"] == "resub"
    assert resumed.aig.canonical_hash() == scratch.aig.canonical_hash()
    assert resumed.area.total == scratch.area.total
    assert record_signature(resumed) == record_signature(scratch)


def test_batch_job_resumes_from_a_shorter_jobs_final_snapshot(tmp_path):
    """A job whose whole pipeline another job of the batch shares
    snapshots its final boundary, and the longer job resumes from
    that snapshot -- the only resume source there is."""
    module = build_rom_module()
    cache = CompileCache(tmp_path)
    batch = compile_many(
        [
            CompileJob("short", "elaborate,optimize", module=module),
            CompileJob("long", "elaborate,optimize,resub", module=module),
        ],
        cache=cache,
    )
    resumed = batch["long"]
    assert resumed.meta["passes_skipped"] == 2
    assert resumed.meta["resumed_at"] == "optimize"
    # Both shared boundaries snapshot; the longer job reads the final
    # one of the shorter job.
    assert cache.snapshot_stores == 2
    assert cache.snapshot_hits == 1
    scratch = PassManager.parse("elaborate,optimize,resub").compile(
        module=module
    )
    assert record_signature(resumed) == record_signature(scratch)
    assert resumed.aig.canonical_hash() == scratch.aig.canonical_hash()


def test_lone_compile_stores_no_snapshot(tmp_path):
    """A single compile shares no prefix with another job: it stores
    its completed entry and no snapshot."""
    cache = CompileCache(tmp_path)
    PassManager.parse(FULL_SPEC).compile(
        module=build_rom_module(), cache=cache
    )
    assert cache.stores == 1
    assert cache.snapshot_stores == 0
    assert cache.stats()["backend"]["snapshots"] == 0


# ---------------------------------------------------------------------
# Old readers, corrupt and foreign blobs.
# ---------------------------------------------------------------------

def _seeded(tmp_path):
    """A cache holding one completed entry and one snapshot."""
    cache = CompileCache(tmp_path)
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fps = pipeline.prefix_fingerprints(module=module)
    done = pipeline.compile(module=module, cache=cache)
    ctx = FlowContext(module=module)
    pipeline.passes[0].execute(ctx)
    cache.put_snapshot(fps[0], ctx)
    return cache, fps, done


def test_corrupt_snapshot_blob_reads_as_miss(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    key = fps[0]
    path = tmp_path / "snap" / key[:2] / f"{key}.pkl"
    path.write_bytes(b"not a pickle")
    assert CompileCache(tmp_path).get_snapshot(fps[0]) is None


def test_snapshot_blob_under_entry_key_reads_as_entry_miss(tmp_path):
    """A pickle that is not a FlowContext -- here one that wraps a
    context -- is a miss under an entry key and under a snapshot key:
    it never leaks out of CompileCache.get or get_snapshot."""
    cache, fps, done = _seeded(tmp_path)
    foreign = _dumps({"ctx": done})
    entry, snapshot = fps[-1], fps[0]
    (tmp_path / entry[:2] / f"{entry}.pkl").write_bytes(foreign)
    (tmp_path / "snap" / snapshot[:2] / f"{snapshot}.pkl").write_bytes(
        foreign
    )
    fresh = CompileCache(tmp_path)  # no memory copy: the disk blob rules
    assert fresh.get(entry) is None
    assert fresh.get_snapshot(snapshot) is None
    assert fresh.misses == 1 and fresh.snapshot_misses == 1


def test_snapshots_invisible_to_pre_snapshot_entry_listing(tmp_path):
    """Old readers listed entries with a two-level glob; snapshots
    live one directory deeper (snap/<aa>/<key>.pkl), so a pre-snapshot
    cache walking the same directory never sees them."""
    cache, fps, _ = _seeded(tmp_path)
    entry_files = list(tmp_path.glob("*/*.pkl"))  # the historical listing
    assert len(entry_files) == 1
    assert all("snap" not in f.parts for f in entry_files)
    snapshot_files = list((tmp_path / "snap").glob("*/*.pkl"))
    # A snapshot is the plain context, kept under its prefix
    # fingerprint; the key says how far it got: ``elaborate`` alone.
    assert snapshot_files == [
        tmp_path / "snap" / fps[0][:2] / f"{fps[0]}.pkl"
    ]
    ctx = pickle.loads(snapshot_files[0].read_bytes())
    assert isinstance(ctx, FlowContext)
    assert [r.name for r in ctx.records] == ["elaborate"]


# ---------------------------------------------------------------------
# GC + stats account both kinds.
# ---------------------------------------------------------------------

def test_stats_report_entries_and_snapshots_by_kind(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    stats = cache.stats()
    assert stats["backend"]["entries"] == 1
    assert stats["backend"]["snapshots"] == 1
    assert stats["backend"]["snapshot_bytes"] > 0
    assert stats["snapshot_stores"] == 1


def test_sweep_covers_snapshots(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    swept = cache.sweep(max_bytes=0)
    assert swept.scanned_snapshots == 1
    assert swept.removed_snapshots == 1
    assert swept.removed == swept.scanned  # everything went
    stats = CompileCache(tmp_path).stats()
    assert stats["backend"]["entries"] == 0
    assert stats["backend"]["snapshots"] == 0
    # A swept snapshot is a miss, never an error.
    assert CompileCache(tmp_path).get_snapshot(fps[0]) is None


def test_age_sweep_keeps_fresh_snapshots(tmp_path):
    cache, fps, _ = _seeded(tmp_path)
    swept = cache.sweep(max_age_days=30)
    assert swept.removed == 0 and swept.removed_snapshots == 0
    assert CompileCache(tmp_path).get_snapshot(fps[0]) is not None
