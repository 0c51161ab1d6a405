"""The prefix-trie sweep scheduler: wave planning + exactly-once."""

import pytest

from repro.expts.techsweep import build_jobs
from repro.flow import (
    CompileCache,
    CompileJob,
    PassManager,
    compile_many,
)
from repro.flow.parallel import _plan_waves
from repro.rtl.builder import ModuleBuilder


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def executed(ctx) -> int:
    return len(ctx.records) - int(ctx.meta.get("resumed_records", 0))


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


# ---------------------------------------------------------------------
# Wave planning units.
# ---------------------------------------------------------------------

def test_disjoint_jobs_run_in_one_wave_with_no_forced_boundaries():
    waves, forced = _plan_waves([["a", "b"], ["c", "d"], ["e"]])
    assert waves == [[0, 1, 2]]
    assert all(not f for f in forced.values())


def test_shared_prefix_elects_one_leader_per_wave():
    waves, forced = _plan_waves([["a", "b"], ["a", "c"], ["a", "d"]])
    # Job 0 leads the shared prefix "a"; the others defer one wave,
    # then run together (the prefix is covered).
    assert waves == [[0], [1, 2]]
    # Every sharer must snapshot the shared boundary (index 0).
    assert forced[0] == forced[1] == forced[2] == frozenset({0})


def test_nested_shared_prefixes_defer_level_by_level():
    lists = [
        ["a", "x"],            # shares only "a"
        ["a", "b", "c", "y"],  # shares "a", "b", "c"
        ["a", "b", "c", "z"],
        ["a", "b", "w"],       # shares "a", "b"
    ]
    waves, forced = _plan_waves(lists)
    # Wave 1: job 0 claims "a" (jobs 1-3 all want it -> deferred).
    # Wave 2: job 1 claims "b" and "c"; job 3 wants "b" -> deferred.
    # Wave 3: jobs 2 and 3 want nothing uncovered -> together.
    assert waves == [[0], [1], [2, 3]]
    assert forced[0] == frozenset({0})
    assert forced[1] == frozenset({0, 1, 2})
    assert forced[3] == frozenset({0, 1})


def test_a_pipeline_nested_in_another_snapshots_its_final_boundary():
    """The final boundary follows the same rule as every other: a job
    whose whole pipeline another job shares snapshots it."""
    waves, forced = _plan_waves([["a", "b"], ["a", "b", "c"], ["d"]])
    assert waves == [[0, 2], [1]]
    assert forced[0] == forced[1] == frozenset({0, 1})
    assert forced[2] == frozenset()


def test_identical_full_fingerprints_serialize():
    """Two content-identical jobs (distinct keys) must not race: the
    full fingerprint counts as shared, so the second one waits a wave
    and then hits the cache outright."""
    waves, _ = _plan_waves([["a", "b"], ["a", "b"]])
    assert waves == [[0], [1]]


def test_waves_partition_all_jobs_in_submission_order():
    lists = [["p", "q"], ["p", "r"], ["s"], ["p", "t"]]
    waves, _ = _plan_waves(lists)
    flat = [i for wave in waves for i in wave]
    assert sorted(flat) == list(range(len(lists)))
    for wave in waves:
        assert wave == sorted(wave)  # submission order within a wave


# ---------------------------------------------------------------------
# compile_many end-to-end: exactly-once prefixes, identical results.
# ---------------------------------------------------------------------

def shared_prefix_jobs():
    """Four jobs over one design: two recipes x two clock targets,
    all sharing ``elaborate,optimize`` (and the recipe pairs sharing
    deeper prefixes)."""
    module = build_rom_module()
    specs = {
        ("classic", 20): "elaborate,optimize,map,size{clock_period_ns=20.0}",
        ("classic", 10): "elaborate,optimize,map,size{clock_period_ns=10.0}",
        ("resub", 20):
            "elaborate,optimize,resub,map,size{clock_period_ns=20.0}",
        ("resub", 10):
            "elaborate,optimize,resub,map,size{clock_period_ns=10.0}",
    }
    return [
        CompileJob(key, spec, module=module)
        for key, spec in specs.items()
    ]


def test_cold_batch_executes_each_shared_prefix_exactly_once(tmp_path):
    baseline = compile_many(shared_prefix_jobs())
    planned = compile_many(
        shared_prefix_jobs(), cache=CompileCache(tmp_path / "c")
    )
    base_total = sum(executed(ctx) for ctx in baseline.values())
    plan_total = sum(executed(ctx) for ctx in planned.values())
    assert plan_total < base_total
    # elaborate,optimize ran once, not four times; elaborate,optimize,
    # resub ran once, not twice -- per variant only the divergent tail
    # (plus one full leader) executes.
    leaders = [
        ctx for ctx in planned.values() if "resumed_at" not in ctx.meta
    ]
    assert len(leaders) == 1  # exactly one job ran from scratch
    for key, ctx in planned.items():
        assert record_signature(ctx) == record_signature(baseline[key])
        assert ctx.area.total == baseline[key].area.total
        assert (
            ctx.aig.canonical_hash() == baseline[key].aig.canonical_hash()
        )


def test_pool_matches_serial_with_prefix_scheduling(tmp_path):
    serial = compile_many(
        shared_prefix_jobs(),
        workers=1,
        cache=CompileCache(tmp_path / "serial"),
    )
    pooled = compile_many(
        shared_prefix_jobs(),
        workers=2,
        cache=CompileCache(tmp_path / "pooled"),
    )
    assert list(serial) == list(pooled)
    for key in serial:
        assert record_signature(serial[key]) == record_signature(pooled[key])
    assert (
        sum(executed(ctx) for ctx in serial.values())
        == sum(executed(ctx) for ctx in pooled.values())
    )


def test_memory_only_pool_skips_wave_barriers_but_stays_correct():
    """Workers cannot share a memory-only cache, so the pool path must
    not serialize into waves for nothing -- and results must still be
    byte-identical to the unscheduled baseline."""
    baseline = compile_many(shared_prefix_jobs())
    pooled = compile_many(
        shared_prefix_jobs(),
        workers=2,
        cache=CompileCache(),  # no disk path
    )
    for key in baseline:
        assert record_signature(pooled[key]) == record_signature(
            baseline[key]
        )
        # Nothing to resume from: workers are isolated.
        assert "resumed_at" not in pooled[key].meta


def test_techsweep_grid_resumes_to_a_pinned_execution_count(tmp_path):
    """The small techsweep grid, compiled cold, executes 87 of the 324
    pass records it executes without a cache, and every job's result
    is identical to its from-scratch compile.  It writes 21 stage
    snapshots: one at every boundary two or more jobs share, and no
    other.  All three counts are exact: the planner's rule depends on
    the batch's inputs alone, never on timing."""
    baseline = compile_many(build_jobs("small"))
    cache = CompileCache(tmp_path / "planned")
    planned = compile_many(build_jobs("small"), cache=cache)
    assert len(planned) == 18
    assert sum(executed(ctx) for ctx in baseline.values()) == 324
    assert sum(executed(ctx) for ctx in planned.values()) == 87
    assert cache.snapshot_stores == 21
    for key, ctx in planned.items():
        assert record_signature(ctx) == record_signature(baseline[key])
        assert (
            ctx.aig.canonical_hash() == baseline[key].aig.canonical_hash()
        )
        assert ctx.area.total == baseline[key].area.total


def test_a_pooled_batch_counts_what_a_serial_batch_does(tmp_path):
    """Pool workers look up and store through caches of their own over
    the shared directory; the batch's cache adds their counts, so the
    small techsweep grid reports its 18 entries and 21 snapshots either
    way."""
    names = (
        "memory_hits", "disk_hits", "misses", "stores",
        "snapshot_hits", "snapshot_misses", "snapshot_stores",
    )
    counts = {}
    for workers in (1, 2):
        cache = CompileCache(tmp_path / f"workers{workers}")
        compile_many(build_jobs("small"), workers=workers, cache=cache)
        stats = cache.stats()
        counts[workers] = {name: stats[name] for name in names}
        assert stats["backend"]["entries"] == 18
        assert stats["backend"]["snapshots"] == 21
    assert counts[2] == counts[1]
    assert counts[2]["stores"] == 18 and counts[2]["snapshot_stores"] == 21
