"""Property: a resumed compile equals a from-scratch one everywhere.

For every pipeline and every split point, a compile that resumes
from a cached prefix (stage snapshot or a shorter pipeline's
completed entry) must be byte-identical to the same pipeline run from
scratch: canonical hashes, areas, and pass records -- including the
progress/rollback flags -- with only wall times free to differ.  This is the correctness bar the whole
incremental-compilation layer rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import CompileCache, PassManager, SnapshotPolicy
from tests.helpers import build_table_aig, frontend_inputs

#: (name, spec, input kwargs) -- an AIG-stage pipeline covering all
#: four optimization passes, plus frontend lowerings entering at the
#: ctrl stage, so resume is exercised across every stage boundary.
PIPELINES = [
    (
        "aig",
        "balance,rewrite,resub,dc_rewrite",
        lambda: {"aig": build_table_aig(6, 8, seed=3)},
    ),
    (
        "fsm",
        "fsm_encode{realize=case},fsm_infer,honour_annotations,"
        "encode,elaborate,optimize",
        lambda: {"ctrl": frontend_inputs(0)[0]},
    ),
    (
        "table",
        "table_rom,elaborate,optimize,map,size",
        lambda: {"ctrl": frontend_inputs(0)[1]},
    ),
]

_BY_NAME = {name: (spec, inputs) for name, spec, inputs in PIPELINES}


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


def final_identity(ctx):
    return (
        None if ctx.aig is None else ctx.aig.canonical_hash(),
        None if ctx.area is None else ctx.area.total,
        None if ctx.timing is None else ctx.timing.critical_delay,
    )


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(_BY_NAME)),
    split=st.integers(min_value=1, max_value=10),
)
def test_resume_equals_from_scratch(tmp_path_factory, name, split):
    spec, make_inputs = _BY_NAME[name]
    pipeline = PassManager.parse(spec)
    split = 1 + split % (len(pipeline.passes) - 1)  # a *proper* prefix
    prefix = PassManager.parse(pipeline.prefix_specs()[split - 1])
    inputs = make_inputs()

    scratch = PassManager.parse(spec).compile(**make_inputs())

    tmp = tmp_path_factory.mktemp(f"resume-{name}-{split}")
    cache = CompileCache(tmp)
    # Seed the cache by genuinely running the prefix pipeline with
    # snapshots on -- it leaves both its stage snapshots and its
    # completed entry behind; whichever the probe finds first must
    # produce the same result.
    prefix.compile(
        **inputs,
        cache=cache,
        snapshots=SnapshotPolicy(min_pass_seconds=0.0),
    )
    resumed = PassManager.parse(spec).compile(**make_inputs(), cache=cache)

    assert resumed.meta.get("passes_skipped", 0) >= split
    assert record_signature(resumed) == record_signature(scratch)
    assert final_identity(resumed) == final_identity(scratch)
