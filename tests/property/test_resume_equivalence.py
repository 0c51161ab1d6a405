"""Property: a resumed compile equals a from-scratch one everywhere.

For every pipeline and every split point, a compile that resumes
from a cached prefix (the stage snapshot a shorter job of the same
batch left at its final boundary) must be byte-identical to the same
pipeline run from scratch: canonical hashes, areas, and pass records
-- including the progress/rollback flags -- with only wall times free
to differ.  This is the correctness bar the whole
incremental-compilation layer rests on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import CompileCache, CompileJob, PassManager, compile_many
from repro.tables.truthtable import TruthTable
from tests.helpers import frontend_inputs

#: (name, spec, input kwargs) -- a pipeline running all four AIG
#: optimization passes, plus frontend lowerings, every one entering at
#: the ctrl stage (a job's design is a controller IR or RTL), so
#: resume is exercised across every stage boundary.
PIPELINES = [
    (
        "aig",
        "table_rom,elaborate,balance,rewrite,resub,dc_rewrite",
        lambda: {"ctrl": TruthTable.random(6, 8, random.Random(3))},
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
    prefix = pipeline.prefix_specs()[split - 1]
    inputs = make_inputs()

    scratch = PassManager.parse(spec).compile(**make_inputs())

    tmp = tmp_path_factory.mktemp(f"resume-{name}-{split}")
    # One batch holding the prefix pipeline and the full pipeline: the
    # prefix job snapshots every boundary the two share, its final one
    # included, and the full job resumes from that snapshot.
    batch = compile_many(
        [
            CompileJob("prefix", prefix, **inputs),
            CompileJob("full", spec, **make_inputs()),
        ],
        cache=CompileCache(tmp),
    )
    resumed = batch["full"]

    assert resumed.meta["passes_skipped"] == split
    assert record_signature(resumed) == record_signature(scratch)
    assert final_identity(resumed) == final_identity(scratch)
