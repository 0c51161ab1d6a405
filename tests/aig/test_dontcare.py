"""Don't-care-aware rewriting: SAT equivalence and DC acceptance."""

import random

import pytest

from repro.aig.dontcare import dc_rewrite
from repro.aig.graph import AIG, lit_compl
from repro.aig.rewrite import rewrite
from repro.flow import PassManager
from repro.sat.equiv import check_combinational_equivalence

from tests.aig.test_passes import random_aig


def test_dc_rewrite_preserves_observable_function_sat():
    """The randomized harness of the tt_sweep/rewrite tests; the
    don't-care pass may restructure dead and masked logic freely, but
    every output and latch next-state function must stay SAT-equal."""
    for seed in range(12):
        rng = random.Random(seed + 500)
        aig, _ = random_aig(rng)
        cleaned, _ = aig.cleanup()
        optimized = dc_rewrite(cleaned)
        assert check_combinational_equivalence(cleaned, optimized), seed
        assert optimized.num_ands <= cleaned.num_ands, seed


def test_dc_rewrite_reduces_some_designs():
    improved = 0
    for seed in range(20):
        rng = random.Random(seed + 500)
        aig, _ = random_aig(rng)
        cleaned, _ = aig.cleanup()
        if dc_rewrite(cleaned).num_ands < cleaned.num_ands:
            improved += 1
    assert improved > 0


def test_dc_rewrite_reduces_the_bench_design():
    """Acceptance: a net AND decrease on a benchmark design, SAT-clean."""
    from tests.helpers import build_table_aig

    aig = build_table_aig()
    optimized = dc_rewrite(aig)
    assert optimized.num_ands < aig.num_ands
    assert check_combinational_equivalence(aig, optimized)


def _sdc_design():
    """root = u XOR v with u = (x1&x2)&x5, v = (x3&x4)&~x5: the leaf
    vector (u,v) = (1,1) is unsatisfiable, so XOR may relax to OR.
    Supports are wider than the cut bound, so the exact pass cannot
    see through to the primary inputs."""
    aig = AIG()
    x1, x2, x3, x4, x5 = (aig.add_pi(f"x{i}") for i in range(1, 6))
    g = aig.and_(x1, x2)
    w = aig.and_(x3, x4)
    u = aig.and_(g, x5)
    v = aig.and_(w, lit_compl(x5))
    t1 = aig.and_(u, lit_compl(v))
    t2 = aig.and_(lit_compl(u), v)
    root = lit_compl(aig.and_(lit_compl(t1), lit_compl(t2)))
    aig.add_po("o", root)
    aig.add_po("v", v)  # keeps v alive under either rewriting
    cleaned, _ = aig.cleanup()
    return cleaned


def _odc_design():
    """n = mux(s; a, b) is observed only under m = s&w1&w2&w3; the
    mask forces s=1, under which the mux is just a."""
    aig = AIG()
    s, a, b, w1, w2, w3 = (
        aig.add_pi(name) for name in ("s", "a", "b", "w1", "w2", "w3")
    )
    n = aig.mux(s, a, b)
    m = aig.and_(aig.and_(s, w1), aig.and_(w2, w3))
    aig.add_po("o", aig.and_(n, m))
    cleaned, _ = aig.cleanup()
    return cleaned


@pytest.mark.parametrize("builder", [_sdc_design, _odc_design])
def test_dc_pass_accepts_what_exact_pass_rejects(builder):
    """The point of the pass: a strictly better local implementation
    the exact-function pass must reject (satisfiability don't-cares in
    one design, observability don't-cares in the other)."""
    design = builder()
    exact = rewrite(design)
    relaxed = dc_rewrite(design)
    assert exact.num_ands == design.num_ands  # exact finds nothing
    assert relaxed.num_ands < design.num_ands
    assert check_combinational_equivalence(design, relaxed)


def test_dc_rewrite_on_sequential_graphs():
    """Latch next-state cones count as observation points: logic that
    only feeds state must not be treated as unobservable."""
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    s = aig.add_latch("s", reset_kind="async", reset_value=0)
    aig.set_latch_next(s, aig.xor(a, aig.and_(b, s)))
    aig.add_po("o", aig.and_(s, a))
    cleaned, _ = aig.cleanup()
    optimized = dc_rewrite(cleaned)
    assert check_combinational_equivalence(cleaned, optimized)


def test_dc_rewrite_parameter_validation():
    aig = AIG()
    with pytest.raises(ValueError):
        dc_rewrite(aig, tfo_depth=0)
    with pytest.raises(ValueError):
        dc_rewrite(aig, support_limit=0)


def test_dc_rewrite_pass_spec_round_trips():
    spec = "dc_rewrite{k=3,max_cuts=4,support_limit=8,tfo_depth=3}"
    manager = PassManager.parse(spec)
    assert manager.spec() == spec
    assert PassManager.parse(manager.spec()).spec() == spec


def test_dc_rewrite_pass_runs_in_a_pipeline():
    design = _odc_design()
    ctx = PassManager.parse("dc_rewrite").compile(aig=design)
    [record] = [r for r in ctx.records if r.name == "dc_rewrite"]
    assert record.delta_ands is not None and record.delta_ands < 0
    assert "don't-cares" in " ".join(record.messages)
    assert check_combinational_equivalence(design, ctx.aig)
