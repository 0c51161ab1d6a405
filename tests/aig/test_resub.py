"""Resubstitution: SAT-checked equivalence and node accounting."""

import random

import pytest

from repro.aig.graph import AIG, lit_compl
from repro.aig.resub import resub
from repro.flow import PassManager
from repro.sat.equiv import check_combinational_equivalence

from tests.aig.test_passes import random_aig


def test_resub_preserves_function_sat():
    """The randomized harness of the tt_sweep/rewrite tests, with the
    check upgraded to SAT equivalence (latches and all outputs)."""
    for seed in range(12):
        rng = random.Random(seed)
        aig, _ = random_aig(rng)
        cleaned, _ = aig.cleanup()
        substituted = resub(cleaned)
        assert check_combinational_equivalence(cleaned, substituted), seed
        assert substituted.num_ands <= cleaned.num_ands, seed


def test_resub_reduces_some_designs():
    """Across the harness seeds, resubstitution must actually fire."""
    improved = 0
    for seed in range(20):
        rng = random.Random(seed)
        aig, _ = random_aig(rng)
        cleaned, _ = aig.cleanup()
        substituted = resub(cleaned)
        if substituted.num_ands < cleaned.num_ands:
            improved += 1
    assert improved > 0


def test_resub_reduces_the_bench_design():
    """Acceptance: a net AND decrease on a benchmark design, SAT-clean."""
    from repro.track.bench import build_table_aig

    aig = build_table_aig()
    substituted = resub(aig)
    assert substituted.num_ands < aig.num_ands
    assert check_combinational_equivalence(aig, substituted)


def test_resub_finds_existing_divisor():
    """A node equal to an OR of two existing nodes collapses onto them."""
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    c = aig.add_pi("c")
    d = aig.add_pi("d")
    u = aig.and_(a, b)
    v = aig.and_(c, d)
    aig.add_po("u", u)
    aig.add_po("v", v)
    # f = ab + cd built as its own 5-node mux-ish structure: with u and
    # v available as divisors, the whole cone is one OR.
    f = aig.or_(
        aig.and_(aig.and_(a, b), lit_compl(aig.and_(c, d))),
        aig.and_(c, d),
    )
    aig.add_po("f", f)
    cleaned, _ = aig.cleanup()
    substituted = resub(cleaned)
    assert check_combinational_equivalence(cleaned, substituted)
    assert substituted.num_ands == 3  # u, v, and one OR


def test_resub_on_sequential_graphs():
    """Latch outputs are divisor sources like PIs; resets survive."""
    aig = AIG()
    a = aig.add_pi("a")
    s = aig.add_latch("s", reset_kind="sync", reset_value=1)
    aig.set_latch_next(s, aig.and_(a, lit_compl(s)))
    aig.add_po("o", aig.or_(aig.and_(a, s), aig.and_(a, lit_compl(s))))
    cleaned, _ = aig.cleanup()
    substituted = resub(cleaned)
    assert check_combinational_equivalence(cleaned, substituted)


def test_resub_parameter_validation():
    aig = AIG()
    with pytest.raises(ValueError):
        resub(aig, k=0)
    with pytest.raises(ValueError):
        resub(aig, k=7)
    with pytest.raises(ValueError):
        resub(aig, max_divisors=0)
    with pytest.raises(ValueError):
        resub(aig, support_limit=0)


def test_resub_pass_spec_round_trips():
    spec = "resub{k=2,max_divisors=8,support_limit=6}"
    manager = PassManager.parse(spec)
    assert manager.spec() == spec
    assert PassManager.parse(manager.spec()).spec() == spec


def test_resub_pass_runs_in_a_pipeline():
    rng = random.Random(3)
    aig, _ = random_aig(rng)
    cleaned, _ = aig.cleanup()
    ctx = PassManager.parse("resub").compile(aig=cleaned)
    [record] = [r for r in ctx.records if r.name == "resub"]
    assert record.before is not None and record.after is not None
    assert ctx.aig.num_ands <= cleaned.num_ands
    assert check_combinational_equivalence(cleaned, ctx.aig)
