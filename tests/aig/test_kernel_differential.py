"""Differential harness for the truth-table kernel backends.

The kernel contract (:class:`repro.aig.kernel.KernelBackend`) is
"exactly what the pure backend computes": byte-identical tables, the
same ``None``/over-budget outcomes, the same tie-breaks, and therefore
byte-identical optimized AIGs.  This file holds every backend to that:

* hypothesis-random AIGs and a controller-derived AIG run through the
  kernel-aware passes under each backend, comparing canonical hashes
  and PassRecord streams;
* the table algebra is cross-checked exhaustively at small widths and
  randomly at widths past the numpy backend's small-window cutoff
  (both against the canonical ``tt_util`` implementations);
* the fingerprint invisibility of the ``kernel=`` option, the
  resolution precedence (argument > ``REPRO_KERNEL`` > auto), and the
  ``project_table`` range validation are pinned.

Everything here that needs two backends skips cleanly when NumPy is
absent, so the no-NumPy CI leg still runs the pure-only contract
checks.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import tt_util
from repro.aig.dontcare import dc_rewrite
from repro.aig.graph import AIG
from repro.aig.kernel import (
    KERNEL_CHOICES,
    KERNEL_ENV_VAR,
    KernelError,
    available_backends,
    resolve_backend,
)
from repro.aig.resub import resub
from repro.aig.rewrite import rewrite, tt_sweep
from repro.flow import PassManager
from repro.flow.cache import flow_fingerprint
from repro.tables.bits import all_ones, popcount, tt_support
from repro.track.bench import build_wide_window_aig, frontend_inputs

requires_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="NumPy is not installed: only the pure backend exists",
)

#: The kernel-aware passes, each taking ``kernel=``.
KERNEL_PASS_FNS = (
    ("tt_sweep", lambda aig, k: tt_sweep(aig, kernel=k)),
    ("rewrite", lambda aig, k: rewrite(aig, kernel=k)),
    ("resub", lambda aig, k: resub(aig, kernel=k)),
    ("dc_rewrite", lambda aig, k: dc_rewrite(aig, kernel=k)),
)


def build_random_aig(seed, num_inputs, num_nodes):
    rng = random.Random(seed)
    aig = AIG()
    pool = [aig.add_pi(f"x[{i}]") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for index in range(3):
        aig.add_po(f"f{index}", rng.choice(pool) ^ rng.randint(0, 1))
    cleaned, _ = aig.cleanup()
    return cleaned


def forced_vector_backend():
    """A numpy backend with the small-window cutoff disabled, so even
    tiny hypothesis graphs exercise the vector code paths instead of
    delegating to the inherited pure implementations."""
    from repro.aig.kernel.numpy_backend import NumpyBackend

    class ForcedNumpyBackend(NumpyBackend):
        _SMALL_VARS = 0

    return ForcedNumpyBackend()


@st.composite
def random_aig_spec(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_inputs = draw(st.integers(min_value=2, max_value=8))
    num_nodes = draw(st.integers(min_value=1, max_value=60))
    return seed, num_inputs, num_nodes


# -- pass-level differential ------------------------------------------


@requires_numpy
@given(random_aig_spec())
@settings(max_examples=20, deadline=None)
def test_passes_byte_identical_on_random_aigs(spec):
    aig = build_random_aig(*spec)
    pure = resolve_backend("pure")
    vector = resolve_backend("numpy")
    for name, fn in KERNEL_PASS_FNS:
        a = fn(aig, pure)
        b = fn(aig, vector)
        assert a.canonical_hash() == b.canonical_hash(), name


@requires_numpy
@given(random_aig_spec())
@settings(max_examples=10, deadline=None)
def test_passes_byte_identical_on_forced_vector_paths(spec):
    """Same as above with the small-window cutoff disabled, so the
    numpy array code (not its pure delegation) handles every window."""
    aig = build_random_aig(*spec)
    pure = resolve_backend("pure")
    forced = forced_vector_backend()
    for name, fn in KERNEL_PASS_FNS:
        a = fn(aig, pure)
        b = fn(aig, forced)
        assert a.canonical_hash() == b.canonical_hash(), name


@requires_numpy
def test_passes_byte_identical_on_wide_window_workload():
    """The bench workload with genuinely wide supports -- the regime
    the vector paths actually run in under default cutoffs."""
    aig = build_wide_window_aig(num_inputs=12, layers=6)
    pure = resolve_backend("pure")
    vector = resolve_backend("numpy")
    for kwargs in (
        dict(support_limit=12, max_divisors=24),
        dict(support_limit=12, max_divisors=24, k=4),
    ):
        a = resub(aig, kernel=pure, **kwargs)
        b = resub(aig, kernel=vector, **kwargs)
        assert a.canonical_hash() == b.canonical_hash()
    a = dc_rewrite(aig, support_limit=12, kernel=pure)
    b = dc_rewrite(aig, support_limit=12, kernel=vector)
    assert a.canonical_hash() == b.canonical_hash()


@requires_numpy
def test_controller_derived_flow_identical_across_backends():
    """A controller-derived AIG through the kernel-aware pipeline:
    identical result hashes, PassRecord streams (progress flags, AND
    deltas), and context progress under both backends."""
    fsm, _, _, _, _ = frontend_inputs(seed=0)
    seeded = PassManager.parse("fsm_encode{realize=case},elaborate").compile(
        ctrl=fsm
    )
    assert seeded.aig is not None

    def run(kernel):
        spec = (
            f"rewrite{{kernel={kernel}}},"
            f"resub{{kernel={kernel}}},"
            f"dc_rewrite{{kernel={kernel}}}"
        )
        return PassManager.parse(spec).compile(aig=seeded.aig)

    pure_ctx = run("pure")
    vector_ctx = run("numpy")
    assert pure_ctx.aig.canonical_hash() == vector_ctx.aig.canonical_hash()
    assert pure_ctx.progress == vector_ctx.progress

    def record_view(ctx):
        return [
            (r.name, r.skipped, r.rejected, r.failed, r.delta_ands)
            for r in ctx.records
        ]

    assert record_view(pure_ctx) == record_view(vector_ctx)


# -- fingerprint invisibility -----------------------------------------


def test_kernel_option_is_fingerprint_invisible():
    """``kernel=`` parses, typechecks, and renders away: the spec --
    and therefore the flow fingerprint -- is identical for every
    backend choice, so caches are shared across backends."""
    base = PassManager.parse("rewrite,resub{k=4},dc_rewrite")
    aig = build_random_aig(11, 5, 30)
    base_fp = flow_fingerprint(base.spec(), aig=aig)
    for kernel in KERNEL_CHOICES:
        pinned = PassManager.parse(
            f"rewrite{{kernel={kernel}}},"
            f"resub{{k=4,kernel={kernel}}},"
            f"dc_rewrite{{kernel={kernel}}}"
        )
        assert pinned.spec() == base.spec()
        assert flow_fingerprint(pinned.spec(), aig=aig) == base_fp


def test_kernel_option_rejects_unknown_names():
    with pytest.raises(Exception):
        PassManager.parse("rewrite{kernel=fpga}")


# -- backend resolution -----------------------------------------------


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert resolve_backend("pure").name == "pure"
    # Instances pass through untouched.
    backend = resolve_backend("pure")
    assert resolve_backend(backend) is backend
    # The environment is consulted only when no explicit choice is made.
    monkeypatch.setenv(KERNEL_ENV_VAR, "pure")
    assert resolve_backend(None).name == "pure"
    monkeypatch.setenv(KERNEL_ENV_VAR, "bogus")
    with pytest.raises(KernelError):
        resolve_backend(None)
    assert resolve_backend("pure").name == "pure"  # argument beats env


def test_resolve_backend_auto_fallback(monkeypatch):
    import repro.aig.kernel as kernel_mod

    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    monkeypatch.setattr(kernel_mod, "numpy_available", lambda: False)
    # auto degrades silently; explicit numpy is an error.
    assert resolve_backend("auto").name == "pure"
    assert resolve_backend(None).name == "pure"
    with pytest.raises(KernelError):
        resolve_backend("numpy")
    with pytest.raises(KernelError):
        resolve_backend("gpu")


@requires_numpy
def test_resolve_backend_auto_prefers_numpy(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert resolve_backend(None).name == "numpy"
    assert resolve_backend("auto").name == "numpy"
    monkeypatch.setenv(KERNEL_ENV_VAR, "pure")
    assert resolve_backend(None).name == "pure"


# -- table algebra cross-checks ---------------------------------------


@requires_numpy
def test_table_algebra_exhaustive_small_vars():
    """Every table at n <= 3 through every algebra op, pure vs the
    forced-vector backend (the cutoff would otherwise delegate these
    sizes to pure, making the comparison vacuous)."""
    pure = resolve_backend("pure")
    forced = forced_vector_backend()
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            assert pure.popcount(table) == popcount(table)
            assert pure.support(table, n) == tt_support(table, n)
            for position in range(n + 1):
                assert pure.insert_var(table, position, n) == (
                    forced.insert_var(table, position, n)
                )
            for position in range(n):
                assert pure.remove_var(table, position, n) == (
                    forced.remove_var(table, position, n)
                )
            for r in range(n + 1):
                for keep in itertools.combinations(range(n), r):
                    assert pure.project_table(table, keep, n) == (
                        forced.project_table(table, keep, n)
                    )


@requires_numpy
def test_table_algebra_random_wide_vars():
    """Widths past the small-window cutoff, where the stock numpy
    backend really runs its vector code; checked against ``tt_util``
    as the canonical semantics."""
    vector = resolve_backend("numpy")
    rng = random.Random(2011)
    for n in (10, 11, 12):
        for _ in range(12):
            table = rng.getrandbits(1 << n)
            position = rng.randrange(n)
            assert vector.insert_var(table, position, n) == (
                tt_util.insert_var(table, position, n)
            )
            assert vector.remove_var(table, position, n) == (
                tt_util.remove_var(table, position, n)
            )
            keep = tuple(
                sorted(rng.sample(range(n), rng.randint(1, n)))
            )
            assert vector.project_table(table, keep, n) == (
                tt_util.project_table(table, keep, n)
            )
            from_leaves = tuple(sorted(rng.sample(range(100), n)))
            extra = sorted(
                set(range(100, 104)) | set(from_leaves)
            )
            assert vector.expand_table(
                table, from_leaves, tuple(extra)
            ) == tt_util.expand_table(table, from_leaves, tuple(extra))


@requires_numpy
def test_resub_primitives_match_on_wide_tables():
    """dependency_function / pick_divisors on wide random instances,
    vector vs pure (the resub hot path the GEMM scoring replaces)."""
    pure = resolve_backend("pure")
    vector = resolve_backend("numpy")
    rng = random.Random(7)
    for n in (10, 11):
        for _ in range(10):
            table = rng.getrandbits(1 << n)
            divisors = [
                rng.getrandbits(1 << n) for _ in range(rng.randint(1, 12))
            ]
            k = rng.randint(1, 4)
            assert pure.pick_divisors(table, divisors, n, k) == (
                vector.pick_divisors(table, divisors, n, k)
            )
            chosen = divisors[: rng.randint(1, min(4, len(divisors)))]
            assert pure.dependency_function(table, chosen, n) == (
                vector.dependency_function(table, chosen, n)
            )


def minterm_expand_cut(table, from_leaves, to_leaves):
    """The minterm-by-minterm definition of cut expansion: minterm
    ``m`` of the result reads ``table`` at the source minterm whose
    variable ``i`` is bit ``to_leaves.index(from_leaves[i])`` of
    ``m``."""
    if from_leaves == to_leaves:
        return table
    num_to = len(to_leaves)
    if not from_leaves:
        return all_ones(num_to) if table & 1 else 0
    positions = [to_leaves.index(leaf) for leaf in from_leaves]
    result = 0
    for minterm in range(1 << num_to):
        source = 0
        for from_var, to_var in enumerate(positions):
            if minterm >> to_var & 1:
                source |= 1 << from_var
        if table >> source & 1:
            result |= 1 << minterm
    return result


def test_expand_cut_matches_minterm_definition_exhaustively():
    """Every table over every sorted leaf subset of up to 4 leaves."""
    leaves = (3, 8, 21, 40)
    for name in available_backends():
        backend = resolve_backend(name)
        for width in range(len(leaves) + 1):
            for to_leaves in itertools.combinations(leaves, width):
                for size in range(width + 1):
                    for from_leaves in itertools.combinations(to_leaves, size):
                        for table in range(1 << (1 << size)):
                            assert backend.expand_cut(
                                table, from_leaves, to_leaves
                            ) == minterm_expand_cut(
                                table, from_leaves, to_leaves
                            )


def test_expand_cut_matches_minterm_definition_random():
    """Random tables and leaf subsets up to the 6-leaf cut limit."""
    rng = random.Random(2006)
    for name in available_backends():
        backend = resolve_backend(name)
        for _ in range(300):
            to_leaves = tuple(sorted(rng.sample(range(64), rng.randint(1, 6))))
            from_leaves = tuple(
                sorted(rng.sample(to_leaves, rng.randint(0, len(to_leaves))))
            )
            table = rng.getrandbits(1 << len(from_leaves))
            assert backend.expand_cut(
                table, from_leaves, to_leaves
            ) == minterm_expand_cut(table, from_leaves, to_leaves)


# -- project_table range validation (regression) ----------------------


def test_project_table_rejects_out_of_range_positions():
    """``project_table`` must reject keep positions outside the
    table's variable range instead of silently folding garbage --
    in every implementation that exposes it."""
    table = 0b0110  # XOR over 2 vars
    with pytest.raises(ValueError, match="out of range"):
        tt_util.project_table(table, (0, 2), 2)
    with pytest.raises(ValueError, match="out of range"):
        tt_util.project_table(table, (-1,), 2)
    for name in available_backends():
        backend = resolve_backend(name)
        with pytest.raises(ValueError, match="out of range"):
            backend.project_table(table, (0, 2), 2)
        with pytest.raises(ValueError, match="out of range"):
            backend.project_table(table, (-1,), 2)
        # In-range projections still work, identically.
        assert backend.project_table(table, (0, 1), 2) == table
        assert backend.project_table(table, (0,), 2) == 0b10


def test_project_table_full_range_identity():
    for name in available_backends():
        backend = resolve_backend(name)
        universe = all_ones(3)
        for table in (0, 0b10101010, universe):
            assert backend.project_table(table, (0, 1, 2), 3) == table
