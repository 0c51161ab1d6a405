"""``repro.track`` -- cross-commit regression tracking for flow runs.

This package is the command-line face of the run store
(:mod:`repro.flow.store`)::

    python -m repro.track record fig5 --scale small   # run + persist
    python -m repro.track list                        # what is stored
    python -m repro.track diff HEAD~1 HEAD            # compare commits
    python -m repro.track report --last 5             # sparkline trends
    python -m repro.track gc --max-bytes 500M         # compile-cache GC

``record`` runs a figure driver (or the per-pass benchmark) and
stores its complete :class:`~repro.expts.common.ExperimentResult` --
every figure point plus per-pass wall-time totals -- under the
resolved commit.  ``diff`` compares two stored commits point-by-point
and pass-by-pass and exits non-zero when a regression exceeds the
thresholds, which is what the CI gate runs.  Figure records inherit
the compile cache, so re-recording an unchanged commit performs zero
synthesis compiles and reproduces the stored timings exactly; bench
records always execute (their wall times are the payload).

See ``docs/cli.md`` for the full command reference.
"""

from __future__ import annotations

import argparse
import datetime
import subprocess
import sys
import time

from repro.flow import CompileCache, default_workers, diff_runs
from repro.flow.store import DEFAULT_STORE_DIR, RunRecord, RunStore, StoreError
from repro.track.bench import BENCH_FIGURE, run_pass_bench
from repro.track.report import build_report, cmd_report

#: Figure drivers the ``record`` subcommand can run, in run order.
FIGURE_NAMES = (
    "fig5", "fig6", "fig8", "fig9", "techsweep", "replay", "prefixgrid",
)

#: Default regression thresholds: areas are deterministic, so any
#: growth beyond rounding is suspect; wall clocks are noisy, so only
#: large relative slowdowns of non-trivial passes trip the gate.
DEFAULT_AREA_PCT = 1.0
DEFAULT_TIME_PCT = 50.0
DEFAULT_MIN_TIME_S = 0.05


def resolve_ref(ref: str) -> str:
    """Resolve a git ref to a full commit sha via ``git rev-parse``.

    Outside a git checkout (or for a label like ``worktree`` that
    names no commit), the ref is returned unchanged -- the store keys
    on strings, not on git objects, so labelled runs still work.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ref
    resolved = proc.stdout.strip()
    return resolved if proc.returncode == 0 and resolved else ref


def worktree_dirty() -> bool:
    """Does the current checkout carry uncommitted *tracked* changes?

    Untracked files are ignored deliberately: the run store and the
    compile cache themselves appear as untracked directories on a
    perfectly clean checkout, and untracked files cannot change what
    committed code computes.  Best effort: outside a git checkout (or
    when git itself fails) the answer is False -- callers use this to
    *label* records, never to gate them.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 0 and bool(proc.stdout.strip())


def _figures_for(names: list[str]) -> list[str]:
    expanded: list[str] = []
    for name in names:
        targets = (
            list(FIGURE_NAMES) + [BENCH_FIGURE] if name == "all" else [name]
        )
        for target in targets:
            if target not in expanded:
                expanded.append(target)
    return expanded


def _run_figure(name: str, scale: str, workers: int, cache) -> "object":
    # Imported here so ``track list``/``diff``/``gc`` stay fast.
    from repro.expts import (
        run_fig5,
        run_fig6,
        run_fig8,
        run_fig9,
        run_prefixgrid,
        run_replay,
        run_techsweep,
    )

    runners = {
        "fig5": run_fig5, "fig6": run_fig6,
        "fig8": run_fig8, "fig9": run_fig9,
        "techsweep": run_techsweep, "replay": run_replay,
        "prefixgrid": run_prefixgrid,
    }
    return runners[name](scale=scale, workers=workers, cache=cache)


def cmd_record(args) -> int:
    """Run figure/bench sweeps and persist them under one commit."""
    from repro.flow.store import now
    from repro.synth.compiler import DesignCompiler

    store = RunStore(args.store_dir)
    commit = resolve_ref(args.commit)
    if args.commit == "HEAD" and commit != args.commit and worktree_dirty():
        # Not a hard stop -- docs tell users to record from clean
        # checkouts, and tests record under explicit labels -- but a
        # record silently keyed to a sha its tree does not match is
        # exactly the misread `track diff` exists to prevent.
        print(
            f"warning: recording HEAD ({commit[:12]}) from a dirty "
            f"worktree; uncommitted changes will be stored under the "
            f"clean commit sha (use --commit LABEL to key them apart)"
        )
    workers = args.jobs if args.jobs > 0 else default_workers()
    cache = None if args.no_cache else CompileCache(args.cache_dir)
    library_hash = DesignCompiler().library.canonical_hash()

    for name in _figures_for(args.figures):
        started = time.time()
        if name == BENCH_FIGURE:
            # Always executed, never cached: the timings are the point.
            result = run_pass_bench()
            scale = ""
        else:
            result = _run_figure(name, args.scale, workers, cache)
            scale = args.scale
        result.meta.setdefault("scale", scale)
        if name in ("techsweep", "replay", "prefixgrid"):
            # These sweeps map against every registered library; their
            # records must guard on all of them, not just the default.
            from repro.expts.techsweep import swept_libraries_hash

            figure_library = swept_libraries_hash(
                tuple(result.meta["libraries"])
            )
        else:
            figure_library = library_hash
        record = RunRecord(
            figure=name,
            commit=commit,
            result=result,
            scale=scale,
            library=figure_library,
            created_at=now(),
        )
        path = store.put(record)
        print(
            f"[{name}] recorded {len(result.points)} point(s), "
            f"{len(result.pass_totals)} pass total(s) at commit "
            f"{commit[:12]} in {time.time() - started:.1f}s -> {path}"
        )
        if cache is not None and name != BENCH_FIGURE:
            print(f"[{name}] {cache.stats_line()}")
    return 0


def cmd_list(args) -> int:
    """Print every stored record, oldest commit first."""
    store = RunStore(args.store_dir)
    rows = list(store.entries())
    if not rows:
        print(f"run store {store.root} is empty")
        return 0
    for record in rows:
        stamp = datetime.datetime.fromtimestamp(
            record.created_at
        ).strftime("%Y-%m-%d %H:%M:%S")
        scale = f" scale={record.scale}" if record.scale else ""
        print(
            f"{record.commit[:12]}  {record.figure:<12} {stamp}{scale}  "
            f"{len(record.result.points)} point(s), "
            f"{len(record.result.pass_totals)} pass total(s)"
        )
    return 0


def cmd_diff(args) -> int:
    """Compare two commits' stored runs; non-zero exit on regression."""
    store = RunStore(args.store_dir)
    ref_a = resolve_ref(args.ref_a)
    ref_b = resolve_ref(args.ref_b)
    figures = args.figure or sorted(
        set(store.figures(ref_a)) | set(store.figures(ref_b))
    )
    if not figures:
        print(
            f"no records for {args.ref_a} ({ref_a[:12]}) or "
            f"{args.ref_b} ({ref_b[:12]}) in {store.root}; "
            f"run `python -m repro.track record` first"
        )
        return 2 if args.strict else 0

    missing = False
    regressed = False
    for figure in figures:
        baseline = store.get(ref_a, figure)
        current = store.get(ref_b, figure)
        if baseline is None or current is None:
            side = args.ref_a if baseline is None else args.ref_b
            print(f"== {figure}: no record at {side} -- skipped ==")
            missing = True
            continue
        diff = diff_runs(baseline, current)
        print(
            diff.render(
                args.max_area_pct, args.max_time_pct, args.min_time_s,
                delay_threshold_pct=args.max_delay_pct,
            )
        )
        over = (
            diff.area_regressions(args.max_area_pct)
            or diff.time_regressions(args.max_time_pct, args.min_time_s)
            or (
                args.max_delay_pct is not None
                and diff.delay_regressions(args.max_delay_pct)
            )
        )
        if args.same_structure:
            # Byte-identity gate: the two runs must have done the
            # same *work* -- same figure points, same call/AND-delta
            # counters -- with only wall clocks free to move.  This is
            # how CI checks that prefix resume is deterministic.
            drift = (
                diff.changed_points()
                or diff.structural_changes()
                or diff.incomplete
            )
            if drift:
                print(
                    f"!! --same-structure: {figure} did different work "
                    f"between {args.ref_a} and {args.ref_b}"
                )
                regressed = True
        if over:
            regressed = True
    if regressed and not args.warn_only:
        delay_clause = (
            ""
            if args.max_delay_pct is None
            else f", delay > {args.max_delay_pct}%"
        )
        print(
            f"REGRESSION: thresholds exceeded "
            f"(area > {args.max_area_pct}%, time > {args.max_time_pct}%"
            f"{delay_clause})"
        )
        return 1
    if missing and args.strict:
        return 2
    return 0


def _parse_size(text: str) -> int:
    """Parse a non-negative byte size with an optional K/M/G suffix
    (``500M``)."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    suffix = text[-1:].upper()
    try:
        if suffix in scale:
            size = int(float(text[:-1]) * scale[suffix])
        else:
            size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (want bytes or a K/M/G suffix)"
        ) from None
    if size < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0, got {text!r}")
    return size


def _parse_days(text: str) -> float:
    """Parse a non-negative day count."""
    try:
        days = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid day count {text!r}"
        ) from None
    if days < 0:
        raise argparse.ArgumentTypeError(
            f"day count must be >= 0, got {text!r}"
        )
    return days


def cmd_gc(args) -> int:
    """Sweep the compile cache by age and size budget."""
    if args.max_bytes is None and args.max_age_days is None:
        print("gc: nothing to do (give --max-bytes and/or --max-age-days)")
        return 2
    cache = CompileCache(args.cache_dir)
    stats = cache.sweep(
        max_bytes=args.max_bytes, max_age_days=args.max_age_days
    )
    print(f"{args.cache_dir}: {stats}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.track",
        description="Record, list, and diff flow runs across commits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_dir(p):
        p.add_argument(
            "--store-dir", default=DEFAULT_STORE_DIR, metavar="DIR",
            help="run store directory (default: %(default)s)",
        )

    record = sub.add_parser(
        "record", help="run figure/bench sweeps and store the results"
    )
    record.add_argument(
        "figures", nargs="+",
        choices=sorted(FIGURE_NAMES) + [BENCH_FIGURE, "bench", "all"],
        help="figure drivers and/or the per-pass benchmark",
    )
    record.add_argument(
        "--scale", default="small", choices=["small", "medium", "paper"],
        help="sweep size for the figure drivers (default: %(default)s)",
    )
    record.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1: serial; 0: one per core)",
    )
    record.add_argument(
        "--commit", default="HEAD", metavar="REF",
        help="commit (or label) to store the run under; git refs are "
        "resolved to full shas (default: %(default)s)",
    )
    record.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="compile cache shared with python -m repro.expts "
        "(default: %(default)s)",
    )
    record.add_argument(
        "--no-cache", action="store_true",
        help="disable the compile cache for this record",
    )
    add_store_dir(record)
    record.set_defaults(func=cmd_record)

    listing = sub.add_parser("list", help="list stored runs")
    add_store_dir(listing)
    listing.set_defaults(func=cmd_list)

    diff = sub.add_parser(
        "diff", help="compare two commits' stored runs"
    )
    diff.add_argument("ref_a", help="baseline commit (git ref or label)")
    diff.add_argument("ref_b", help="current commit (git ref or label)")
    diff.add_argument(
        "--figure", action="append", metavar="NAME",
        help="restrict to this figure (repeatable; default: every "
        "figure either commit recorded)",
    )
    diff.add_argument(
        "--max-area-pct", type=float, default=DEFAULT_AREA_PCT,
        metavar="PCT",
        help="flag figure points whose measured value grew more than "
        "this percentage (default: %(default)s)",
    )
    diff.add_argument(
        "--max-time-pct", type=float, default=DEFAULT_TIME_PCT,
        metavar="PCT",
        help="flag passes whose total wall time grew more than this "
        "percentage (default: %(default)s)",
    )
    diff.add_argument(
        "--max-delay-pct", type=float, default=None, metavar="PCT",
        help="additionally flag figure points whose achieved critical "
        "delay grew more than this percentage, or that stopped "
        "meeting their clock target (default: timing gate off; "
        "points recorded without timing are exempt)",
    )
    diff.add_argument(
        "--min-time-s", type=float, default=DEFAULT_MIN_TIME_S,
        metavar="SEC",
        help="ignore wall-time changes of passes faster than this on "
        "both sides (default: %(default)s)",
    )
    diff.add_argument(
        "--same-structure", action="store_true",
        help="additionally require the two runs to have done "
        "identical work (no figure-point changes, no pass call/AND "
        "count drift; wall times remain free) -- the determinism "
        "gate for two records of the prefix benchmark",
    )
    diff.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soft-launch mode)",
    )
    diff.add_argument(
        "--strict", action="store_true",
        help="exit 2 when a compared record is missing instead of "
        "skipping it",
    )
    add_store_dir(diff)
    diff.set_defaults(func=cmd_diff)

    report = sub.add_parser(
        "report",
        help="sparkline trends of stored runs across recent commits",
    )
    report.add_argument(
        "--last", type=int, default=5, metavar="N",
        help="cover the N most recent recorded commits "
        "(default: %(default)s)",
    )
    report.add_argument(
        "--figure", action="append", metavar="NAME",
        help="restrict to this figure (repeatable; default: every "
        "figure the covered commits recorded)",
    )
    report.add_argument(
        "--top", type=int, default=6, metavar="K",
        help="show the K heaviest passes per figure "
        "(default: %(default)s)",
    )
    report.add_argument(
        "--out", default=None, metavar="FILE",
        help="append the markdown report to this file instead of "
        "printing it",
    )
    add_store_dir(report)
    report.set_defaults(func=cmd_report)

    gc = sub.add_parser(
        "gc", help="evict old/oversized compile-cache entries"
    )
    gc.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="compile cache to sweep (default: %(default)s)",
    )
    gc.add_argument(
        "--max-bytes", type=_parse_size, default=None, metavar="SIZE",
        help="size budget (bytes, or with a K/M/G suffix: 500M)",
    )
    gc.add_argument(
        "--max-age-days", type=_parse_days, default=None, metavar="DAYS",
        help="evict entries older than this many days",
    )
    gc.set_defaults(func=cmd_gc)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # `bench` is an alias for the stored figure name, on both the
    # record targets and diff's --figure filters.
    for attr in ("figures", "figure"):
        names = getattr(args, attr, None)
        if names is not None:
            setattr(
                args,
                attr,
                [BENCH_FIGURE if n == "bench" else n for n in names],
            )
    try:
        return args.func(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = [
    "BENCH_FIGURE",
    "FIGURE_NAMES",
    "build_parser",
    "build_report",
    "main",
    "resolve_ref",
    "run_pass_bench",
]
