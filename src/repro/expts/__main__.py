"""Command-line entry point: regenerate any figure of the paper.

Usage::

    python -m repro.expts fig5 [--scale small|medium|paper]
    python -m repro.expts all --scale medium --out EXPERIMENTS_RUN.md
    python -m repro.expts fig6 --jobs 4            # process fan-out
    python -m repro.expts fig6 --pipeline "fsm_infer,honour_annotations,encode,elaborate,optimize,map,size{clock_period_ns=20.0}"
    python -m repro.expts techsweep --jobs 2       # recipes x libraries
    python -m repro.expts fig6 --server http://127.0.0.1:8731

Synthesis results are fingerprint-cached under ``--cache-dir``
(default ``.repro-cache``), so a repeated run of the same figure at
the same scale performs zero synthesis compiles; ``--no-cache``
disables this.  ``--server`` routes cache misses through a running
``python -m repro.serve`` compile server instead of compiling locally
(the local cache still fronts it).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.flow import CompileCache, default_workers
from repro.expts.fig5_tables import run_fig5
from repro.expts.fig6_fsm import run_fig6
from repro.expts.fig8_stateprop import run_fig8
from repro.expts.fig9_pctrl import run_fig9
from repro.expts.techsweep import run_techsweep

_RUNNERS = {
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "techsweep": run_techsweep,
}

#: Figures whose (single) default pipeline --pipeline may replace;
#: fig8/fig9 compare several flows per design, so an override would
#: not mean anything there.
_PIPELINE_FIGURES = ("fig5", "fig6")


def _cache_counters(cache):
    if cache is None:
        return (0, 0, 0, 0)
    return (cache.memory_hits, cache.disk_hits, cache.misses, cache.stores)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.expts",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figure", choices=sorted(_RUNNERS) + ["all"],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--scale", default="small", choices=["small", "medium", "paper"],
        help="sweep size (small: seconds-minutes; paper: full grid)",
    )
    parser.add_argument(
        "--out", default=None, help="append markdown output to this file"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the synthesis sweeps "
        "(1: serial; 0: one per CPU core)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="SPEC",
        help="pipeline spec replacing the figure's default flow, e.g. "
        "\"elaborate,optimize,map,size{clock_period_ns=20.0}\" "
        f"(only for {'/'.join(_PIPELINE_FIGURES)}; must end in "
        "map/size stages)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="on-disk compile cache shared across runs and workers "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the compile cache for this run",
    )
    parser.add_argument(
        "--server", default=None, metavar="URL",
        help="base URL of a running compile server (python -m "
        "repro.serve); cache misses compile there instead of locally",
    )
    args = parser.parse_args(argv)

    names = sorted(_RUNNERS) if args.figure == "all" else [args.figure]
    if args.pipeline is not None:
        unsupported = [n for n in names if n not in _PIPELINE_FIGURES]
        if unsupported:
            parser.error(
                f"--pipeline is only supported for "
                f"{', '.join(_PIPELINE_FIGURES)} "
                f"(got figure {', '.join(unsupported)})"
            )
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    workers = args.jobs if args.jobs > 0 else default_workers()
    cache = None if args.no_cache else CompileCache(args.cache_dir)

    chunks = []
    for name in names:
        kwargs = {
            "scale": args.scale,
            "workers": workers,
            "cache": cache,
            "server": args.server,
        }
        if name in _PIPELINE_FIGURES and args.pipeline is not None:
            kwargs["pipeline"] = args.pipeline
        started = time.time()
        print(
            f"[{name}] running at scale={args.scale} "
            f"(jobs={workers}, cache={'off' if cache is None else args.cache_dir}) ...",
            flush=True,
        )
        before = _cache_counters(cache)
        result = _RUNNERS[name](**kwargs)
        elapsed = time.time() - started
        result.notes.append(f"runtime: {elapsed:.1f} s at scale={args.scale}")
        if cache is not None:
            # Per-figure deltas: the counters are cumulative across an
            # `all` run.
            after = _cache_counters(cache)
            memory, disk, misses, stores = (
                now - then for now, then in zip(after, before)
            )
            print(
                f"[{name}] cache: {memory} memory hits, {disk} disk hits, "
                f"{misses} misses, {stores} stores",
                flush=True,
            )
        text = result.to_markdown()
        chunks.append(text)
        print(text)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write("\n".join(chunks))
            handle.write("\n")
        print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
