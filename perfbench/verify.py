"""Checks on the benchmark itself; each writes its record under
``perfbench/results/``.  Run from the repository root:

    python3 perfbench/verify.py spread --workload W --seeds 1-10 --tag a
        Runs W once per seed; per end-to-end metric, the median, the
        quartiles and the quartile spread as a share of the median
        (``statistics.quantiles(values, n=4)``), against the bound.
    python3 perfbench/verify.py compare --tags a b
        Per workload and metric: is the second set's median worse than
        the first's by more than the bound?
    python3 perfbench/verify.py determinism --workload W [--seed N]
        Two traced runs under different PYTHONHASHSEED values; the call
        counts must agree exactly and the bypass predictions must hold.
    python3 perfbench/verify.py sensitivity --inject ENTRY=MS --runs N
        Every workload with a fixed per-call delay on one entry point,
        compared with the ``spread`` medians of tag ``a``.
    python3 perfbench/verify.py bare
        In a directory holding only BENCHMARK.json and perfbench/, the
        benchmark must fail without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def run(workload: str, seed: int, trace: int = 0, inject: str = "", env=None):
    """One benchmark run; returns (last-line JSON, report lines, seconds)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    if inject:
        command += ["--inject", inject]
    began = time.perf_counter()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, **(env or {})),
    )
    took = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], took


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def cmd_spread(args) -> int:
    runs = []
    for seed in parse_seeds(args.seeds):
        result, report, took = run(args.workload, seed)
        runs.append({"seed": seed, "seconds": took, "result": result,
                     "report": report})
        metrics = result["metrics"]
        print(f"seed {seed}: {took:.1f} s, correct={result['correct']}, "
              + ", ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
              flush=True)
    summary = {}
    for name in BOUNDS:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = summarize(values)
        entry["bound"] = BOUNDS[name]
        entry["within_third"] = entry["spread"] <= BOUNDS[name] / 3
        summary[name] = entry
        print(f"  {name:16s} median {entry['median']:.6g}  spread "
              f"{entry['spread']:.4f}  bound {BOUNDS[name]}"
              + ("" if name == "setup_s" or entry["within_third"]
                 else "  (above a third of the bound)"))
    record = {"workload": args.workload, "tag": args.tag, "runs": runs,
              "summary": summary,
              "all_correct": all(r["result"]["correct"] for r in runs)}
    save(f"spread-{args.workload}-{args.tag}.json", record)
    return 0


def cmd_compare(args) -> int:
    first_tag, second_tag = args.tags
    worse = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        try:
            first = load(f"spread-{workload}-{first_tag}.json")["summary"]
            second = load(f"spread-{workload}-{second_tag}.json")["summary"]
        except FileNotFoundError:
            continue
        for name, bound in BOUNDS.items():
            a, b = first[name]["median"], second[name]["median"]
            change = (b - a) / a if a else 0.0
            regression = change if BETTER[name] == "lower" else -change
            status = "WORSE" if regression > bound else "ok"
            if status != "ok":
                worse.append((workload, name))
            print(f"{workload:16s} {name:16s} {a:12.6g} -> {b:12.6g} "
                  f"({change:+.2%}, bound {bound:.0%}) {status}")
    save(f"compare-{first_tag}-{second_tag}.json", {"worse": worse})
    return 1 if worse else 0


def cmd_determinism(args) -> int:
    counts, flags = [], []
    for hash_seed in ("1", "2"):
        result, report, _ = run(args.workload, args.seed, trace=1,
                                env={"PYTHONHASHSEED": hash_seed})
        counts.append({name: result["metrics"][name]["value"]
                       for name in EXACT_COUNTS})
        flags += [line.strip() for line in report if "FLAG" in line]
    agree = counts[0] == counts[1]
    print(f"{args.workload}: counts {counts[0]} "
          f"{'agree' if agree else 'DIFFER: ' + str(counts[1])}")
    for flag in flags:
        print(f"  {flag}")
    save(f"determinism-{args.workload}.json",
         {"hash_seeds": ["1", "2"], "counts": counts, "agree": agree,
          "flags": flags})
    return 0 if agree and not flags else 1


def cmd_sensitivity(args) -> int:
    baseline = {
        w["name"]: load(f"spread-{w['name']}-{args.baseline}.json")["summary"]
        for w in SPEC["workloads"]
    }
    record = {"inject": args.inject, "runs": []}
    for workload in baseline:
        for seed in range(1, args.runs + 1):
            result, _, took = run(workload, seed, inject=args.inject)
            moved = {}
            for name, bound in BOUNDS.items():
                if name == "setup_s":
                    continue
                base = baseline[workload][name]["median"]
                value = result["metrics"][name]["value"]
                change = (value - base) / base if base else 0.0
                regression = change if BETTER[name] == "lower" else -change
                if regression > bound:
                    moved[name] = round(change, 4)
            print(f"{workload} seed {seed}: moved past bound: {moved or 'none'}",
                  flush=True)
            record["runs"].append({"workload": workload, "seed": seed,
                                   "seconds": took, "result": result,
                                   "moved_past_bound": moved})
    save(f"sensitivity-{args.inject.replace('=', '-')}.json", record)
    return 0


def cmd_bare(args) -> int:
    bare = Path.cwd() / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    ok = done.returncode != 0 and not done.stdout.strip()
    print(f"exit {done.returncode}, stdout {done.stdout!r}, "
          f"stderr {done.stderr.strip()!r}: {'ok' if ok else 'NOT OK'}")
    save("bare.json", {"exit": done.returncode, "stdout": done.stdout,
                       "stderr": done.stderr, "ok": ok})
    return 0 if ok else 1


def save(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")


def load(name: str) -> dict:
    return json.loads((RESULTS / name).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spread = sub.add_parser("spread")
    spread.add_argument("--workload", required=True)
    spread.add_argument("--seeds", default="1-10")
    spread.add_argument("--tag", default="a")
    compare = sub.add_parser("compare")
    compare.add_argument("--tags", nargs=2, default=["a", "b"])
    determinism = sub.add_parser("determinism")
    determinism.add_argument("--workload", required=True)
    determinism.add_argument("--seed", type=int, default=1)
    sensitivity = sub.add_parser("sensitivity")
    sensitivity.add_argument("--inject", required=True)
    sensitivity.add_argument("--runs", type=int, default=2)
    sensitivity.add_argument("--baseline", default="a")
    sub.add_parser("bare")
    args = parser.parse_args(argv)
    return {
        "spread": cmd_spread, "compare": cmd_compare,
        "determinism": cmd_determinism, "sensitivity": cmd_sensitivity,
        "bare": cmd_bare,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
