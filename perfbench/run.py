"""The repository benchmark: one workload of the controller-synthesis
flow, measured end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload fig9-pctrl --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The workloads, and why each was
chosen, are listed in ``BENCHMARK.json``:

* ``fig9-pctrl``: ``run_fig9(scale="small")``, five PCtrl compiles.  The
  design is fixed; the seed only picks the reference check's stimulus.
* ``techsweep-paper``: ``compile_many`` over the 60 paper-scale techsweep
  jobs.  The seed redraws the designs at the same shapes.
* ``serve-warm``: two closed-loop clients against a warm compile server.
  The seed draws the request sequence.

Set-up (interpreter, imports, design and job construction; for
serve-warm also server start and the cold fill) is launched several
times per run and its median reported as ``setup_s``.  Every output is
checked against a reference model, and one deliberately corrupted
netlist must fail that check.  The lines printed first are the
human-readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--inject entry=ms`` adds a fixed delay to every call of one wrapped
entry point (``tracing.py``); the sensitivity check uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Set-up launches per run; their median is ``setup_s``.
SETUP_LAUNCHES = {"fig9-pctrl": 5, "techsweep-paper": 5, "serve-warm": 3}
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0

#: Call counts that must repeat exactly, run to run and across
#: PYTHONHASHSEED values.
EXACT_COUNTS = (
    "sat.solve_calls",
    "tables.isop_calls",
    "aig.cuts_calls",
    "tech.map_calls",
    "check.spec_calls",
)
#: Layer metrics a workload bypasses: they must read 0.
BYPASSED = {
    "fig9-pctrl": ("flow.cache.snapshot_use_ratio", "check.spec_calls"),
    "techsweep-paper": ("sat.solve_calls",),
    "serve-warm": (
        "sat.solve_calls", "synth.fold_candidates", "aig.cuts_calls",
        "tables.isop_calls", "tech.map_calls",
    ),
}
#: Layer metrics that must be non-zero on the workload their layer
#: should move.
EXERCISED = {
    "fig9-pctrl": (
        "sat.solve_s", "sat.solve_calls", "synth.fold_states_s",
        "synth.fold_candidates", "synth.fold_proven_ratio",
        "synth.elaborate_s", "synth.seq_sweep_s", "aig.rewrite_s",
        "aig.cuts_s", "aig.cuts_calls", "aig.tt_sweep_s", "aig.balance_s",
        "tables.isop_s", "tables.isop_calls",
    ),
    "techsweep-paper": (
        "aig.rewrite_s", "aig.cuts_s", "aig.cuts_calls", "aig.resub_s",
        "aig.dc_rewrite_s", "aig.rejected_rounds", "tech.map_s", "tech.map_calls", "tech.size_s",
        "flow.fingerprint_s", "flow.cache.put_s", "flow.cache.snapshot_put_s",
        "flow.cache.snapshot_get_s", "flow.cache.bytes_stored",
        "flow.cache.snapshot_use_ratio", "flow.passes_skipped",
    ),
    "serve-warm": (
        "flow.fingerprint_s", "flow.cache.get_s", "check.spec_s",
        "check.spec_calls", "serve.client_codec_s", "serve.server_codec_s",
        "serve.run_job_s", "serve.wait_s", "serve.wire_bytes",
        "serve.hit_ratio",
    ),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: shows machine drift next
    to the numbers of a run."""
    began = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i & 0xFF
    return time.perf_counter() - began


def launch(command: list[str], env: dict, deadline: float):
    """Start one workload process; returns it, the watchdog that kills
    its process group at ``deadline``, and its set-up time (launch to
    the READY line)."""
    began = time.perf_counter()
    # A process group of its own, so the watchdog also stops the
    # compile server a serve-warm process starts.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, process_group=0
    )
    watchdog = threading.Timer(
        max(deadline - began, 0.0), os.killpg, (process.pid, signal.SIGKILL)
    )
    watchdog.daemon = True
    watchdog.start()
    line = process.stdout.readline()
    ready = time.perf_counter() - began
    if line.strip() != "READY":
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        watchdog.cancel()
        raise RuntimeError(f"workload did not get ready: {line!r}")
    return process, watchdog, ready


def finish(process, watchdog) -> str:
    output = process.stdout.read()
    process.wait()
    watchdog.cancel()
    if process.returncode != 0:
        raise RuntimeError(f"workload exited with {process.returncode}")
    return output


def check_counts(workload: str, seed: int, layers: dict, hash_seed: str) -> list[str]:
    """Compare this traced run's call counts with the first traced run
    of the same workload and seed in this checkout."""
    record_file = Path.cwd() / ".perfbench-work" / f"counts-{workload}-seed{seed}.json"
    counts = {name: layers[name] for name in EXACT_COUNTS}
    flags = []
    if record_file.exists():
        record = json.loads(record_file.read_text())
        for name, value in counts.items():
            if record["counts"][name] != value:
                flags.append(
                    f"{name} = {value} (PYTHONHASHSEED={hash_seed}) but "
                    f"{record['counts'][name]} in an earlier run "
                    f"(PYTHONHASHSEED={record['hash_seed']})"
                )
    else:
        record_file.parent.mkdir(exist_ok=True)
        record_file.write_text(json.dumps({"counts": counts, "hash_seed": hash_seed}))
    return flags


def check_predictions(workload: str, layers: dict) -> list[str]:
    flags = [
        f"{name} = {layers[name]}, predicted 0"
        for name in BYPASSED.get(workload, ())
        if layers[name] != 0
    ]
    flags += [
        f"{name} = 0, predicted non-zero"
        for name in EXERCISED.get(workload, ())
        if not layers[name]
    ]
    return flags


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="", metavar="ENTRY=MS[,...]")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "flow").is_dir():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    if args.trace:
        env.setdefault("PYTHONHASHSEED", str(random.SystemRandom().randrange(1, 2**32)))
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inject", args.inject,
    ]

    def probe():
        process, watchdog, ready = launch(command + ["--probe"], env, deadline)
        finish(process, watchdog)
        setups.append(ready)

    # Set-up probes go before and after the measured launch, so their
    # median spans more than one phase of the host's speed.
    probes = 0 if args.trace else SETUP_LAUNCHES[args.workload] - 1
    calib = [calibrate()]
    setups: list[float] = []
    for _ in range(probes // 2):
        probe()
    process, watchdog, ready = launch(command, env, deadline)
    setups.append(ready)
    result = json.loads(finish(process, watchdog).strip().splitlines()[-1])
    for _ in range(probes - probes // 2):
        probe()
    calib.append(calibrate())

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = dict(result["layers"], **{"host.calib_s": statistics.mean(calib)})
        flags = check_predictions(args.workload, values)
        flags += check_counts(args.workload, args.seed, values, env["PYTHONHASHSEED"])
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        flags = []
    report(
        args, result, values, names, units, setups, calib, flags,
        env.get("PYTHONHASHSEED", "(not set)"),
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


def report(args, result, values, names, units, setups, calib, flags, hash_seed) -> None:
    info = result["info"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          + (f" inject={args.inject}" if args.inject else ""))
    print(f"  calibration loop: {calib[0]:.4f} s before, {calib[1]:.4f} s after")
    for name in names:
        value = values[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>14s} {units[name]}")
    if not args.trace:
        # The summed critical-path delay is a property of the netlists,
        # not a measured time: it repeats exactly, run to run.
        print(f"  {'delay_ns':32s} {result['metrics']['delay_ns']:>14.6g} ns "
              f"(summed critical-path delay)")
        print(f"  setup launches: {', '.join(f'{s:.4f}' for s in setups)} s")
        print(f"  wall_s is the median of {info['units']} unit(s); "
              f"latency_p50_ms is over {info['latency_samples']} operations")
        if info["beyond_p99"] >= 10:
            print(f"  latency_p99_ms {info['p99_ms']:.4f} ms "
                  f"({info['beyond_p99']} samples beyond it)")
        else:
            print(f"  latency_p99_ms not reported: {info['beyond_p99']} samples "
                  f"beyond it, fewer than 10")
    else:
        print("  layer self times (s) and calls in the traced unit:")
        for span, entry in sorted(result["span_summary"].items()):
            print(f"    {span:28s} self {entry['self_s']:10.4f}  "
                  f"total {entry['total_s']:10.4f}  calls {entry['calls']}")
        print(f"  PYTHONHASHSEED={hash_seed}")
    print(f"  reference check: {info['checked']} distinct results; "
          f"self-check: {info['self_check'] or 'FAILED'}")
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate {rate:.6g} fraction ({result['failed']} failed of "
          f"{result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for flag in flags:
        print(f"  FLAG {flag}")


if __name__ == "__main__":
    sys.exit(main())
