"""One workload process: set up, say READY, run the timed units, check
every output against its reference, and print one JSON line.

``run.py`` starts this process, several times per run for the set-up
probes (``--probe`` exits right after READY).  Arguments mirror
``run.py``'s.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
WORK = Path.cwd() / ".perfbench-work"
#: This process's scratch space (caches, spans), removed at exit.
SCRATCH = WORK / f"run-{os.getpid()}"

#: The seed whose techsweep-paper jobs are exactly ``build_jobs("paper")``.
DEFAULT_SEED = 0
SERVE_CLIENTS = 2
#: Requests per client per unit: 1000 a unit, so even one unit has ten
#: samples beyond its p99.
SERVE_REQUESTS = 500
#: Server-side entry points (only the server process can wrap them).
SERVER_ENTRIES = {entry for entry, _, _ in tracing.SERVER_ENTRY_POINTS}


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    wall_s: float
    window: tuple[float, float]
    latencies: list[float]
    failed: int
    #: Distinct results by job key, and the jobs themselves.
    results: dict
    jobs: dict
    #: Per-layer values read from the program's own counters.
    counters: dict = field(default_factory=dict)
    #: The paper's measures over the unit's distinct results.
    measures: dict | None = None


def fresh_dir(tag: str) -> str:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=SCRATCH)


def _stamped_cache(path: str):
    """A fresh on-disk cache that notes when each compile is stored, so
    each job's latency -- submission of the batch to its result -- is
    known."""
    from repro.flow import CompileCache

    class StampedCache(CompileCache):
        def put(self, key, ctx):
            super().put(key, ctx)
            self.stamps.append(time.perf_counter())

    cache = StampedCache(path)
    cache.stamps = []
    return cache


def _batch_counters(cache, results: dict) -> dict:
    stats = cache.stats()
    backend = stats["backend"]
    stores = stats["snapshot_stores"]
    return {
        "bytes_stored": backend["entry_bytes"] + backend["snapshot_bytes"],
        "snapshot_use_ratio": stats["snapshot_hits"] / stores if stores else 0.0,
        "passes_skipped": sum(
            ctx.meta.get("passes_skipped", 0) for ctx in results.values()
        ),
        "rejected_rounds": sum(
            record.rejected for ctx in results.values() for record in ctx.records
        ),
    }


def _run_batch(tag: str, compile_batch) -> Unit:
    """Time ``compile_batch(cache)`` -> ``(jobs, results)`` on a fresh
    on-disk cache."""
    from repro.flow import CompileJobError

    cache = _stamped_cache(fresh_dir(tag))
    start = tracing.now()
    began = time.perf_counter()
    try:
        jobs, results = compile_batch(cache)
        failed = 0
    except CompileJobError:
        traceback.print_exc()
        jobs, results, failed = {}, {}, 1
    wall = time.perf_counter() - began
    window = (start, tracing.now())
    unit = Unit(
        wall_s=wall,
        window=window,
        latencies=[stamp - began for stamp in cache.stamps],
        failed=failed,
        results=results,
        jobs=jobs,
        counters=_batch_counters(cache, results),
    )
    shutil.rmtree(cache.path, ignore_errors=True)
    return unit


class Batch:
    """A batch workload: each unit compiles its jobs on a fresh cache, so
    every unit yields all of the workload's distinct results."""

    def distinct_results(self, unit: Unit) -> dict:
        return unit.results

    def close(self) -> None:
        pass


class Fig9(Batch):
    """``run_fig9(scale="small")`` as ``python -m repro.expts fig9`` runs
    it: serially, on a fresh on-disk cache, snapshots on -- five
    compiles of the PCtrl.  The design is fixed: the seed only picks
    the reference check's stimulus."""

    ops_per_unit = 5

    def __init__(self, seed: int) -> None:
        from repro.expts import fig9_pctrl

        self.fig9 = fig9_pctrl
        self.batch = None
        real = fig9_pctrl.compile_many

        def observed(jobs, **kwargs):
            jobs = list(jobs)
            results = real(jobs, **kwargs)
            self.batch = (jobs, results)
            return results

        # The reference check needs the jobs and contexts run_fig9
        # compiled; it returns only its table.
        fig9_pctrl.compile_many = observed

    def run_unit(self, tracer) -> Unit:
        def compile_batch(cache):
            result = self.fig9.run_fig9(scale="small", workers=1, cache=cache)
            result.to_markdown()
            jobs, results = self.batch
            self.batch = None
            return {job.key: job for job in jobs}, results

        return _run_batch("fig9", compile_batch)

    def cases(self, unit: Unit, rng: random.Random) -> list:
        import reference
        from repro.smartmem.config import CACHED_CONFIG
        from repro.smartmem.pctrl import build_pctrl

        design = build_pctrl(self.fig9.Fig9Scale.named("small").params)
        full_config = design.bindings(CACHED_CONFIG)
        return [
            reference.pctrl_case(
                "/".join(key), unit.results[key].netlist, job, rng, full_config
            )
            for key, job in unit.jobs.items()
        ]


class TechSweep(Batch):
    """``compile_many(build_jobs("paper"))``, serially, on a fresh on-disk
    cache: 10 controller designs x 2 recipes x 3 libraries.  The seed
    redraws each design at the same shape; the default seed keeps
    ``build_jobs("paper")`` exactly."""

    ops_per_unit = 60

    def __init__(self, seed: int) -> None:
        from repro.expts.techsweep import build_jobs

        jobs = build_jobs("paper")
        if seed != DEFAULT_SEED:
            drawn = {}
            for job in jobs:
                label = job.key[0]
                if label not in drawn:
                    drawn[label] = _redraw(label, job.ctrl, seed)
            jobs = [dataclasses.replace(job, ctrl=drawn[job.key[0]]) for job in jobs]
        self.jobs = jobs

    def run_unit(self, tracer) -> Unit:
        from repro.flow import compile_many

        def compile_batch(cache):
            results = compile_many(self.jobs, workers=1, cache=cache)
            return {job.key: job for job in self.jobs}, results

        return _run_batch("techsweep", compile_batch)

    def cases(self, unit: Unit, rng: random.Random) -> list:
        return _ir_cases(unit.results, unit.jobs, rng)


def _redraw(label: str, ir, seed: int):
    from repro.controllers.fsm import FsmSpec
    from repro.controllers.fsm_random import random_fsm
    from repro.tables.truthtable import TruthTable

    rng = random.Random(f"{label}/seed={seed}")
    if isinstance(ir, FsmSpec):
        return random_fsm(
            ir.num_inputs, ir.num_outputs, ir.num_states, rng, name=label
        )
    return TruthTable.random(ir.num_inputs, ir.num_outputs, rng)


def _ir_cases(results: dict, jobs: dict, rng: random.Random) -> list:
    import reference

    return [
        reference.ir_case("/".join(key), ctx.netlist, jobs[key].ctrl, rng)
        for key, ctx in results.items()
    ]


class ServeWarm:
    """A compile server (``python -m repro.serve``, its own process),
    filled during set-up with one batch of the 36 techsweep-medium
    variants; then 2 client threads send single-job requests in a closed
    loop, sampled with replacement (seeded) from those variants.  Every
    request must hit the cache."""

    ops_per_unit = SERVE_CLIENTS * SERVE_REQUESTS

    def __init__(self, seed: int, inject: dict | None = None) -> None:
        from repro.expts.techsweep import build_jobs

        self.jobs = build_jobs("medium")
        self.rng = random.Random(f"serve-warm/{seed}")
        self.server_inject = ",".join(
            f"{entry}={delay * 1000}" for entry, delay in (inject or {}).items()
        )
        self.server = None
        self.start_server()

    def start_server(self, spans_file: str | None = None) -> None:
        """Start a server on a fresh cache and fill it (set-up work).
        Tracing or injecting goes through the benchmark's launcher."""
        from repro.serve.client import ServeClient

        command = (
            [sys.executable, str(HERE / "serve_launcher.py")]
            if spans_file or self.server_inject
            else [sys.executable, "-m", "repro.serve"]
        )
        env = dict(os.environ)
        if spans_file:
            env["PERFBENCH_SPANS"] = spans_file
        if self.server_inject:
            env["PERFBENCH_INJECT"] = self.server_inject
        self.server = subprocess.Popen(
            command
            + ["--port", "0", "--cache-dir", fresh_dir("serve"), "--quiet"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = self.server.stdout.readline()
        if not banner.startswith("serving on "):
            raise RuntimeError(f"compile server did not start: {banner!r}")
        self.url = banner.split()[2]
        filled = ServeClient(self.url).compile_detailed(self.jobs)
        self.filled = {
            job.key: result.ctx for job, result in zip(self.jobs, filled)
        }
        errors = [result.error for result in filled if result.error is not None]
        if errors:
            raise RuntimeError(f"cold fill failed: {errors[0]}")

    def stop_server(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        server, self.server = self.server, None
        if server is None:
            return 0.0
        peak_kb = 0.0
        if server.poll() is None:
            with open(f"/proc/{server.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = float(line.split()[1])
            server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        return peak_kb / 1024.0

    def run_unit(self, tracer) -> Unit:
        from repro.serve.client import ServeClient, ServeError

        picks = [
            [self.rng.randrange(len(self.jobs)) for _ in range(SERVE_REQUESTS)]
            for _ in range(SERVE_CLIENTS)
        ]
        outcomes: list = [None] * SERVE_CLIENTS

        def client(index: int) -> None:
            serve = ServeClient(self.url)
            latencies, failed, hits, served = [], 0, 0, {}
            for pick in picks[index]:
                job = self.jobs[pick]
                began = time.perf_counter()
                try:
                    result = serve.compile_detailed([job])[0]
                except ServeError:
                    result = None
                latencies.append(time.perf_counter() - began)
                if result is None or result.error is not None:
                    failed += 1
                elif not result.cache_hit:
                    failed += 1  # a warm request that missed
                    served.setdefault(job.key, (result.ctx, False))
                else:
                    hits += 1
                    served.setdefault(job.key, (result.ctx, True))
            outcomes[index] = (latencies, failed, hits, served)

        stats_before = ServeClient(self.url).stats()
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(SERVE_CLIENTS)
        ]
        wire_before = tracer.wire_bytes if tracer else 0
        start = tracing.now()
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        window = (start, tracing.now())
        wire = (tracer.wire_bytes if tracer else 0) - wire_before
        stats_after = ServeClient(self.url).stats()

        latencies, failed, hits, served = [], 0, 0, {}
        for client_latencies, client_failed, client_hits, client_served in outcomes:
            latencies += client_latencies
            failed += client_failed
            hits += client_hits
            for key, value in client_served.items():
                served.setdefault(key, value)
        requests = len(latencies)
        compiled = [ctx for ctx, hit in served.values() if not hit]
        cache_before, cache_after = stats_before["cache"], stats_after["cache"]
        stores = cache_after["snapshot_stores"] - cache_before["snapshot_stores"]

        def stored(stats):
            backend = stats["backend"] or {}
            return backend.get("entry_bytes", 0) + backend.get("snapshot_bytes", 0)

        return Unit(
            wall_s=wall,
            window=window,
            latencies=latencies,
            failed=failed,
            results={key: ctx for key, (ctx, _) in served.items()},
            jobs={job.key: job for job in self.jobs},
            counters={
                "bytes_stored": stored(cache_after) - stored(cache_before),
                "snapshot_use_ratio": (
                    cache_after["snapshot_hits"] - cache_before["snapshot_hits"]
                )
                / stores
                if stores
                else 0.0,
                "passes_skipped": sum(
                    ctx.meta.get("passes_skipped", 0) for ctx in compiled
                ),
                "rejected_rounds": sum(
                    record.rejected for ctx in compiled for record in ctx.records
                ),
                "hit_ratio": hits / requests,
                "wire_bytes": wire / requests,
            },
        )

    def cases(self, unit: Unit, rng: random.Random) -> list:
        return _ir_cases(self.distinct_results(unit), unit.jobs, rng)

    def distinct_results(self, unit: Unit) -> dict:
        """Each variant as a request served it; a variant no request
        drew comes from the fill batch, which the server served too."""
        return {**self.filled, **unit.results}

    def close(self) -> None:
        self.stop_server()


WORKLOADS = {"fig9-pctrl": Fig9, "techsweep-paper": TechSweep, "serve-warm": ServeWarm}


def totals(results: dict) -> dict:
    """The paper's measures, summed over a workload's distinct results."""
    return {
        "area_um2": sum(ctx.area.total for ctx in results.values()),
        "and_nodes": sum(ctx.aig.num_ands for ctx in results.values()),
        "delay_ns": sum(ctx.timing.critical_delay for ctx in results.values()),
    }


def check_outputs(workload, unit: Unit, seed: int) -> tuple[int, list[str], dict]:
    """Reference-check every distinct result; the self-check then feeds
    one corrupted netlist through the same check.  Returns the number
    of failed results, the problems found, and a summary."""
    import reference

    rng = random.Random(f"reference/{seed}")
    cases = workload.cases(unit, rng)
    problems = []
    for case in cases:
        mismatch, _ = reference.run_case(case)
        if mismatch is not None:
            problems.append(mismatch)
    failed = len(problems)
    smallest = min(cases, key=lambda case: len(case.netlist.instances))
    problem, caught = reference.self_check(smallest)
    if problem is not None:
        problems.append(problem)
    return failed, problems, {"checked": len(cases), "self_check": caught}


def layer_metrics(tracer, server_spans, unit: Unit, overhead_s: float):
    """The per-layer metrics of one traced unit, and its per-span
    summary.  ``serve.run_job_s`` is the whole span: its children are
    the check and flow work of serving the request."""
    spans = tracer.spans + server_spans.get("spans", [])
    layers = tracing.self_times(spans, unit.window)
    low, high = unit.window
    folds = [
        (tried, proven)
        for stamp, tried, proven in tracer.folds + server_spans.get("folds", [])
        if low <= stamp <= high
    ]
    tried = sum(t for t, _ in folds)
    proven = sum(p for _, p in folds)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    counters = unit.counters
    codec_and_work = (
        self_s("serve.client_codec") + self_s("serve.server_codec")
        + layers.get("serve.run_job", {}).get("total_s", 0.0)
    )
    serving = "hit_ratio" in counters
    return {
        "sat.solve_s": self_s("sat.solve"),
        "sat.solve_calls": calls("sat.solve"),
        "synth.fold_states_s": self_s("synth.fold_states"),
        "synth.fold_candidates": tried,
        "synth.fold_proven_ratio": proven / tried if tried else 0.0,
        "synth.elaborate_s": self_s("synth.elaborate"),
        "synth.seq_sweep_s": self_s("synth.seq_sweep"),
        "aig.rewrite_s": self_s("aig.rewrite"),
        "aig.cuts_s": self_s("aig.cuts"),
        "aig.cuts_calls": calls("aig.cuts"),
        "aig.tt_sweep_s": self_s("aig.tt_sweep"),
        "aig.balance_s": self_s("aig.balance"),
        "aig.resub_s": self_s("aig.resub"),
        "aig.dc_rewrite_s": self_s("aig.dc_rewrite"),
        "aig.rejected_rounds": counters["rejected_rounds"],
        "tables.isop_s": self_s("tables.isop"),
        "tables.isop_calls": calls("tables.isop"),
        "tech.map_s": self_s("tech.map"),
        "tech.map_calls": calls("tech.map"),
        "tech.size_s": self_s("tech.size"),
        "flow.fingerprint_s": self_s("flow.fingerprint"),
        "flow.cache.get_s": self_s("flow.cache.get"),
        "flow.cache.put_s": self_s("flow.cache.put"),
        "flow.cache.snapshot_put_s": self_s("flow.cache.snapshot_put"),
        "flow.cache.snapshot_get_s": self_s("flow.cache.snapshot_get"),
        "flow.cache.bytes_stored": counters["bytes_stored"],
        "flow.cache.snapshot_use_ratio": counters["snapshot_use_ratio"],
        "flow.passes_skipped": counters["passes_skipped"],
        "check.spec_s": self_s("check.spec"),
        "check.spec_calls": calls("check.spec"),
        "serve.client_codec_s": self_s("serve.client_codec"),
        "serve.server_codec_s": self_s("serve.server_codec"),
        "serve.run_job_s": layers.get("serve.run_job", {}).get("total_s", 0.0),
        "serve.wait_s": sum(unit.latencies) - codec_and_work if serving else 0.0,
        "serve.wire_bytes": counters.get("wire_bytes", 0.0),
        "serve.hit_ratio": counters.get("hit_ratio", 0.0),
        "trace.overhead_s": overhead_s,
    }, layers


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in 0..100."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    inject = tracing.parse_inject(args.inject)
    server_inject = {k: v for k, v in inject.items() if k in SERVER_ENTRIES}
    client_inject = {k: v for k, v in inject.items() if k not in SERVER_ENTRIES}
    if args.workload == "serve-warm":
        workload = ServeWarm(args.seed, server_inject)
    else:
        # A batch workload starts no server, so a server-side delay
        # never fires: the sensitivity check predicts no change there.
        workload = WORKLOADS[args.workload](args.seed)
    try:
        print("READY", flush=True)
        if args.probe:
            return 0
        if client_inject:
            tracing.install(None, "client", client_inject)
        return _measure(workload, args)
    finally:
        workload.close()
        shutil.rmtree(SCRATCH, ignore_errors=True)


def _measure(workload, args) -> int:
    units: list[Unit] = []

    def run_unit(tracer=None) -> Unit:
        if units:
            # Only the latest unit keeps its results (for the reference
            # check), so peak RSS covers one unit however many ran.
            units[-1].results = {}
        unit = workload.run_unit(tracer)
        if unit.results:
            unit.measures = totals(workload.distinct_results(unit))
        units.append(unit)
        return unit

    # Whole units until the time is up: the host's speed drifts in
    # phases of about ten seconds, so a run must span several.
    began = time.perf_counter()
    while not units or (
        not args.trace and time.perf_counter() - began < args.seconds
    ):
        run_unit()
    serving = isinstance(workload, ServeWarm)
    if serving:
        peak_rss_mb = workload.stop_server()
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers_out = None
    if args.trace:
        tracer = tracing.Tracer()
        spans_file = None
        if serving:
            spans_file = os.path.join(fresh_dir("spans"), "server.json")
            workload.start_server(spans_file)
        tracing.install(tracer, "client")
        traced = run_unit(tracer)
        server_spans = {}
        if serving:
            workload.stop_server()
            with open(spans_file, encoding="utf-8") as handle:
                server_spans = json.load(handle)
        layers_out = layer_metrics(
            tracer, server_spans, traced, traced.wall_s - units[0].wall_s
        )
        _write_spans(args, tracer.spans, server_spans.get("spans", []))

    attempted = workload.ops_per_unit * len(units)
    failed = sum(unit.failed for unit in units)
    problems = []
    measures = dict.fromkeys(("area_um2", "and_nodes", "delay_ns"), 0.0)
    checks = {"checked": 0, "self_check": ""}
    if all(unit.measures for unit in units):
        ref_failed, problems, checks = check_outputs(workload, units[-1], args.seed)
        failed += ref_failed
        measures = units[-1].measures
        if any(unit.measures != measures for unit in units):
            problems.append("results differ between units of one run")
    else:
        problems.append("a unit produced no results")

    timed = units[:1] if args.trace else units
    latencies = [latency for unit in timed for latency in unit.latencies]
    walls = [unit.wall_s for unit in timed]
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": workload.ops_per_unit * len(timed) / sum(walls),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        **measures,
    }
    p99 = percentile(latencies, 99)
    info = {
        **checks,
        "units": len(walls),
        "latency_samples": len(latencies),
        "p99_ms": p99 * 1000.0,
        "beyond_p99": sum(1 for value in latencies if value > p99),
    }
    out = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:10],
        "metrics": metrics,
        "info": info,
    }
    if layers_out is not None:
        out["layers"], out["span_summary"] = layers_out
    print(json.dumps(out), flush=True)
    return 0


def _write_spans(args, client_spans, server_spans) -> None:
    """Spans stay in memory during the run and are written out here."""
    path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"client": client_spans, "server": server_spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
