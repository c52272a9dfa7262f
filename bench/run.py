"""Caller-side benchmark of the BitColor reproduction.

Usage, from the root of a checkout::

    python3 bench/run.py --workload socket-mixed --seed 1 --seconds 10 --trace 0

Runs one workload (see ``bench/README.md``), checks every output, and
prints one line per metric (``workload metric value unit n=samples``)
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced and then with timing
wrappers around each layer's public functions, and reports the
per-layer metrics.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "protocol.request_encode_ms": "ms",
    "protocol.request_decode_ms": "ms",
    "protocol.result_ms": "ms",
    "protocol.request_bytes": "bytes",
    "protocol.decodes_per_request": "count",
    "transport.self_ms": "ms",
    "fingerprint.ms": "ms",
    "fingerprint.calls_per_request": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.execute_ms": "ms",
    "router.route_ms": "ms",
    "router.batch_lane_share": "share",
    "batcher.jobs_per_batch": "count",
    "batcher.run_ms": "ms",
    "cache.hit_share": "share",
    "kernels.scatter_or_ms": "ms",
    "kernels.first_free_ms": "ms",
    "mesh.forward_ms": "ms",
    "mesh.router_self_ms": "ms",
    "mesh.max_worker_share": "share",
    "sessions.apply_ms": "ms",
    "sessions.full_recolor_share": "share",
    "hw.run_ms": "ms",
    "hw.replay_ms": "ms",
    "hw.precompute_ms": "ms",
    "hw.cycles.compute": "cycles",
    "hw.cycles.dram": "cycles",
    "hw.cycles.stall": "cycles",
    "hw.cycles.dram_queue": "cycles",
    "hw.makespan_cycles": "cycles",
    "trace.overhead_pct": "%",
}


def host_header(seed: int) -> dict:
    """Where and on what the run was measured."""
    from repro.kernels import capabilities

    caps = capabilities()  # also builds the native tier before any clock
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    backend = caps["native_backend"] or {}
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "native_backend": backend.get("name"),
        "compiler": backend.get("version"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "commit": commit,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(workload, phase) -> dict:
    return {
        "setup_s": statistics.median(phase.setup_s),
        "p50_ms": percentile(phase.latencies, 50) * 1e3,
        "tail_ms": percentile(phase.latencies, workload.tail) * 1e3,
        "ops_per_s": phase.ops / phase.elapsed if phase.elapsed > 0 else 0.0,
    }


def per_layer(phase, spans, untraced_p50_ms: float) -> dict:
    """The per-layer metrics of one traced phase.

    A ``_ms`` metric is the time spent in that layer during the phase
    divided by the number of headline operations, except the protocol
    and transport ones, which are per color request, and the
    ``service.*`` ones, which are per job from ``JobResult.timings``.
    """
    ops = max(phase.ops, 1)
    # Only work started inside the measured window counts: boots and
    # cache warm-up happen before it.
    lo, hi = phase.window
    spans = [s for s in spans if lo <= s["start"] <= hi]
    roots = {s["rid"]: s for s in spans if s["name"] == "client.roundtrip"}
    color_rids = [rid for rid in roots if rid.startswith("c")]
    n_color = max(len(color_rids), 1)
    by_rid: dict = {}
    for s in spans:
        if s["rid"] is not None and s["name"] != "client.roundtrip":
            by_rid.setdefault(s["rid"], []).append(s)

    def spans_named(*names, color_only=False):
        return [s for s in spans if s["name"] in names
                and (not color_only or (s["rid"] or "").startswith("c"))]

    def seconds(*names, color_only=False):
        return sum(s["end"] - s["start"] for s in spans_named(*names, color_only=color_only))

    decodes = spans_named("protocol.request_from_wire", "mesh.request_from_wire", color_only=True)
    wire = [rid for rid in color_rids if any(s["name"].startswith("protocol.") for s in by_rid.get(rid, ()))]
    transport = [tracing.self_seconds(roots[rid], by_rid[rid]) for rid in wire]
    worker_decodes: dict = {}
    if spans_named("mesh.forward"):
        for s in spans_named("protocol.request_from_wire", color_only=True):
            worker_decodes[s["pid"]] = worker_decodes.get(s["pid"], 0) + 1
    results = phase.results
    queue_ms = [r.timings.get("queue", 0.0) * 1e3 for r in results]
    batched = [r.batched for r in results if r.batched > 0]
    run_s = seconds("hw.run_batched")
    replay_s = seconds("hw.replay_epoch")
    stats = phase.hw_stats
    p50_ms = percentile(phase.latencies, 50) * 1e3
    return {
        "protocol.request_encode_ms": seconds("protocol.request_to_wire", "protocol.write_frame",
                                              color_only=True) * 1e3 / n_color,
        "protocol.request_decode_ms": seconds("protocol.request_from_wire", "mesh.request_from_wire",
                                              color_only=True) * 1e3 / n_color,
        "protocol.result_ms": seconds("protocol.result_to_wire", "protocol.result_from_wire",
                                      color_only=True) * 1e3 / n_color,
        "protocol.request_bytes": phase.request_bytes,
        "protocol.decodes_per_request": len(decodes) / n_color,
        "transport.self_ms": float(np.mean(transport)) * 1e3 if transport else 0.0,
        "fingerprint.ms": seconds("graph.csr_fingerprint") * 1e3 / ops,
        "fingerprint.calls_per_request": len(spans_named("graph.csr_fingerprint")) / ops,
        "service.queue_wait_p50_ms": percentile(queue_ms, 50),
        "service.queue_wait_p99_ms": percentile(queue_ms, 99),
        "service.execute_ms": float(np.mean([r.timings.get("execute", 0.0) for r in results])) * 1e3
        if results else 0.0,
        "router.route_ms": seconds("router.route") * 1e3 / ops,
        "router.batch_lane_share": len(batched) / len(results) if results else 0.0,
        "batcher.jobs_per_batch": float(np.mean(batched)) if batched else 0.0,
        "batcher.run_ms": seconds("batcher.run_microbatch") * 1e3 / ops,
        "cache.hit_share": float(np.mean([r.cache_hit for r in results])) if results else 0.0,
        "kernels.scatter_or_ms": seconds("kernels.scatter_or") * 1e3 / ops,
        "kernels.first_free_ms": seconds("kernels.first_free") * 1e3 / ops,
        "mesh.forward_ms": seconds("mesh.forward") * 1e3 / ops,
        "mesh.router_self_ms": (seconds("mesh.handle_color_message") - seconds("mesh.forward"))
        * 1e3 / ops,
        "mesh.max_worker_share": max(worker_decodes.values()) / sum(worker_decodes.values())
        if worker_decodes else 0.0,
        "sessions.apply_ms": seconds("sessions.apply") * 1e3 / ops,
        "sessions.full_recolor_share": float(np.mean([o.mode == "full" for o in phase.outcomes]))
        if phase.outcomes else 0.0,
        "hw.run_ms": run_s * 1e3 / ops,
        "hw.replay_ms": replay_s * 1e3 / ops,
        "hw.precompute_ms": (run_s - replay_s) * 1e3 / ops,
        "hw.cycles.compute": sum(s.compute_cycles for s in stats),
        "hw.cycles.dram": sum(s.dram_cycles for s in stats),
        "hw.cycles.stall": sum(s.stall_cycles for s in stats),
        "hw.cycles.dram_queue": sum(s.dram_queue_cycles for s in stats),
        "hw.makespan_cycles": sum(s.makespan_cycles for s in stats),
        "trace.overhead_pct": (p50_ms / untraced_p50_ms - 1.0) * 100 if untraced_p50_ms else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is built from this checkout's sources, never from an
    # installed copy; the native kernel tier compiles into the checkout too.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(BUILD / "native"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        header = host_header(args.seed)
        print("# host " + json.dumps(header, sort_keys=True))
        workload = WORKLOADS[args.workload](workdir)
        if workload.needs_fork and "fork" not in multiprocessing.get_all_start_methods():
            print(f"{workload.name} skipped: the serving stack needs the fork start method")
            return 3
        inputs = workload.inputs(args.seed)
        if not args.trace:
            phase = workload.run(inputs, args.seconds, workload.boots, None)
            workload.check(inputs, phase, args.seed)
            metrics, units, phases = end_to_end(workload, phase), END_TO_END, [phase]
        else:
            half = args.seconds / 2
            plain = workload.run(inputs, half, 1, None)
            workload.check(inputs, plain, args.seed)
            tracer = tracing.Tracer(workdir / "spans")
            tracing.install(tracer)
            phase = workload.run(inputs, half, 1, tracer)
            tracer.flush()
            workload.check(inputs, phase, args.seed)
            spans = tracing.collect(workdir / "spans")
            nesting = tracing.nesting_violations(spans)
            if nesting:
                phase.violations.append(f"{nesting} traced spans leave their parent")
            untraced_p50 = percentile(plain.latencies, 50) * 1e3
            metrics = per_layer(phase, spans, untraced_p50)
            units, phases = PER_LAYER, [plain, phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in phases:
        for violation in p.violations:
            print(f"VIOLATION {workload.name}: {violation}")
    violations = sum(len(p.violations) for p in phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + violations
    n = phases[-1].ops
    for name, unit in units.items():
        samples = len(phases[-1].setup_s) if name == "setup_s" else n
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit} n={samples}")
    correct = violations == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
