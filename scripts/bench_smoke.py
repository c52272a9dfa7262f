#!/usr/bin/env python
"""Kernel-layer regression smoke check.

Two gates, both against the checked-in ``BENCH_kernels.json``:

1. **Speedup** — re-times the tiny fixed smoke benchmark (see
   :mod:`repro.experiments.kernel_bench`) and compares against the
   recorded ``smoke.baseline_speedup``.  Exits non-zero when the current
   speedup drops below half the baseline — i.e. a >2x regression of the
   vectorized backend relative to the scalar one, which is what a kernel
   silently degrading to per-vertex work looks like.  The 2x slack
   absorbs ordinary machine-to-machine noise.
2. **Disabled-observability overhead** — times the vectorized and scalar
   runs under an explicitly disabled ``repro.obs`` registry, in the same
   process, and requires their time *ratio* to stay within
   ``--obs-limit`` (default +5 %) of the recorded pre-instrumentation
   ``smoke.vectorized_s / smoke.python_s``.  The ratio form cancels host
   speed drift (shared runners can be tens of percent slower than the
   box that recorded the baseline) while still amplifying per-run
   instrumentation creep ~10x on the short vectorized side.  This is
   what keeps the instrumentation an honest no-op for library users who
   never opt in.

A third gate runs against ``BENCH_hw.json`` (when present):

3. **Accelerator engine speedup** — re-times the batched accelerator
   engine against the event engine on a small fixed graph (exact parity
   asserted first) and compares against the recorded
   ``smoke.baseline_speedup`` the same way as gate 1.  Catches the
   batched engine's vectorized precompute silently regressing.

A fourth gate runs against ``BENCH_service.json``:

4. **Service micro-batching win** — re-runs the closed-loop fleet of
   small jobs through the coloring service with batching on vs off
   (byte parity with direct ``repro.color`` asserted first) and compares
   the throughput win against the recorded ``smoke.baseline_speedup``.
   The allowed factor is more generous (``--service-factor``, default 4)
   because closed-loop service timings carry scheduler noise that kernel
   micro-benchmarks do not; what the gate reliably catches is the batch
   lane silently falling apart (every job running solo again).

Two more gates cover the optional compiled kernel tier
(``repro.kernels.native``); both **auto-skip** — reported, not failed —
when no native backend is available, because the tier is opt-in by
design:

5. **Native kernel speedup** — times the raw scatter-OR + first-free
   kernels, vectorized vs compiled (bit-identity asserted first), and
   requires an absolute >= 3x win.  An absolute floor, not a baseline
   ratio: the failure mode is the compiled path silently degrading to
   the vectorized fallback, which reads as ~1x.
6. **Native replay speedup** — times the batched accelerator engine with
   ``replay="python"`` vs ``replay="native"`` (exact stats parity
   asserted first) and requires >= 1.2x; the whole-run number is diluted
   by the shared vectorized precompute, hence the modest floor.

A seventh gate runs against ``BENCH_streaming.json``:

7. **Streaming-lane speedup** — replays the fixed RMAT stream through a
   live service session (validity asserted after every batch, untimed)
   and requires the sustained deltas/sec to beat the naive per-batch
   full recolor by an **absolute >= 10x** (``--streaming-floor``).  An
   absolute floor, not a baseline ratio: the failure mode is the
   incremental path silently degrading to per-batch full recolors,
   which reads as ~1x regardless of host speed.

An eighth gate runs against ``BENCH_mesh.json``:

8. **Mesh worker scaling** — re-runs the closed-loop fleet through a
   2-worker and a 1-worker mesh and requires an absolute >= 1.3x
   throughput win (``--mesh-floor``).  **Auto-skips with the reason
   reported** when fewer than 4 CPUs are usable (``os.sched_getaffinity``):
   the measurement keeps client, router and two workers busy at once,
   so on fewer cores they time-slice and cannot scale — same honesty
   rule as the kernel bench's worker-scaling block, which records
   ``host_cpus`` for the same reason.

A ninth gate runs against ``BENCH_router.json``:

9. **Routing rule** — deterministic: on every point of the checked-in
   scenario-sweep matrix, the measured-fastest parity-neutral backend
   must be ``microbatch`` or the software tier, the only two lanes the
   router sends unpinned jobs to (scored against the *recorded*
   per-backend seconds, nothing re-timed).  A live probe then colors a
   few graphs, including >= 50k-vertex skewed and regular ones, through
   one default service and asserts every result is byte-identical to
   direct ``repro.color`` — routing may only ever change which backend
   runs, never the colors.

A tenth gate runs against ``BENCH_hbm.json``:

10. **Memory profiles + compressed layouts** — fully deterministic
    (modeled cycles, no wall clock): asserts exact event-vs-batched
    stats/colors parity on every registered memory profile under all
    three edge layouts, then requires the delta-compressed layout to cut
    modeled edge-read cycles (``edge_blocks_fetched *
    dram_stream_cycles``) by >= ``--hbm-reduction-floor`` (default 15 %)
    on every skewed stand-in.  Catches a layout or profile silently
    breaking the engine parity contract, or the compression degrading to
    the plain encoding.

Usage:

    python scripts/bench_smoke.py [--factor 2.0] [--repeats 3]
        [--obs-limit 1.05] [--skip-hw] [--skip-service] [--skip-native]
        [--skip-streaming] [--skip-mesh] [--skip-router] [--skip-hbm]
        [--service-factor 4.0] [--streaming-floor 10.0] [--mesh-floor 1.3]
        [--hbm-reduction-floor 0.15]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import (  # noqa: E402
    check_hbm_smoke,
    check_hw_native_smoke,
    check_hw_smoke,
    check_mesh_smoke,
    check_native_smoke,
    check_obs_overhead,
    check_router_smoke,
    check_service_smoke,
    check_smoke,
    check_streaming_smoke,
    load_hbm_results,
    load_hw_results,
    load_mesh_results,
    load_results,
    load_router_results,
    load_service_results,
    load_streaming_results,
)
from repro.experiments.mesh_bench import mesh_skip_reason  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="allowed slowdown vs the baseline speedup (default: 2.0)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats; the best run counts (default: 3)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="result JSON to compare against (default: repo BENCH_kernels.json)",
    )
    parser.add_argument(
        "--obs-limit",
        type=float,
        default=1.05,
        help="allowed obs-disabled time vs the baseline vectorized_s "
             "(default: 1.05 = +5%%)",
    )
    parser.add_argument(
        "--hw-baseline",
        type=Path,
        default=None,
        help="hw result JSON to compare against (default: repo BENCH_hw.json)",
    )
    parser.add_argument(
        "--skip-hw",
        action="store_true",
        help="skip the accelerator-engine gate",
    )
    parser.add_argument(
        "--service-baseline",
        type=Path,
        default=None,
        help="service result JSON to compare against "
             "(default: repo BENCH_service.json)",
    )
    parser.add_argument(
        "--service-factor",
        type=float,
        default=4.0,
        help="allowed slowdown vs the baseline micro-batching win "
             "(default: 4.0 — service timings are noisier)",
    )
    parser.add_argument(
        "--skip-service",
        action="store_true",
        help="skip the service micro-batching gate",
    )
    parser.add_argument(
        "--skip-native",
        action="store_true",
        help="skip the native kernel-tier gates",
    )
    parser.add_argument(
        "--streaming-baseline",
        type=Path,
        default=None,
        help="streaming result JSON to echo alongside the gate "
             "(default: repo BENCH_streaming.json)",
    )
    parser.add_argument(
        "--streaming-floor",
        type=float,
        default=10.0,
        help="absolute floor for the session-lane speedup over naive "
             "per-batch full recolor (default: 10.0)",
    )
    parser.add_argument(
        "--skip-streaming",
        action="store_true",
        help="skip the streaming session-lane gate",
    )
    parser.add_argument(
        "--mesh-baseline",
        type=Path,
        default=None,
        help="mesh result JSON to echo alongside the gate "
             "(default: repo BENCH_mesh.json)",
    )
    parser.add_argument(
        "--mesh-floor",
        type=float,
        default=1.3,
        help="absolute floor for the 2-worker mesh's throughput win over "
             "1 worker on multi-CPU hosts (default: 1.3)",
    )
    parser.add_argument(
        "--skip-mesh",
        action="store_true",
        help="skip the mesh worker-scaling gate",
    )
    parser.add_argument(
        "--router-baseline",
        type=Path,
        default=None,
        help="router result JSON to re-score "
             "(default: repo BENCH_router.json)",
    )
    parser.add_argument(
        "--skip-router",
        action="store_true",
        help="skip the routing-rule gate",
    )
    parser.add_argument(
        "--hbm-baseline",
        type=Path,
        default=None,
        help="hbm result JSON to echo alongside the gate "
             "(default: repo BENCH_hbm.json)",
    )
    parser.add_argument(
        "--hbm-reduction-floor",
        type=float,
        default=0.15,
        help="required delta-compressed edge-read-cycle reduction on "
             "every skewed stand-in (default: 0.15)",
    )
    parser.add_argument(
        "--skip-hbm",
        action="store_true",
        help="skip the memory-profile/layout gate",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_results(args.baseline)
    except FileNotFoundError as e:
        print(f"no baseline found ({e.filename}); run benchmarks/bench_kernels.py")
        return 1
    ok, current, threshold = check_smoke(
        baseline, factor=args.factor, repeats=args.repeats
    )
    recorded = float(baseline["smoke"]["baseline_speedup"])
    print(
        f"smoke speedup: current {current:.2f}x, "
        f"baseline {recorded:.2f}x, threshold {threshold:.2f}x"
    )
    if not ok:
        print("FAIL: vectorized backend regressed more than the allowed factor")
        return 1

    obs_ok, obs_current, obs_threshold = check_obs_overhead(
        baseline, limit=args.obs_limit, repeats=max(args.repeats, 5)
    )
    print(
        f"obs-disabled time ratio (vectorized/python): "
        f"current {obs_current:.4f}, threshold {obs_threshold:.4f} "
        f"(baseline x {args.obs_limit:.2f})"
    )
    if not obs_ok:
        print("FAIL: disabled observability costs more than the allowed overhead")
        return 1

    if not args.skip_hw:
        try:
            hw_baseline = load_hw_results(args.hw_baseline)
        except FileNotFoundError as e:
            print(f"no hw baseline found ({e.filename}); run benchmarks/bench_hw.py")
            return 1
        hw_ok, hw_current, hw_threshold = check_hw_smoke(
            hw_baseline, factor=args.factor, repeats=args.repeats
        )
        hw_recorded = float(hw_baseline["smoke"]["baseline_speedup"])
        print(
            f"hw engine speedup: current {hw_current:.2f}x, "
            f"baseline {hw_recorded:.2f}x, threshold {hw_threshold:.2f}x"
        )
        if not hw_ok:
            print("FAIL: batched accelerator engine regressed more than the "
                  "allowed factor")
            return 1

    if not args.skip_service:
        try:
            service_baseline = load_service_results(args.service_baseline)
        except FileNotFoundError as e:
            print(f"no service baseline found ({e.filename}); "
                  "run benchmarks/bench_service.py")
            return 1
        svc_ok, svc_current, svc_threshold = check_service_smoke(
            service_baseline, factor=args.service_factor, repeats=args.repeats
        )
        svc_recorded = float(service_baseline["smoke"]["baseline_speedup"])
        print(
            f"service micro-batching win: current {svc_current:.2f}x, "
            f"baseline {svc_recorded:.2f}x, threshold {svc_threshold:.2f}x"
        )
        if not svc_ok:
            print("FAIL: service micro-batching regressed more than the "
                  "allowed factor")
            return 1

    if not args.skip_streaming:
        try:
            streaming_baseline = load_streaming_results(args.streaming_baseline)
        except FileNotFoundError as e:
            print(f"no streaming baseline found ({e.filename}); "
                  "run benchmarks/bench_streaming.py")
            return 1
        str_ok, str_current, str_threshold = check_streaming_smoke(
            streaming_baseline, floor=args.streaming_floor, repeats=args.repeats
        )
        str_recorded = float(streaming_baseline["smoke"]["baseline_speedup"])
        print(
            f"streaming session-lane speedup: current {str_current:.2f}x, "
            f"recorded {str_recorded:.2f}x, floor {str_threshold:.2f}x"
        )
        if not str_ok:
            print("FAIL: session lane fell below the absolute floor over "
                  "naive per-batch full recolor")
            return 1

    if not args.skip_mesh:
        try:
            mesh_baseline = load_mesh_results(args.mesh_baseline)
        except FileNotFoundError as e:
            print(f"no mesh baseline found ({e.filename}); "
                  "run benchmarks/bench_mesh.py")
            return 1
        mesh_ok, mesh_current, mesh_threshold = check_mesh_smoke(
            floor=args.mesh_floor, repeats=args.repeats
        )
        if mesh_ok is None:
            print(
                f"mesh worker scaling: skipped "
                f"({mesh_skip_reason(int(mesh_current))}; baseline "
                f"recorded host_cpus={mesh_baseline.get('host_cpus')})"
            )
        else:
            mesh_recorded = float(
                mesh_baseline["smoke"]["baseline_speedup"]
            )
            print(
                f"mesh worker scaling: current {mesh_current:.2f}x, "
                f"recorded {mesh_recorded:.2f}x, floor {mesh_threshold:.2f}x"
            )
            if not mesh_ok:
                print("FAIL: 2-worker mesh fell below the absolute "
                      "throughput floor over 1 worker")
                return 1

    if not args.skip_router:
        try:
            router_baseline = load_router_results(args.router_baseline)
        except FileNotFoundError as e:
            print(f"no router baseline found ({e.filename}); "
                  "run benchmarks/bench_router.py")
            return 1
        rt_ok, rt_current = check_router_smoke(router_baseline)
        print(
            f"routing rule: micro-batch or software tier fastest on "
            f"{rt_current['points'] - len(rt_current['off_rule'])}/"
            f"{rt_current['points']} recorded points, "
            f"{rt_current['parity_colorings_checked']} colorings "
            "byte-checked against direct repro.color"
        )
        if not rt_ok:
            print(f"FAIL: the routing rule never picks the fastest backend "
                  f"at {rt_current['off_rule']}")
            return 1

    if not args.skip_hbm:
        try:
            hbm_baseline = load_hbm_results(args.hbm_baseline)
        except FileNotFoundError as e:
            print(f"no hbm baseline found ({e.filename}); "
                  "run benchmarks/bench_hbm.py")
            return 1
        hbm_ok, hbm_current, hbm_threshold = check_hbm_smoke(
            hbm_baseline, floor=args.hbm_reduction_floor
        )
        hbm_recorded = float(
            hbm_baseline["smoke"]["min_delta_reduction"]
        )
        print(
            f"hbm profile/layout gate: parity ok, min delta-compressed "
            f"reduction current {hbm_current:.1%}, recorded "
            f"{hbm_recorded:.1%}, floor {hbm_threshold:.1%}"
        )
        if not hbm_ok:
            print("FAIL: delta-compressed layout fell below the "
                  "edge-read-cycle reduction floor")
            return 1

    if not args.skip_native:
        nat_ok, nat_current, nat_threshold = check_native_smoke(
            repeats=args.repeats
        )
        if nat_ok is None:
            from repro.kernels import native

            print(f"native kernels: skipped ({native.unavailable_reason()})")
        else:
            print(
                f"native kernel speedup: current {nat_current:.2f}x, "
                f"floor {nat_threshold:.2f}x"
            )
            if not nat_ok:
                print("FAIL: compiled kernels fell below the acceptance floor")
                return 1
            rep_ok, rep_current, rep_threshold = check_hw_native_smoke(
                repeats=args.repeats
            )
            print(
                f"native replay speedup: current {rep_current:.2f}x, "
                f"floor {rep_threshold:.2f}x"
            )
            if not rep_ok:
                print("FAIL: compiled replay fell below the acceptance floor")
                return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
