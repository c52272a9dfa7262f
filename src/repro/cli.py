"""Command-line interface.

Installed as ``bitcolor-repro`` (or run ``python -m repro.cli``):

* ``generate`` — build a synthetic graph and save it;
* ``color`` — color a graph file (or registry stand-in) with a chosen
  algorithm and report colors/validation;
* ``simulate`` — run the BitColor accelerator model and report modelled
  performance, optionally with a per-PE Gantt trace;
* ``experiment`` — regenerate one paper table/figure;
* ``sweep`` — run the scenario sweep (generator parameter space ×
  backend matrix) and print the per-backend wins and slow-region
  report;
* ``serve`` — run the long-lived coloring service on a Unix socket;
  ``--workers N`` (N >= 2) runs a mesh instead: N worker processes
  behind one consistent-hash router on the same socket;
* ``submit`` — send one coloring job (or a status probe) to a served
  instance and print the result;
* ``mesh-status`` — print a mesh router's aggregated placement/worker
  snapshot;
* ``submit-deltas`` — open a session on a served instance and stream
  synthetic edge-delta batches through the dynamic-graph lane.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

# Dependency-free registry module: safe to import at CLI build time so
# --mem-profile can expose the capability list as argparse choices.
from .hw.mem.profiles import PROFILE_NAMES as _MEM_PROFILE_NAMES


def _load_graph(args):
    from .experiments import DATASET_KEYS, load_dataset
    from .graph import load_npz, load_snap_edge_list

    if args.dataset:
        if args.dataset not in DATASET_KEYS:
            raise SystemExit(
                f"unknown dataset {args.dataset!r}; options: {DATASET_KEYS}"
            )
        return load_dataset(args.dataset, preprocessed=not args.raw)
    path = Path(args.input)
    if not path.exists():
        raise SystemExit(f"no such file: {path}")
    g = load_npz(path) if path.suffix == ".npz" else load_snap_edge_list(path)
    if not args.raw:
        from .graph import degree_based_grouping, sort_edges

        g = sort_edges(degree_based_grouping(g).graph)
    return g


def _add_input_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="graph file (.npz or SNAP edge list)")
    src.add_argument(
        "--dataset", help="registry stand-in key (EF, GD, CD, CA, CL, RC, RP, RT, CO, CF)"
    )
    p.add_argument(
        "--raw", action="store_true",
        help="skip DBG reordering + edge sorting preprocessing",
    )


def cmd_generate(args) -> int:
    from .graph import (
        community_graph, erdos_renyi, powerlaw_cluster, rmat, road_grid, save_npz,
    )

    builders = {
        "rmat": lambda: rmat(args.scale, args.degree // 2, seed=args.seed),
        "powerlaw": lambda: powerlaw_cluster(
            1 << args.scale, max(args.degree // 2, 1), 0.3, seed=args.seed
        ),
        "road": lambda: road_grid(
            1 << (args.scale // 2), 1 << ((args.scale + 1) // 2), seed=args.seed
        ),
        "community": lambda: community_graph(
            max((1 << args.scale) // 32, 1), 32, seed=args.seed
        ),
        "uniform": lambda: erdos_renyi(
            1 << args.scale, args.degree / (1 << args.scale), seed=args.seed
        ),
    }
    g = builders[args.kind]()
    save_npz(g, args.output)
    print(f"wrote {args.output}: {g.num_vertices} vertices, "
          f"{g.num_undirected_edges} undirected edges")
    return 0


def cmd_color(args) -> int:
    from . import color
    from .coloring import assert_proper_coloring, get_algorithm

    g = _load_graph(args)
    backend = args.backend
    if args.workers is not None and backend is None and args.algorithm == "bitwise":
        backend = "parallel"
    spec = get_algorithm(args.algorithm)
    opts = {}
    if spec.supports_seed:
        opts["seed"] = args.seed
    if args.algorithm == "bitwise" and backend != "hw":
        opts["prune_uncolored"] = not args.raw
    if backend == "parallel" and args.workers is not None:
        opts["workers"] = args.workers
    if args.mem_profile is not None:
        opts["mem_profile"] = args.mem_profile
    if args.layout is not None:
        opts["layout"] = args.layout
    out = color(
        g,
        args.algorithm,
        backend=backend,
        obs=args.obs,
        **opts,
    )
    assert_proper_coloring(g, out.colors)
    print(f"{g.name}: {g.num_vertices} vertices, {g.num_undirected_edges} edges")
    print(f"{args.algorithm}: {out.n_colors} colors (validated)")
    if args.obs:
        print(f"obs records written to {args.obs}")
    if args.output:
        np.save(args.output, out.colors)
        print(f"colors written to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    from .hw import BitColorAccelerator, OptimizationFlags
    from .hw.trace import pe_utilization, render_gantt
    from .obs import JsonlExporter, Registry, use_registry

    g = _load_graph(args)
    flags = OptimizationFlags(
        hdc="hdc" not in args.disable,
        bwc="bwc" not in args.disable,
        mgr="mgr" not in args.disable,
        puv="puv" not in args.disable,
    )
    from .hw import mem

    overrides = {"parallelism": args.parallelism}
    if args.cache_kb is not None:
        overrides["cache_bytes"] = args.cache_kb << 10
    cfg = mem.profile_config(args.mem_profile, **overrides)
    acc = BitColorAccelerator(
        cfg, flags, engine=args.engine, replay=args.replay, layout=args.layout
    )
    if args.obs:
        # The artifact carries both wall-clock spans and the cycle-clock
        # task trace, so tracing is forced on.
        reg = Registry()
        with use_registry(reg):
            res = acc.run(g, trace=True)
        JsonlExporter(args.obs).export(reg)
    else:
        res = acc.run(g, trace=args.gantt)
    s = res.stats
    print(f"{g.name}: {g.num_vertices} vertices, {g.num_undirected_edges} edges")
    print(f"config: P={cfg.parallelism} flags={flags.label()} "
          f"cache={cfg.cache_bytes >> 10} KiB engine={args.engine} "
          f"mem={cfg.mem_profile} layout={args.layout}")
    print(f"colors: {res.num_colors}")
    print(f"makespan: {s.makespan_cycles} cycles = {res.time_seconds * 1e6:.1f} us "
          f"({res.throughput_mcvs:.1f} MCV/s)")
    print(f"compute/dram/stall/queue cycles: {s.compute_cycles}/"
          f"{s.dram_cycles}/{s.stall_cycles}/{s.dram_queue_cycles}")
    print(f"cache reads {s.cache_reads}, LDV reads {s.ldv_reads} "
          f"(merged {s.merged_reads}), pruned {s.pruned_edges}, "
          f"conflicts {s.conflicts}")
    if args.obs:
        print(f"obs records written to {args.obs}")
    if args.gantt:
        print("\n" + render_gantt(res.trace))
        util = pe_utilization(res.trace)
        print("mean PE utilization: "
              f"{100 * sum(util.values()) / len(util):.1f}%")
    return 0


def cmd_experiment(args) -> int:
    from .experiments import (
        fig3a_breakdown, fig3b_overlap, fig11_ablation, fig12_scaling,
        fig13_comparison, fig14_resources, report, table2_preprocessing,
        table3_datasets, table4_colors,
    )

    renderers = {
        "table2": lambda: report.render_table2(table2_preprocessing()),
        "table3": lambda: report.render_table3(table3_datasets()),
        "table4": lambda: report.render_table4(table4_colors()),
        "fig3a": lambda: report.render_fig3a(fig3a_breakdown()),
        "fig3b": lambda: report.render_fig3b(fig3b_overlap()),
        "fig11": lambda: report.render_fig11(fig11_ablation()),
        "fig12": lambda: report.render_fig12(fig12_scaling()),
        "fig13": lambda: report.render_fig13(fig13_comparison()),
        "fig14": lambda: report.render_fig14(fig14_resources()),
    }
    print(renderers[args.name]())
    return 0


def _axis_list(text, cast):
    return tuple(cast(part) for part in text.split(",") if part.strip())


def cmd_sweep(args) -> int:
    from .experiments.scenario_sweep import (
        FULL_AXES, MINI_AXES, run_scenario_sweep, sweep_report,
        write_sweep_table,
    )

    axes = dict(MINI_AXES if args.mini else FULL_AXES)
    if args.sizes:
        axes["sizes"] = _axis_list(args.sizes, int)
    if args.skews:
        axes["skews"] = _axis_list(args.skews, float)
    if args.communities:
        axes["communities"] = _axis_list(args.communities, float)
    if args.densities:
        axes["densities"] = _axis_list(args.densities, float)
    table = run_scenario_sweep(
        **axes,
        repeats=args.repeats,
        seed=args.seed,
        progress=None if args.quiet else print,
    )
    if args.out:
        write_sweep_table(table, args.out)
        print(f"sweep table written to {args.out}")
    print()
    print(sweep_report(table, factor=args.slow_factor))
    return 0


def cmd_hbm_sweep(args) -> int:
    from .experiments.gates import write_baseline
    from .experiments.hbm_sweep import (
        MINI_SWEEP, PAPER_SWEEP, SMOKE_MIN_DELTA_REDUCTION, run_hbm_smoke,
        run_hbm_sweep,
    )

    axes = dict(MINI_SWEEP if args.mini else PAPER_SWEEP)
    if args.datasets:
        axes["datasets"] = tuple(args.datasets)
    if args.channels:
        axes["channels"] = _axis_list(args.channels, int)
    if args.parallelisms:
        axes["parallelisms"] = _axis_list(args.parallelisms, int)
    if args.tier:
        axes["tier"] = args.tier
    results = run_hbm_sweep(**axes)
    results["smoke"] = run_hbm_smoke()
    if not args.quiet:
        print(results["figure"])
        print()
    stops = [c for c in results["crossover"]
             if c["merge_stops_paying_at"] is not None]
    print(f"{len(results['entries'])} cells swept; merge stops paying on "
          f"{len(stops)}/{len(results['crossover'])} "
          f"(dataset, P, layout) rows; colors byte-identical across cells")
    if args.out:
        path = write_baseline("hbm", results, args.out)
        print(f"sweep written to {path}")
    if args.check:
        # run_hbm_smoke above already asserted engine parity.
        current = results["smoke"]["min_delta_reduction"]
        floor = SMOKE_MIN_DELTA_REDUCTION
        print(f"gate: parity ok, min delta-compressed edge-read-cycle "
              f"reduction {current:.1%} (floor {floor:.1%})")
        if current < floor:
            print("FAIL: delta-compressed layout fell below the "
                  "reduction floor")
            return 1
    return 0


def cmd_serve(args) -> int:
    from .obs import Registry
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        max_queue_depth=args.max_depth,
        client_quota=args.client_quota,
        executors=args.executors,
        default_timeout_s=args.timeout,
        batching=not args.no_batching,
        cache_capacity=args.cache_capacity,
        registry=Registry(),
        obs_path=args.obs,
    )
    if args.workers > 1:
        from .service import MeshConfig, serve_mesh

        mesh_config = MeshConfig(workers=args.workers, service=config)
        print(f"serving mesh on {args.socket} "
              f"(workers={args.workers}, executors={args.executors} each, "
              f"depth={args.max_depth}, "
              f"batching={'off' if args.no_batching else 'on'}) "
              f"— ctrl-C to stop")
        serve_mesh(args.socket, mesh_config)
        print("drained and stopped")
        return 0
    print(f"serving on {args.socket} "
          f"(executors={args.executors}, depth={args.max_depth}, "
          f"batching={'off' if args.no_batching else 'on'}) — ctrl-C to stop")
    serve(args.socket, config)
    print("drained and stopped")
    return 0


def cmd_mesh_status(args) -> int:
    import json as _json

    from .service import connect
    from .service.protocol import wire_to_error

    with connect(args.socket, client_id=args.client_id) as client:
        frame = client.call({"op": "mesh.status"})
    if not frame.get("ok"):
        raise wire_to_error(frame.get("error", {}))
    print(_json.dumps(frame["status"], indent=2, sort_keys=True))
    return 0


def cmd_submit(args) -> int:
    from .service import connect

    with connect(args.socket, client_id=args.client_id) as client:
        if args.status:
            import json as _json

            print(_json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if not (args.dataset or args.input):
            raise SystemExit("submit needs --dataset/--input (or --status)")
        opts = {}
        if args.seed is not None:
            opts["seed"] = args.seed
        if args.workers is not None:
            opts["workers"] = args.workers
        kwargs = dict(
            algorithm=args.algorithm,
            backend=args.backend,
            engine=args.engine,
            priority=args.priority,
            timeout_s=args.job_timeout,
            **opts,
        )
        if args.dataset:
            result = client.color(dataset=args.dataset, retries=32, **kwargs)
        else:
            graph_args = argparse.Namespace(
                dataset=None, input=args.input, raw=args.raw
            )
            result = client.color(
                _load_graph(graph_args), retries=32, **kwargs
            )
    label = args.dataset or args.input
    print(f"{label}: {result.n_colors} colors via {result.route}")
    print(f"attempts={result.attempts} cache_hit={result.cache_hit} "
          f"batched={result.batched} "
          f"total={result.timings.get('total', 0.0) * 1e3:.1f} ms")
    if args.output:
        np.save(args.output, result.colors)
        print(f"colors written to {args.output}")
    return 0


def cmd_submit_deltas(args) -> int:
    """Drive the session lane: register, stream delta batches, verify."""
    import time as _time

    from .service import connect

    rng = np.random.default_rng(args.seed)
    with connect(args.socket, client_id=args.client_id) as client:
        if args.dataset:
            handle = client.register(
                dataset=args.dataset, algorithm=args.algorithm,
                backend=args.backend,
            )
        else:
            if not args.input:
                raise SystemExit("submit-deltas needs --dataset or --input")
            graph_args = argparse.Namespace(
                dataset=None, input=args.input, raw=args.raw
            )
            handle = client.register(
                _load_graph(graph_args), algorithm=args.algorithm,
                backend=args.backend,
            )
        with handle:
            info = handle.info
            print(f"session {handle.session_id}: {info.num_vertices} vertices, "
                  f"{info.num_edges} edges, {info.n_colors} colors"
                  f"{' (graph deduplicated)' if info.graph_reused else ''}")
            n = info.num_vertices
            deltas = 0
            changed = 0
            t0 = _time.perf_counter()
            for b in range(args.batches):
                add = rng.integers(0, n, size=(args.batch_size, 2))
                add = add[add[:, 0] != add[:, 1]]
                n_remove = args.batch_size // 4
                rem = rng.integers(0, n, size=(n_remove, 2))
                rem = rem[rem[:, 0] != rem[:, 1]]
                out = handle.apply(additions=add, removals=rem)
                deltas += len(add) + len(rem)
                changed += int(out.changed.size)
                if args.verify_every:
                    handle.verify()
                print(f"batch {b + 1}/{args.batches}: epoch {out.epoch} "
                      f"mode={out.mode} recolored={out.changed.size} "
                      f"colors={out.n_colors} churn={out.churn:.3f}")
            elapsed = _time.perf_counter() - t0
            summary = handle.verify()
            print(f"verified: {summary['n_colors']} colors proper over "
                  f"{summary['num_edges']} edges")
            print(f"{deltas} deltas in {elapsed * 1e3:.1f} ms "
                  f"({deltas / max(elapsed, 1e-9):.0f} deltas/s), "
                  f"{changed} vertices recolored total")
    return 0


class _VersionAction(argparse.Action):
    """``--version``: package version plus kernel-tier capabilities.

    The capability probe is what makes this a diagnostic: it reports
    whether the compiled native tier is usable on this machine, which
    backend/compiler it selected, and why when it is not.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "print version and kernel capabilities, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from . import __version__
        from .kernels import capabilities

        caps = capabilities()
        print(f"bitcolor-repro {__version__}")
        print(f"kernel tiers: {', '.join(caps['tiers'])}")
        info = caps["native_backend"]
        if info is not None:
            print(f"native backend: {info['name']} ({info['version']})")
        else:
            print(f"native backend: unavailable — {caps['native_reason']}")

        from .graph.layout import LAYOUTS
        from .hw import mem

        print("memory profiles:")
        for line in mem.describe():
            print(f"  {line}")
        print(f"edge layouts: {', '.join(LAYOUTS)}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bitcolor-repro",
        description="BitColor (ICPP'23) reproduction toolkit",
    )
    p.add_argument("--version", action=_VersionAction)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a synthetic graph")
    g.add_argument("kind", choices=["rmat", "powerlaw", "road", "community", "uniform"])
    g.add_argument("output", help="output .npz path")
    g.add_argument("--scale", type=int, default=12, help="log2 of vertex count")
    g.add_argument("--degree", type=int, default=16, help="target average degree")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_generate)

    from .coloring.registry import algorithm_names

    c = sub.add_parser("color", help="color a graph")
    _add_input_args(c)
    c.add_argument(
        "--algorithm", default="bitwise", choices=list(algorithm_names()),
    )
    c.add_argument("--backend", default=None,
                   help="algorithm backend (e.g. python, vectorized, native, "
                        "parallel, hw); 'native' uses the compiled kernel "
                        "tier when available (see --version)")
    c.add_argument("--workers", type=int, default=None,
                   help="process-pool width for backend=parallel (implies "
                        "--backend parallel for the bitwise algorithm)")
    c.add_argument("--mem-profile", default=None,
                   choices=list(_MEM_PROFILE_NAMES),
                   help="memory profile for backend=hw (see --version for "
                        "the registry)")
    c.add_argument("--layout", default=None,
                   choices=["plain", "degree-sorted", "delta-compressed"],
                   help="edge-array layout for backend=hw")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--obs", metavar="PATH",
                   help="write spans/counters of the run as JSON lines")
    c.add_argument("--output", help="save the color array (.npy)")
    c.set_defaults(fn=cmd_color)

    s = sub.add_parser("simulate", help="run the accelerator model")
    _add_input_args(s)
    s.add_argument("--parallelism", "-p", type=int, default=16)
    s.add_argument("--cache-kb", type=int, default=None,
                   help="HDV cache size in KiB (default: 1024)")
    s.add_argument("--disable", nargs="*", default=[],
                   choices=["hdc", "bwc", "mgr", "puv"],
                   help="optimizations to turn off")
    s.add_argument("--engine", default="event", choices=["event", "batched"],
                   help="execution engine: 'event' steps every component "
                        "model; 'batched' is the epoch-vectorized fast path "
                        "with identical results (use for large graphs)")
    s.add_argument("--replay", default="auto",
                   choices=["auto", "python", "native"],
                   help="schedule-recurrence implementation of the batched "
                        "engine: 'auto' takes the compiled native tier when "
                        "available; identical stats either way")
    s.add_argument("--mem-profile", default="ddr4-u200",
                   choices=list(_MEM_PROFILE_NAMES),
                   help="memory profile to model (see --version for the "
                        "registry)")
    s.add_argument("--layout", default="plain",
                   choices=["plain", "degree-sorted", "delta-compressed"],
                   help="edge-array layout: compressed encodings cut modeled "
                        "edge-block traffic; colors are identical either way")
    s.add_argument("--gantt", action="store_true",
                   help="print a per-PE occupancy chart")
    s.add_argument("--obs", metavar="PATH",
                   help="write spans, counters and the cycle-clock task "
                        "trace as JSON lines (implies tracing)")
    s.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("name", choices=[
        "table2", "table3", "table4", "fig3a", "fig3b",
        "fig11", "fig12", "fig13", "fig14",
    ])
    e.set_defaults(fn=cmd_experiment)

    sw = sub.add_parser(
        "sweep",
        help="scenario sweep: time every backend over graph space, "
             "report per-backend wins and slow regions",
    )
    sw.add_argument("--mini", action="store_true",
                    help="the small CI grid (seconds) instead of the full "
                         "48-point grid behind BENCH_router.json")
    sw.add_argument("--sizes", default=None,
                    help="comma-separated vertex counts overriding the grid")
    sw.add_argument("--skews", default=None,
                    help="comma-separated RMAT home-quadrant probabilities "
                         "(0.25 = uniform, 0.6 = heavy tail)")
    sw.add_argument("--communities", default=None,
                    help="comma-separated planted-community edge fractions")
    sw.add_argument("--densities", default=None,
                    help="comma-separated target mean degrees")
    sw.add_argument("--repeats", type=int, default=2,
                    help="timing repeats per backend (best-of)")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", metavar="PATH",
                    help="write the versioned sweep table here (JSON)")
    sw.add_argument("--slow-factor", type=float, default=3.0,
                    help="flag regions whose best backend exceeds this "
                         "multiple of the median ns/edge")
    sw.add_argument("--quiet", action="store_true",
                    help="suppress per-point progress lines")
    sw.set_defaults(fn=cmd_sweep)

    hs = sub.add_parser(
        "hbm-sweep",
        help="HBM crossover sweep: channels x layout x P merge-gain "
             "surface on the hbm2 memory profile",
    )
    hs.add_argument("--mini", action="store_true",
                    help="the small CI axes (seconds) instead of the full "
                         "paper-tier grid behind BENCH_hbm.json")
    hs.add_argument("--datasets", nargs="*", default=(),
                    help="registry stand-in keys overriding the axes")
    hs.add_argument("--channels", default=None,
                    help="comma-separated physical channel counts")
    hs.add_argument("--parallelisms", default=None,
                    help="comma-separated PE counts")
    hs.add_argument("--tier", default=None, choices=("standin", "paper"),
                    help="dataset tier overriding the axes")
    hs.add_argument("--out", metavar="PATH",
                    help="write the result document here (JSON)")
    hs.add_argument("--check", action="store_true",
                    help="run the deterministic gate: engine parity on "
                         "every profile x layout plus the delta-compressed "
                         "edge-read-cycle reduction floor")
    hs.add_argument("--quiet", action="store_true",
                    help="suppress the ASCII crossover figure")
    hs.set_defaults(fn=cmd_hbm_sweep)

    sv = sub.add_parser("serve", help="run the coloring service on a socket")
    sv.add_argument("--socket", required=True, help="Unix socket path to bind")
    sv.add_argument("--executors", type=int, default=2,
                    help="worker threads draining execution units")
    sv.add_argument("--max-depth", type=int, default=256,
                    help="admission queue depth before load shedding")
    sv.add_argument("--client-quota", type=int, default=None,
                    help="max queued jobs per client id (default: unlimited)")
    sv.add_argument("--timeout", type=float, default=None,
                    help="default per-job deadline in seconds")
    sv.add_argument("--cache-capacity", type=int, default=128,
                    help="result-cache entries (0 disables)")
    sv.add_argument("--no-batching", action="store_true",
                    help="disable micro-batching of small jobs")
    sv.add_argument("--obs", metavar="PATH",
                    help="export service spans/counters here on shutdown")
    sv.add_argument("--workers", type=int, default=1,
                    help="worker processes; >= 2 serves a mesh (consistent-"
                         "hash router fronting N full service processes)")
    sv.set_defaults(fn=cmd_serve)

    ms = sub.add_parser(
        "mesh-status", help="print a mesh router's aggregated snapshot"
    )
    ms.add_argument("--socket", required=True,
                    help="Unix socket of the mesh router")
    ms.add_argument("--client-id", default="cli")
    ms.set_defaults(fn=cmd_mesh_status)

    sb = sub.add_parser("submit", help="submit a job to a served instance")
    sb.add_argument("--socket", required=True, help="Unix socket of the server")
    src = sb.add_mutually_exclusive_group()
    src.add_argument("--input", help="graph file (.npz or SNAP edge list)")
    src.add_argument("--dataset",
                     help="registry stand-in key, resolved server-side")
    src.add_argument("--status", action="store_true",
                     help="print the service /healthz snapshot and exit")
    sb.add_argument("--raw", action="store_true",
                    help="skip preprocessing for --input graphs")
    sb.add_argument(
        "--algorithm", default="bitwise", choices=list(algorithm_names()),
    )
    sb.add_argument("--backend", default=None,
                    help="pin a backend (otherwise the service routes)")
    sb.add_argument("--engine", default=None, choices=["event", "batched"],
                    help="accelerator engine for backend=hw")
    sb.add_argument("--seed", type=int, default=None,
                    help="seed for randomized algorithms")
    sb.add_argument("--workers", type=int, default=None,
                    help="pool width for backend=parallel")
    sb.add_argument("--priority", type=int, default=0)
    sb.add_argument("--job-timeout", type=float, default=None,
                    help="per-job deadline in seconds")
    sb.add_argument("--client-id", default="cli")
    sb.add_argument("--output", help="save the color array (.npy)")
    sb.set_defaults(fn=cmd_submit)

    sd = sub.add_parser(
        "submit-deltas",
        help="stream edge-delta batches to a served instance (session lane)",
    )
    sd.add_argument("--socket", required=True, help="Unix socket of the server")
    src = sd.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="graph file (.npz or SNAP edge list)")
    src.add_argument("--dataset",
                     help="registry stand-in key, resolved server-side")
    sd.add_argument("--raw", action="store_true",
                    help="skip preprocessing for --input graphs")
    sd.add_argument(
        "--algorithm", default="bitwise", choices=list(algorithm_names()),
    )
    sd.add_argument("--backend", default=None,
                    help="pin the full-recolor backend (default: the "
                         "algorithm's default, for byte-parity)")
    sd.add_argument("--batches", type=int, default=3,
                    help="delta batches to stream (default: 3)")
    sd.add_argument("--batch-size", type=int, default=64,
                    help="edge insertions per batch; a quarter as many "
                         "removals ride along (default: 64)")
    sd.add_argument("--seed", type=int, default=0,
                    help="RNG seed for the synthetic delta stream")
    sd.add_argument("--verify-every", action="store_true",
                    help="assert the coloring is proper after every batch "
                         "(always verified once at the end)")
    sd.add_argument("--client-id", default="cli")
    sd.set_defaults(fn=cmd_submit_deltas)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not our error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
