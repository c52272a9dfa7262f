"""Ablation — conflict rate and stall cost vs parallelism.

The paper attributes Fig 12's sublinear scaling partly to data conflicts
among parallel vertices; this bench quantifies detection counts, the
DRAM reads that conflict forwarding *saves*, and the stall cycles it
costs.
"""

import repro
from repro.experiments import get_graph, get_spec
from repro.experiments.report import render_table


def run(key="CO"):
    g = get_graph(key)
    spec = get_spec(key)
    out = []
    for p in (2, 4, 8, 16):
        cfg = spec.config_for(p, g.num_vertices)
        res = repro.color(g, backend="hw", config=cfg)
        s = res.stats
        out.append((p, s.conflicts, s.stall_cycles, s.dram_queue_cycles,
                    s.makespan_cycles))
    return out


def test_conflict_scaling(benchmark, once, capsys):
    rows = once(benchmark, run)
    with capsys.disabled():
        print("\n=== Ablation: conflicts vs parallelism (CO stand-in) ===")
        print(
            render_table(
                ["P", "conflicts", "stall cycles", "DRAM queue cycles", "makespan"],
                rows,
            )
        )
    conflicts = [c for _, c, _, _, _ in rows]
    # A wider machine sees (weakly) more concurrent-adjacency conflicts.
    assert conflicts[-1] >= conflicts[0]
