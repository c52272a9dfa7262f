"""Ablation — HDV cache capacity sweep.

How BitColor's runtime responds as the fraction of cached vertices
shrinks (the paper fixes 512K vertices; this shows why that choice is
comfortable for mid-size graphs and what the CF-class regime costs).
"""

import repro
from repro.experiments import get_graph
from repro.experiments.report import render_table
from repro.hw import HWConfig


def run(key="CL", fractions=(1.0, 0.5, 0.25, 0.1, 0.02, 0.0)):
    g = get_graph(key)
    out = []
    for frac in fractions:
        cache_vertices = max(1, int(frac * g.num_vertices)) if frac > 0 else 1
        cfg = HWConfig(parallelism=16, cache_bytes=2 * cache_vertices)
        res = repro.color(g, backend="hw", config=cfg)
        out.append((frac, res.stats.makespan_cycles, res.stats.ldv_reads,
                    res.stats.cache_reads))
    return out


def test_cache_size_sweep(benchmark, once, capsys):
    rows = once(benchmark, run)
    with capsys.disabled():
        print("\n=== Ablation: HDV cache capacity sweep (CL stand-in, P=16) ===")
        print(
            render_table(
                ["cached fraction", "makespan cycles", "LDV reads", "cache reads"],
                [(f"{f:.2f}", c, l, h) for f, c, l, h in rows],
            )
        )
    cycles = [c for _, c, _, _ in rows]
    # Less cache, never faster.
    assert all(b >= a - a // 50 for a, b in zip(cycles, cycles[1:]))
    assert cycles[-1] > cycles[0]
