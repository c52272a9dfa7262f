"""Streaming-lane benchmark — session delta batches vs naive full recolor.

An RMAT stream (register a 90% prefix, then stream the held-out edges
plus random expirations in fixed-size batches) is driven two ways: one
live service session absorbing each batch via vectorized incremental
repair, and the naive one-shot answer — rebuild the mutated snapshot and
run a full ``repro.color`` per batch.  Validity is asserted after every
batch (untimed) before any timing is kept.  Running the file directly
regenerates the checked-in ``BENCH_streaming.json``:

    PYTHONPATH=src python benchmarks/bench_streaming.py
"""

from repro.experiments import run_streaming_bench, write_baseline


def _render(results):
    lines = [
        "vertices  edges    deltas   session      naive     speedup",
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['num_vertices']:<9} {e['registered_edges']:<8} "
            f"{e['deltas']:<8} {e['session_s'] * 1e3:7.1f}ms "
            f"{e['naive_s'] * 1e3:8.1f}ms {e['speedup']:7.2f}x"
        )
    smoke = results["smoke"]
    lines.append(
        f"smoke: {smoke['deltas']} deltas, "
        f"{smoke['session_deltas_per_s']:,.0f}/s session vs "
        f"{smoke['naive_deltas_per_s']:,.0f}/s naive "
        f"({smoke['baseline_speedup']:.2f}x, floor "
        f"{results['floor_speedup']:.0f}x)"
    )
    return "\n".join(lines)


def test_streaming_lane(benchmark, once, capsys):
    results = once(benchmark, run_streaming_bench)
    with capsys.disabled():
        print("\n=== Session lane: incremental repair vs per-batch full recolor ===")
        print(_render(results))
    # The acceptance shape: every batch validated, and the smoke scenario
    # must clear the absolute floor the CI gate enforces.
    for entry in results["entries"]:
        assert entry["validated_batches"] == entry["batches"]
    assert results["smoke"]["baseline_speedup"] >= results["floor_speedup"]


if __name__ == "__main__":
    results = run_streaming_bench(repeats=3)
    path = write_baseline("streaming", results)
    print(_render(results))
    print(f"\nwrote {path}")
