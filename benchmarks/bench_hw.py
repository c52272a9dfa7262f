"""Accelerator engine benchmark — event-driven vs batched wall clock.

Times both engines of ``BitColorAccelerator`` on the full stand-in suite
at the paper settings (flags.all(), P=16), asserting exact result parity
before any timing is kept.  The batched engine is one native call; on a
host without a compiler it runs the event engine and the speedups read
~1x.  Running the file directly regenerates the checked-in
``BENCH_hw.json``:

    PYTHONPATH=src python benchmarks/bench_hw.py
"""

from repro.experiments import run_hw_bench, write_baseline
from repro.experiments.hw_bench import LARGEST_STANDIN


def _render(results):
    backend = results["native_backend"]
    lines = [
        "batched engine: "
        + (f"native run, {backend['name']} ({backend['version']})"
           if backend else "event engine (native tier unavailable)"),
        "dataset  vertices    event       batched     speedup",
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['dataset']:<8} {e['num_vertices']:<11} "
            f"{e['event_s'] * 1e3:9.1f}ms {e['batched_s'] * 1e3:9.2f}ms "
            f"{e['speedup']:6.1f}x"
        )
    smoke = results["smoke"]
    lines.append(
        f"smoke                mixed       "
        f"{smoke['event_s'] * 1e3:9.1f}ms {smoke['batched_s'] * 1e3:9.2f}ms "
        f"{smoke['baseline_speedup']:6.1f}x"
    )
    return "\n".join(lines)


def test_hw_engines(benchmark, once, capsys):
    results = once(benchmark, run_hw_bench)
    with capsys.disabled():
        print("\n=== Accelerator engines: event vs batched (exact parity) ===")
        print(_render(results))
    assert all(e["exact_parity"] for e in results["entries"])
    # The acceptance target: >=10x on the largest stand-in (RC), where
    # the batched engine is the native run.
    rc = [e for e in results["entries"] if e["dataset"] == LARGEST_STANDIN]
    assert rc
    if results["native_backend"] is not None:
        assert rc[0]["speedup"] >= 10.0


if __name__ == "__main__":
    results = run_hw_bench(repeats=5)
    path = write_baseline("hw", results)
    print(_render(results))
    print(f"\nwrote {path}")
