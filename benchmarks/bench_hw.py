"""Accelerator engine benchmark — event-driven vs epoch-batched wall clock.

Times both engines of ``BitColorAccelerator`` on the full stand-in suite
at the paper settings (flags.all(), P=16), asserting exact result parity
before any timing is kept.  Running the file directly regenerates the
checked-in ``BENCH_hw.json``:

    PYTHONPATH=src python benchmarks/bench_hw.py
"""

from repro.experiments import run_hw_bench, write_baseline
from repro.experiments.hw_bench import LARGEST_STANDIN


def _native_cols(e):
    """The native-replay columns, or dashes when the tier was unavailable."""
    if "native_s" not in e:
        return f"{'-':>11} {'-':>7}"
    return f"{e['native_s'] * 1e3:9.1f}ms {e['native_speedup']:6.1f}x"


def _render(results):
    lines = [
        "dataset  vertices    event       batched     speedup "
        "native      vs batch"
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['dataset']:<8} {e['num_vertices']:<11} "
            f"{e['event_s'] * 1e3:9.1f}ms {e['batched_s'] * 1e3:9.1f}ms "
            f"{e['speedup']:6.1f}x {_native_cols(e)}"
        )
    smoke = results["smoke"]
    lines.append(
        f"smoke                mixed       "
        f"{smoke['event_s'] * 1e3:9.1f}ms {smoke['batched_s'] * 1e3:9.1f}ms "
        f"{smoke['baseline_speedup']:6.1f}x {_native_cols(smoke)}"
    )
    native_smoke = results.get("native_smoke") or {}
    if native_smoke.get("available"):
        backend = native_smoke["backend"]
        lines.append(
            f"\n=== Native replay: {backend['name']} ({backend['version']}) ==="
        )
        lines.append(
            f"batched smoke run: python replay "
            f"{native_smoke['python_replay_s'] * 1e3:.2f}ms, native replay "
            f"{native_smoke['native_replay_s'] * 1e3:.2f}ms "
            f"({native_smoke['baseline_speedup']:.1f}x)"
        )
    elif native_smoke:
        lines.append(f"\nnative replay unavailable: {native_smoke['reason']}")
    return "\n".join(lines)


def test_hw_engines(benchmark, once, capsys):
    results = once(benchmark, run_hw_bench)
    with capsys.disabled():
        print("\n=== Accelerator engines: event vs batched (exact parity) ===")
        print(_render(results))
    assert all(e["exact_parity"] for e in results["entries"])
    # The acceptance target: >=10x on the largest stand-in (RC).
    rc = [e for e in results["entries"] if e["dataset"] == LARGEST_STANDIN]
    assert rc and rc[0]["speedup"] >= 10.0


if __name__ == "__main__":
    results = run_hw_bench(repeats=5)
    path = write_baseline("hw", results)
    print(_render(results))
    print(f"\nwrote {path}")
