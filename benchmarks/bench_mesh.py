"""Mesh throughput benchmark — N worker processes behind one router.

A closed-loop fleet of small coloring jobs is pushed through meshes of
1, 2, and 4 worker processes (:mod:`repro.service.mesh`): consistent-
hash placement, spill on shed, 16 client threads keeping every worker's
admission queue fed.  Byte parity with direct ``repro.color`` is
asserted across all ten registry stand-ins, for unpinned jobs and for
``backend="parallel"`` pins, before any timing is kept, and
``host_cpus`` is recorded because multi-worker scaling on a 1-CPU host
only measures routing overhead.  Running the file directly regenerates
the checked-in ``BENCH_mesh.json``:

    PYTHONPATH=src python benchmarks/bench_mesh.py
"""

from repro.experiments import run_mesh_bench, write_baseline


def _render(results):
    lines = [
        f"host_cpus={results['host_cpus']}  fleet={results['fleet']}  "
        f"client_threads={results['client_threads']}",
        "workers   seconds     jobs/s   scaling",
    ]
    for e in results["entries"]:
        lines.append(
            f"{e['workers']:<8} {e['seconds'] * 1e3:8.1f}ms "
            f"{e['jobs_per_s']:8.1f}  {e['scaling_vs_1']:6.2f}x"
        )
    gate = results["scaling_gate"]
    if gate["skipped"]:
        lines.append(f"scaling gate: skipped — {gate['reason']}")
    else:
        lines.append(f"scaling gate: floor {gate['floor']:.2f}x")
    smoke = results["smoke"]
    lines.append(
        f"smoke: 1w {smoke['workers1_s'] * 1e3:.1f}ms, "
        f"2w {smoke['workers2_s'] * 1e3:.1f}ms "
        f"({smoke['baseline_speedup']:.2f}x)"
    )
    return "\n".join(lines)


def test_mesh_scaling(benchmark, once, capsys):
    results = once(benchmark, run_mesh_bench)
    with capsys.disabled():
        print("\n=== Service mesh: closed-loop fleet vs worker count ===")
        print(_render(results))
    # The acceptance shape: parity must hold on every stand-in, and on
    # hosts with real cores to spare 2 workers must beat 1.
    assert results["parity"]["forward_path_exact"]
    assert results["parity"]["parallel_pin_exact"]
    assert len(results["parity"]["datasets"]) == 10
    by_workers = {e["workers"]: e for e in results["entries"]}
    if not results["scaling_gate"]["skipped"] and 2 in by_workers:
        assert by_workers[2]["scaling_vs_1"] >= 1.0


if __name__ == "__main__":
    results = run_mesh_bench(repeats=3)
    path = write_baseline("mesh", results)
    print(_render(results))
    print(f"\nwrote {path}")
