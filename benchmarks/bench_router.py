"""Routing benchmark — is the one routing rule's candidate set complete?

Runs the 48-point scenario sweep (degree skew × community strength ×
density × size) and checks that on every point the measured-fastest
parity-neutral backend is the micro-batch lane or the software tier —
the only two lanes the router sends unpinned jobs to.  Byte parity of
the routed colorings with direct ``repro.color`` is asserted through a
live service before the record is kept.  Running the file directly
regenerates the checked-in ``BENCH_router.json``:

    PYTHONPATH=src python benchmarks/bench_router.py
"""

from repro.experiments import run_router_bench, write_router_results
from repro.experiments.scenario_sweep import sweep_report


def _render(results):
    smoke = results["smoke"]
    return "\n".join([
        sweep_report(results["matrix"]),
        "",
        f"routing rule covers the fastest parity-neutral backend on "
        f"{smoke['points'] - smoke['off_rule_points']}/{smoke['points']} "
        f"points; {smoke['parity_colorings_checked']} routed colorings "
        "byte-identical to direct repro.color",
    ])


def test_router_rule(benchmark, once, capsys):
    results = once(benchmark, run_router_bench)
    with capsys.disabled():
        print("\n=== Routing layer: one rule, two lanes ===")
        print(_render(results))
    smoke = results["smoke"]
    assert smoke["off_rule_points"] == 0
    assert smoke["parity_colorings_checked"] > 0


if __name__ == "__main__":
    results = run_router_bench(repeats=3, progress=print)
    path = write_router_results(results)
    print(_render(results))
    print(f"\nwrote {path}")
