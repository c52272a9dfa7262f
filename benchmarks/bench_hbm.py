"""HBM crossover sweep benchmark — where the DRAM-read merge stops paying.

Runs the channels x layout x parallelism sweep on the ``hbm2`` memory
profile (see :mod:`repro.experiments.hbm_sweep`) plus the deterministic
``hbm`` gate smoke (engine parity on every profile x layout, delta-compressed
edge-read-cycle floor).  Running the file directly regenerates the
checked-in ``BENCH_hbm.json`` at ``tier="paper"``:

    PYTHONPATH=src python benchmarks/bench_hbm.py
"""

from repro.experiments import (
    run_hbm_smoke,
    run_hbm_sweep,
    write_baseline,
)
from repro.experiments.hbm_sweep import MINI_SWEEP, SMOKE_MIN_DELTA_REDUCTION


def _render(results):
    lines = [results["figure"]]
    smoke = results.get("smoke")
    if smoke:
        reductions = ", ".join(
            f"{k} {v:.1%}" for k, v in smoke["delta_reduction"].items()
        )
        lines.append(
            f"\ndelta-compressed edge-read-cycle reduction: {reductions} "
            f"(floor {smoke['floor']:.0%}); "
            f"{smoke['parity_checks']} engine-parity checks passed"
        )
    return "\n".join(lines)


def test_hbm_sweep(benchmark, once, capsys):
    results = once(benchmark, run_hbm_sweep, **MINI_SWEEP)
    results["smoke"] = run_hbm_smoke()
    with capsys.disabled():
        print("\n=== HBM crossover sweep (mini axes) ===")
        print(_render(results))
    assert results["colors_identical_across_cells"]
    assert results["smoke"]["min_delta_reduction"] >= SMOKE_MIN_DELTA_REDUCTION
    # Bandwidth scarcity is what makes the merge pay: the gain at the
    # fewest channels must dominate the gain at the most.
    by_ch = {e["channels"]: e["merge_gain"] for e in results["entries"]
             if e["layout"] == "plain"}
    assert by_ch[min(by_ch)] >= by_ch[max(by_ch)]


if __name__ == "__main__":
    results = run_hbm_sweep()
    results["smoke"] = run_hbm_smoke()
    path = write_baseline("hbm", results)
    print(_render(results))
    print(f"\nwrote {path}")
