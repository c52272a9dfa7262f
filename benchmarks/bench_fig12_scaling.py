"""Figure 12 — BitColor speedup vs parallelism (1 to 16 BWPEs).

Paper: 16 BWPEs achieve 3.92x-7.01x over one BWPE — sublinear because of
data conflicts, dispatch serialization and shared DRAM bandwidth.

The ~10x larger paper-scale stand-ins are swept too whenever the native
kernel tier loads; without it the accelerator model runs the event
engine, impractical at that scale, and that sweep skips with the probe's
reason.
"""

import pytest

from repro.experiments import fig12_scaling, report
from repro.kernels import native


def test_fig12_scaling(benchmark, once, capsys):
    result = once(benchmark, fig12_scaling)
    with capsys.disabled():
        print("\n=== Fig 12: speedup vs parallelism (paper: 3.92x-7.01x at P=16) ===")
        print(report.render_fig12(result))
    for key, series in result.items():
        # Monotone non-decreasing in P, and clearly sublinear at P=16.
        ps = sorted(series)
        vals = [series[p] for p in ps]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), key
        assert series[16] < 13.0, key
        assert series[16] > 3.0, key


def test_fig12_scaling_paper_tier(benchmark, once, capsys):
    """Same sweep on the ~10x paper-scale tier."""
    reason = native.unavailable_reason()
    if reason is not None:
        pytest.skip(reason)
    result = once(benchmark, lambda: fig12_scaling(tier="paper"))
    with capsys.disabled():
        print("\n=== Fig 12 (paper-scale tier) ===")
        print(report.render_fig12(result))
    for key, series in result.items():
        ps = sorted(series)
        vals = [series[p] for p in ps]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), key
        assert series[16] > 1.0, key
