"""Tests for cross-platform metrics."""

import pytest

from repro.perfmodel import (
    ComparisonRow,
    arith_mean,
    kcvj,
    mcvs,
    speedup,
)


class TestSpeedup:
    def test_basic(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_zero_denominator(self):
        assert speedup(1.0, 0.0) == float("inf")


class TestMeans:
    def test_arith_mean(self):
        assert arith_mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            arith_mean([])


class TestThroughputEnergy:
    def test_mcvs(self):
        assert mcvs(2_000_000, 1.0) == 2.0
        assert mcvs(5, 0) == float("inf")

    def test_kcvj(self):
        assert kcvj(1_000_000, 1.0, 100.0) == pytest.approx(10.0)
        assert kcvj(5, 0, 10) == float("inf")


class TestRecords:
    def test_comparison_row(self):
        r = ComparisonRow("EF", cpu_time_s=10.0, gpu_time_s=4.0, fpga_time_s=2.0)
        assert r.speedup_vs_cpu == 5.0
        assert r.speedup_vs_gpu == 2.0
