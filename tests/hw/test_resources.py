"""Tests for the resource/frequency model (Figure 14) and energy model."""

import pytest

from repro.hw import (
    DEFAULT_POWER,
    HWConfig,
    PlatformPower,
    U200,
    deployed_cache_bytes,
    estimate_resources,
    multiport_bram_comparison,
)
from repro.perfmodel import kcvj


class TestResourceModel:
    def test_monotone_in_parallelism(self):
        reports = [estimate_resources(HWConfig(parallelism=p)) for p in (1, 2, 4, 8, 16)]
        for a, b in zip(reports, reports[1:]):
            assert b.luts > a.luts
            assert b.registers > a.registers
            assert b.bram_blocks > a.bram_blocks
            assert b.frequency_mhz < a.frequency_mhz

    def test_p16_matches_paper(self):
        """Paper: 47.79 % LUTs, 51.09 % FFs, 96.72 % BRAM at P = 16."""
        u = estimate_resources(HWConfig(parallelism=16)).utilization()
        assert u["lut_pct"] == pytest.approx(47.79, abs=3.0)
        assert u["register_pct"] == pytest.approx(51.09, abs=3.0)
        assert u["bram_pct"] == pytest.approx(96.72, abs=3.0)

    def test_frequency_above_200(self):
        for p in (1, 2, 4, 8, 16):
            assert estimate_resources(HWConfig(parallelism=p)).frequency_mhz > 200

    def test_fits_on_device(self):
        dev = U200()
        r = estimate_resources(HWConfig(parallelism=16))
        assert r.luts < dev.luts
        assert r.registers < dev.registers
        assert r.bram_blocks < dev.bram_blocks

    def test_superlinear_growth_at_16(self):
        """The paper: near-linear to P8, super-linear at P16."""
        l8 = estimate_resources(HWConfig(parallelism=8)).luts
        l16 = estimate_resources(HWConfig(parallelism=16)).luts
        l4 = estimate_resources(HWConfig(parallelism=4)).luts
        growth_4_8 = l8 / l4
        growth_8_16 = l16 / l8
        assert growth_8_16 > growth_4_8

    def test_deployed_cache_halved_at_p16(self):
        assert deployed_cache_bytes(HWConfig(parallelism=8)) == 1 << 20
        assert deployed_cache_bytes(HWConfig(parallelism=16)) == 1 << 19

    def test_multiport_comparison_fields(self):
        cmp = multiport_bram_comparison(1024, 8)
        assert cmp["bit_select_words"] < cmp["lvt_words"]
        assert cmp["bit_select_read_latency"] < cmp["lvt_read_latency"]


class TestEnergyModel:
    def test_kcvj(self):
        """The default powers turn the paper's throughputs back into its
        KCV/J figures: CPU 0.88 MCV/S -> 12, BitColor 41.6 at P=16 -> 156."""
        assert kcvj(880_000, 1.0, DEFAULT_POWER.cpu_watts) == pytest.approx(12, rel=0.02)
        assert kcvj(41_600_000, 1.0, DEFAULT_POWER.fpga_watts(16)) == pytest.approx(
            156, rel=0.02
        )

    def test_fpga_power_scales(self):
        p = PlatformPower()
        assert p.fpga_watts(16) > p.fpga_watts(1)

    def test_paper_implied_powers(self):
        """The defaults encode the paper's implied wall powers:
        CPU 0.88 MCV/S at 12 KCV/J -> ~73 W; GPU 15.3 at 19 -> ~805 W;
        FPGA 41.6 at 156 -> ~266 W."""
        assert DEFAULT_POWER.cpu_watts == pytest.approx(0.88e6 / 12e3, rel=0.02)
        assert DEFAULT_POWER.gpu_watts == pytest.approx(15.3e6 / 19e3, rel=0.02)
        assert DEFAULT_POWER.fpga_watts(16) == pytest.approx(41.6e6 / 156e3, rel=0.02)
