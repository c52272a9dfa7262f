#!/usr/bin/env python
"""Run every bench gate against the checked-in ``BENCH_*.json`` baselines.

The gates are the rows of :data:`repro.experiments.gates.GATES`; each
prints one ``name: pass|fail|skip current threshold (reason)`` line.
Exits 1 if any row failed, after reporting all of them.

Usage:

    python scripts/bench_smoke.py [--repeats 3]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.gates import GATES, run_gate  # noqa: E402


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats; the best run counts (default: 3)",
    )
    args = parser.parse_args(argv)
    failed = False
    for gate in GATES:
        r = run_gate(gate, repeats=args.repeats)
        print(f"{r.name}: {r.status} {_fmt(r.current)} "
              f"{_fmt(r.threshold)} ({r.reason})", flush=True)
        failed |= r.status == "fail"
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
