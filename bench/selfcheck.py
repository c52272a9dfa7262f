"""Quick check that the benchmark itself works; run from the repo root::

    python3 bench/selfcheck.py

For every workload in ``BENCHMARK.json`` it makes one short untraced and
one short traced run and checks that:

* each run exits 0 with ``correct`` true and no failed operation;
* every metric of ``BENCHMARK.json`` appears, with its unit, both in the
  text lines and in the final JSON object;
* the traced ``direct-hw`` run's ``hw.makespan_cycles`` equals the sum
  over its inputs of a direct ``repro.color(..., backend="hw")`` call
  (the traced run also fails itself when a span leaves its parent);

and that a directory holding only the benchmark files makes the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SECONDS = "1"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: {lines[-1]}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise AssertionError(f"{where}: metric {metric['name']} missing or wrong unit")
        prefix = f"{workload} {metric['name']} "
        if not any(line.startswith(prefix) and f" {metric['unit']} n=" in line for line in lines):
            raise AssertionError(f"{where}: no text line for {metric['name']}")
    return result["metrics"]


def expected_makespan() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import repro
    from repro.graph import degree_based_grouping, sort_edges
    from workloads import DirectHw

    total = 0
    for raw in DirectHw(ROOT).inputs(SEED):
        graph = sort_edges(degree_based_grouping(raw).graph)
        # The Python replay: an implementation independent of the run's.
        total += repro.color(graph, backend="hw", engine="batched",
                             replay="python").stats.makespan_cycles
    return total


def check_needs_sources() -> None:
    """Without the program's sources the benchmark must fail, not report."""
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("direct-sw", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            raise AssertionError("benchmark reported a result without the program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(spec, workload, 0)
        layers = check_run(spec, workload, 1)
        if workload == "direct-hw":
            want = expected_makespan()
            if layers["hw.makespan_cycles"]["value"] != want:
                raise AssertionError(
                    f"hw.makespan_cycles {layers['hw.makespan_cycles']['value']} != {want}"
                )
        print(f"ok {workload}")
    check_needs_sources()
    print("ok without sources: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
