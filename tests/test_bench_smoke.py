"""Tier-1 wrapper around ``scripts/bench_smoke.py``.

Keeps two budgets honest on every test run: the vectorized bitwise
backend must stay within 2x of the speedup recorded in the checked-in
``BENCH_kernels.json``, and the disabled-observability overhead on the
same kernel run must keep the vectorized/python time ratio within 5 %
of the recorded pre-instrumentation ratio (ratio form so host speed
drift cancels).  The smoke graph is tiny (1200 vertices) so this costs
tens of milliseconds.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    check_hw_native_smoke,
    check_hw_smoke,
    check_native_smoke,
    check_obs_overhead,
    check_router_smoke,
    check_smoke,
    load_hw_results,
    load_results,
    load_router_results,
    run_native_smoke,
    run_smoke,
)
from repro.experiments.hw_bench import DEFAULT_HW_RESULT_PATH, LARGEST_STANDIN
from repro.experiments.kernel_bench import DEFAULT_RESULT_PATH
from repro.experiments.router_bench import DEFAULT_ROUTER_RESULT_PATH
from repro.experiments.streaming_bench import DEFAULT_STREAMING_RESULT_PATH

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _quiesce_worker_pools():
    """Reap any persistent worker pools before timing.

    The smoke gates compare wall clock against a baseline recorded in a
    clean single-process state; idle pool workers left behind by the
    parallel-backend tests measurably perturb microsecond-scale timings
    on small hosts, so the pools are shut down first (they respawn on
    demand).
    """
    from repro.parallel.pool import shutdown_pools

    shutdown_pools()
    yield


def test_baseline_is_checked_in():
    assert DEFAULT_RESULT_PATH == REPO_ROOT / "BENCH_kernels.json"
    assert DEFAULT_RESULT_PATH.exists(), "run benchmarks/bench_kernels.py first"
    doc = json.loads(DEFAULT_RESULT_PATH.read_text())
    assert doc["smoke"]["baseline_speedup"] > 1.0
    gd = [
        e
        for e in doc["entries"]
        if e["dataset"] == "GD" and e["algorithm"] == "bitwise"
    ]
    assert gd and gd[0]["speedup"] >= 10.0


def test_hw_baseline_is_checked_in():
    assert DEFAULT_HW_RESULT_PATH == REPO_ROOT / "BENCH_hw.json"
    assert DEFAULT_HW_RESULT_PATH.exists(), "run benchmarks/bench_hw.py first"
    doc = json.loads(DEFAULT_HW_RESULT_PATH.read_text())
    assert doc["smoke"]["baseline_speedup"] > 1.0
    assert all(e["exact_parity"] for e in doc["entries"])
    # The acceptance record: >=10x on the largest stand-in.
    rc = [e for e in doc["entries"] if e["dataset"] == LARGEST_STANDIN]
    assert rc and rc[0]["speedup"] >= 10.0


def test_streaming_baseline_is_checked_in():
    assert DEFAULT_STREAMING_RESULT_PATH == REPO_ROOT / "BENCH_streaming.json"
    assert DEFAULT_STREAMING_RESULT_PATH.exists(), (
        "run benchmarks/bench_streaming.py first"
    )
    doc = json.loads(DEFAULT_STREAMING_RESULT_PATH.read_text())
    # The acceptance record: the session lane sustains >= 10x the naive
    # per-batch full-recolor baseline, with every batch validated.
    assert doc["floor_speedup"] == 10.0
    assert doc["smoke"]["baseline_speedup"] >= doc["floor_speedup"]
    assert doc["smoke"]["validated_batches"] > 0
    for entry in doc["entries"]:
        assert entry["validated_batches"] == entry["batches"]


def test_router_baseline_is_checked_in():
    assert DEFAULT_ROUTER_RESULT_PATH == REPO_ROOT / "BENCH_router.json"
    assert DEFAULT_ROUTER_RESULT_PATH.exists(), (
        "run benchmarks/bench_router.py first"
    )
    doc = json.loads(DEFAULT_ROUTER_RESULT_PATH.read_text())
    # The acceptance record: on every sweep point the measured-fastest
    # parity-neutral backend is one the routing rule picks (micro-batch
    # or the software tier), with live coloring parity asserted.
    assert len(doc["matrix"]["points"]) >= 48
    assert doc["smoke"]["points"] == len(doc["matrix"]["points"])
    assert doc["smoke"]["off_rule_points"] == 0
    assert doc["smoke"]["parity_colorings_checked"] > 0


def test_router_smoke_no_regression():
    """Re-score the routing rule's candidate set on the checked-in matrix.

    Deterministic (scores against the recorded seconds, no re-timing)
    apart from the live parity probe through a real service.
    """
    baseline = load_router_results()
    ok, current = check_router_smoke(baseline)
    assert ok, f"points the routing rule never picks: {current['off_rule']}"
    assert current["parity_colorings_checked"] > 0


def test_router_smoke_flags_an_off_rule_point():
    """A matrix where another backend wins must fail the gate."""
    baseline = load_router_results()
    matrix = json.loads(json.dumps(baseline["matrix"]))
    point = matrix["points"][0]
    point["seconds"]["hw"] = min(point["seconds"].values()) / 2
    ok, current = check_router_smoke({"matrix": matrix}, live_parity=False)
    assert not ok
    assert current["off_rule"] == [
        {"params": point["params"], "fastest": "hw"}
    ]


def test_hw_smoke_no_regression():
    baseline = load_hw_results()
    ok, current, threshold = check_hw_smoke(baseline, factor=2.0, repeats=2)
    assert ok, (
        f"batched accelerator engine regressed: smoke speedup {current:.2f}x "
        f"fell below threshold {threshold:.2f}x"
    )


def test_smoke_no_regression():
    baseline = load_results()
    ok, current, threshold = check_smoke(baseline, factor=2.0, repeats=3)
    assert ok, (
        f"vectorized backend regressed: smoke speedup {current:.2f}x "
        f"fell below threshold {threshold:.2f}x"
    )


def test_smoke_script_main():
    """The CLI wiring itself: exit 0 against the checked-in baseline."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_smoke", REPO_ROOT / "scripts" / "bench_smoke.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main(["--repeats", "2"]) == 0
    # An absurd factor<1 demand must fail (current can't beat baseline*10).
    assert mod.main(["--factor", "0.01"]) == 1


def test_obs_disabled_overhead():
    """Instrumented-but-disabled kernels must stay within 5% of baseline."""
    baseline = load_results()
    ok, current, threshold = check_obs_overhead(baseline, limit=1.05, repeats=7)
    assert ok, (
        f"disabled observability overhead too high: vectorized/python "
        f"time ratio {current:.4f} exceeds threshold {threshold:.4f}"
    )


def test_run_smoke_shape():
    doc = run_smoke(repeats=1)
    assert doc["algorithm"] == "bitwise"
    assert doc["baseline_speedup"] == pytest.approx(
        doc["python_s"] / doc["vectorized_s"]
    )


def test_native_kernel_gate():
    """The compiled tier must clear its absolute floor — or skip cleanly.

    ``ok is None`` means no native backend is usable on this host, which
    is a legitimate state (the tier is opt-in); anything else is a hard
    pass/fail against the >= 3x acceptance floor.
    """
    ok, current, threshold = check_native_smoke(repeats=3)
    if ok is None:
        from repro.kernels import native

        pytest.skip(f"native tier unavailable: {native.unavailable_reason()}")
    assert ok, (
        f"compiled kernels fell below the acceptance floor: "
        f"{current:.2f}x < {threshold:.2f}x"
    )


def test_native_replay_gate():
    """Same shape for the batched engine's compiled replay recurrence."""
    ok, current, threshold = check_hw_native_smoke(repeats=2)
    if ok is None:
        from repro.kernels import native

        pytest.skip(f"native tier unavailable: {native.unavailable_reason()}")
    assert ok, (
        f"compiled replay fell below the acceptance floor: "
        f"{current:.2f}x < {threshold:.2f}x"
    )


def test_native_smoke_doc_shape():
    doc = run_native_smoke(repeats=1)
    if not doc["available"]:
        assert doc["reason"]
        return
    assert doc["baseline_speedup"] == pytest.approx(
        doc["vectorized_s"] / doc["native_s"]
    )
    assert doc["backend"]["name"]


def test_native_baseline_recorded_when_available():
    """The checked-in JSON must carry the native evidence for this PR's
    acceptance: >= 3x on the raw kernel bench (recorded on the machine
    that regenerated it — the block is absent only if that machine had
    no compiler, which the seed baseline did)."""
    doc = json.loads(DEFAULT_RESULT_PATH.read_text())
    native_smoke = doc.get("native_smoke")
    assert native_smoke is not None
    if native_smoke["available"]:
        assert native_smoke["baseline_speedup"] >= 3.0
        assert native_smoke["backend"]["name"]
    hw_doc = json.loads(DEFAULT_HW_RESULT_PATH.read_text())
    hw_native = hw_doc.get("native_smoke")
    assert hw_native is not None
    if hw_native["available"]:
        assert hw_native["baseline_speedup"] >= 1.2
