"""Tier-1 side of the bench gates and the checked-in ``BENCH_*.json`` records.

Every row of :data:`repro.experiments.gates.GATES` runs exactly once: the
``kernels`` row via :func:`test_obs_disabled_overhead`, the others via
:func:`test_gate`.  The tests around them check the checked-in records,
the gate machinery on fake rows, and that the merged ``kernels`` row
still catches a real kernel slowdown.
"""

from pathlib import Path

import pytest

from repro.experiments import load_baseline, run_native_smoke, run_smoke
from repro.experiments.gates import GATES, Gate, run_gate
from repro.experiments.hw_bench import LARGEST_STANDIN
from repro.experiments.router_bench import off_rule_points

REPO_ROOT = Path(__file__).resolve().parents[1]
ROWS = {gate.name: gate for gate in GATES}


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


@pytest.mark.parametrize(
    "gate", [g for g in GATES if g.name != "kernels"], ids=lambda gate: gate.name
)
def test_gate(gate):
    result = run_gate(gate)
    if result.status == "skip":
        pytest.skip(result.reason)
    assert result.status == "pass", result


def test_obs_disabled_overhead():
    """The ``kernels`` row: instrumented-but-disabled kernels keep the
    python/vectorized speedup within 5 % of the recorded one."""
    result = run_gate(ROWS["kernels"])
    assert result.status == "pass", result


def test_smoke_no_regression():
    """``run_smoke`` records the speedup the ``kernels`` row compares
    against; it must time under the default registry with observability
    off, as the row's re-timing does."""
    from repro.obs import Registry, get_registry, use_registry

    registry = get_registry()
    assert not registry.enabled
    run_smoke(repeats=1)
    assert registry.snapshot() == Registry().snapshot()
    # The same run into an enabled registry does record.
    with use_registry(Registry()) as enabled:
        run_smoke(repeats=1)
    assert enabled.snapshot()["counters"]


def test_gate_table_bounds():
    """Each row keeps the one bound the gates have always applied."""
    assert {name: (g.kind, g.bound, g.baseline) for name, g in ROWS.items()} == {
        "kernels": ("ratio", 1.05, "kernels"),
        "hw": ("ratio", 2.0, "hw"),
        "service": ("ratio", 4.0, "service"),
        "streaming": ("floor", 10.0, None),
        "mesh": ("floor", 1.3, None),
        "router": ("deterministic", 1.0, "router"),
        "hbm": ("deterministic", 0.15, None),
        "native": ("floor", 3.0, None),
        "native-replay": ("floor", 1.2, None),
    }


def test_kernels_gate_catches_a_kernel_regression(monkeypatch):
    """The vectorized kernel silently running the scalar path must fail."""
    from repro.experiments import kernel_bench

    real = kernel_bench._runner
    monkeypatch.setattr(
        kernel_bench, "_runner",
        lambda algorithm, graph, backend: real(algorithm, graph, "python"),
    )
    result = run_gate(ROWS["kernels"], repeats=1)
    assert result.status == "fail", result
    assert result.current < result.threshold


def test_missing_baseline_fails_only_that_row():
    row = Gate("absent", "ratio", lambda doc, repeats: 1.0, 2.0,
               baseline="absent")
    assert run_gate(row) == (
        "absent", "fail", None, None, "run benchmarks/bench_absent.py"
    )


def test_smoke_script_main(monkeypatch, capsys):
    """The script reports every row, then exits 1 if any failed."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_smoke", REPO_ROOT / "scripts" / "bench_smoke.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "GATES", (
        Gate("fast", "floor", lambda doc, repeats: 2.0, 1.5),
        Gate("slow", "floor", lambda doc, repeats: 1.0, 1.5),
        Gate("elsewhere", "floor", lambda doc, repeats: 2.0, 1.5,
             skip=lambda: "not on this host"),
    ))
    assert mod.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fast: pass 2 1.5 (absolute floor)",
        "slow: fail 1 1.5 (absolute floor)",
        "elsewhere: skip - - (not on this host)",
    ]


def test_router_smoke_flags_an_off_rule_point(monkeypatch):
    """A matrix where another backend wins must fail the row."""
    from repro.experiments import gates

    matrix = load_baseline("router")["matrix"]
    point = matrix["points"][0]
    point["seconds"]["hw"] = min(point["seconds"].values()) / 2
    assert off_rule_points(matrix) == [
        {"params": point["params"], "fastest": "hw"}
    ]
    monkeypatch.setattr(gates, "load_baseline", lambda name: {"matrix": matrix})
    monkeypatch.setattr(gates, "run_router_parity", lambda: 0)
    assert run_gate(ROWS["router"]).status == "fail"


def test_baseline_is_checked_in():
    doc = load_baseline("kernels")
    assert doc["smoke"]["baseline_speedup"] > 1.0
    gd = [
        e
        for e in doc["entries"]
        if e["dataset"] == "GD" and e["algorithm"] == "bitwise"
    ]
    assert gd and gd[0]["speedup"] >= 10.0


def test_hw_baseline_is_checked_in():
    doc = load_baseline("hw")
    assert doc["smoke"]["baseline_speedup"] > 1.0
    assert all(e["exact_parity"] for e in doc["entries"])
    # The acceptance record: >=10x on the largest stand-in.
    rc = [e for e in doc["entries"] if e["dataset"] == LARGEST_STANDIN]
    assert rc and rc[0]["speedup"] >= 10.0


def test_streaming_baseline_is_checked_in():
    doc = load_baseline("streaming")
    # The acceptance record: the session lane sustains >= 10x the naive
    # per-batch full-recolor baseline, with every batch validated.
    assert doc["floor_speedup"] == ROWS["streaming"].bound
    assert doc["smoke"]["baseline_speedup"] >= doc["floor_speedup"]
    assert doc["smoke"]["validated_batches"] > 0
    for entry in doc["entries"]:
        assert entry["validated_batches"] == entry["batches"]


def test_router_baseline_is_checked_in():
    doc = load_baseline("router")
    # The acceptance record: on every sweep point the measured-fastest
    # parity-neutral backend is one the routing rule picks (micro-batch
    # or the software tier), with live coloring parity asserted.
    assert len(doc["matrix"]["points"]) >= 48
    assert doc["smoke"]["points"] == len(doc["matrix"]["points"])
    assert doc["smoke"]["off_rule_points"] == 0
    assert doc["smoke"]["parity_colorings_checked"] > 0


def test_hbm_baseline_is_checked_in():
    """The paper-tier sweep passes its own gate and carries the full axes."""
    doc = load_baseline("hbm")
    assert doc["tier"] == "paper", doc["tier"]
    assert doc["colors_identical_across_cells"] is True
    smoke = doc["smoke"]
    assert smoke["min_delta_reduction"] >= smoke["floor"], smoke
    rows = {(c["dataset"], c["parallelism"], c["layout"])
            for c in doc["crossover"]}
    axes = doc["axes"]
    assert len(rows) == (len(axes["datasets"]) * len(axes["parallelisms"])
                         * len(axes["layouts"]))


def test_run_smoke_shape():
    doc = run_smoke(repeats=1)
    assert doc["algorithm"] == "bitwise"
    assert doc["baseline_speedup"] == pytest.approx(
        doc["python_s"] / doc["vectorized_s"]
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
    """The checked-in JSON must carry the native evidence: >= 3x on the
    raw kernel bench and >= 1.2x on the replay (recorded on the machine
    that regenerated it — the block is absent only if that machine had
    no compiler, which the seed baseline did)."""
    native_smoke = load_baseline("kernels").get("native_smoke")
    assert native_smoke is not None
    if native_smoke["available"]:
        assert native_smoke["baseline_speedup"] >= ROWS["native"].bound
        assert native_smoke["backend"]["name"]
    hw_native = load_baseline("hw").get("native_smoke")
    assert hw_native is not None
    if hw_native["available"]:
        assert hw_native["baseline_speedup"] >= ROWS["native-replay"].bound
