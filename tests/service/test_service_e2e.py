"""End-to-end service contract: parity, robustness, lifecycle, obs.

The parity matrix: for every stand-in dataset and every supported
(algorithm, backend, engine) combination, colors served by
:class:`ColoringService` are byte-identical to a direct
:func:`repro.color` call with the same arguments.

The robustness tests inject one fault each and check the one failure
rule: every job ends in exactly one typed terminal state, after at most
one execution attempt, with in-flight and queue accounting back at zero.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro.experiments import DATASET_KEYS, load_dataset
from repro.graph import erdos_renyi, road_grid, scenario_graph
from repro.service import (
    Client,
    JobFailed,
    JobRequest,
    JobState,
    JobTimeout,
    RetryAfter,
    ServiceClosed,
    execution,
)

# (algorithm, backend, engine, opts) — every combination the service must
# serve byte-identically.  jp has no hw backend (registry capability
# flags), so its rows cover its full backend surface.
PARITY_COMBOS = [
    ("bitwise", "vectorized", None, {}),
    ("bitwise", "hw", "batched", {"parallelism": 16}),
    ("jp", "vectorized", None, {"seed": 0}),
]


def assert_settled(svc, *, completed=0, failed=0, timed_out=0):
    """Every job reached exactly one terminal counter, and the service
    holds no in-flight or queued work."""
    assert svc.drain(timeout=10)
    status = svc.status()
    assert status["inflight"] == 0
    assert status["queue_depth"] == 0
    jobs = status["jobs"]
    assert (jobs["completed"], jobs["failed"], jobs["timed_out"]) == (
        completed, failed, timed_out,
    )
    assert jobs["submitted"] == completed + failed + timed_out


def attempt_spans(svc):
    return [s for s in svc.registry.spans if s.name == "service.attempt"]


class TestParityMatrix:
    @pytest.mark.parametrize("dataset", DATASET_KEYS)
    def test_all_datasets_all_combos(self, dataset, service_factory):
        graph = load_dataset(dataset, preprocessed=True)
        svc = service_factory(executors=2, cache_capacity=0)
        client = Client(svc, client_id="parity")
        for algorithm, backend, engine, opts in PARITY_COMBOS:
            direct = repro.color(
                graph,
                algorithm,
                backend=backend,
                **({"engine": engine} if engine else {}),
                **opts,
            )
            served = client.color(
                graph,
                algorithm=algorithm,
                backend=backend,
                engine=engine,
                **opts,
            )
            label = f"{dataset}/{algorithm}/{backend}/{engine}"
            assert served.colors.tobytes() == direct.colors.tobytes(), label
            assert served.n_colors == direct.n_colors, label
        svc.close()

    def test_dataset_resolved_server_side(self, service_factory):
        svc = service_factory(executors=1)
        served = Client(svc).color(dataset="EF")
        direct = repro.color(load_dataset("EF", preprocessed=True))
        assert np.array_equal(served.colors, direct.colors)

    def test_batch_lane_parity(self, service_factory, small_graphs):
        """Jobs that ride a micro-batch still return solo-identical colors."""
        svc = service_factory(executors=2, batch_window_s=0.05)
        client = Client(svc)
        jobs = [
            svc.submit(JobRequest(graph=g, client_id="batch"))
            for g in small_graphs
        ]
        for g, job in zip(small_graphs, jobs):
            result = job.result_or_raise(timeout=30)
            assert np.array_equal(result.colors, repro.color(g).colors)


class TestRoutingNeverChangesColors:
    """Unpinned jobs of any size and shape color like ``repro.color``."""

    @pytest.mark.parametrize(
        "point",
        [(65_536, 0.6, 0.0, 4), (3000, 0.45, 0.6, 6)],
        ids=["skewed-65536", "community-3000"],
    )
    def test_large_skewed_graph_matches_direct(self, service_factory, point):
        # (size, skew, community, density): a heavy-tailed graph past 50k
        # vertices and a planted-community one, both above every
        # micro-batch crossover, so they run solo.
        g = scenario_graph(*point, seed=11)
        served = Client(service_factory()).color(g)
        assert served.route.startswith("direct")
        assert served.colors.tobytes() == repro.color(g).colors.tobytes()

    def test_large_regular_graph_runs_on_the_software_tier(
        self, service_factory
    ):
        g = road_grid(250, 250, seed=5)
        assert g.num_vertices >= 50_000
        svc = service_factory()
        served = Client(svc).color(g)
        assert f"backend={svc.router.software_tier}" in served.route
        assert "hw" not in served.route
        assert served.colors.tobytes() == repro.color(g).colors.tobytes()


class TestMicroBatching:
    def test_concurrent_small_jobs_coalesce(self, service_factory, small_graphs):
        # A long linger window makes coalescing deterministic: the
        # dispatcher waits 0.5s for companions after the first small job,
        # and the submissions below land microseconds apart.
        svc = service_factory(
            executors=1, batch_window_s=0.5, batch_max_jobs=16
        )
        jobs = [svc.submit(JobRequest(graph=g)) for g in small_graphs]
        results = [job.result_or_raise(timeout=30) for job in jobs]
        assert max(r.batched for r in results) >= 2
        counters = svc.registry.counters
        assert counters["service.batch.jobs"] >= 2
        assert counters["service.batch.batches"] >= 1

    def test_batched_results_cached(self, service_factory, small_graphs):
        svc = service_factory(executors=1, batch_window_s=0.2)
        client = Client(svc)
        jobs = [svc.submit(JobRequest(graph=g)) for g in small_graphs[:3]]
        for job in jobs:
            job.result_or_raise(timeout=30)
        rerun = client.color(small_graphs[0])
        assert rerun.cache_hit


class TestRobustness:
    def test_raising_fault_hook_fails_the_job(self, service_factory):
        """A fault at the attempt seam ends the job once: no retry."""
        calls = []

        def dies(request):
            calls.append(request.job_id)
            raise RuntimeError("worker killed mid-job")

        svc = service_factory(executors=1, batching=False, fault_hook=dies)
        job = svc.submit(JobRequest(graph=erdos_renyi(40, 0.1, seed=3)))
        with pytest.raises(JobFailed, match="worker killed mid-job"):
            job.result_or_raise(timeout=30)
        assert job.state is JobState.FAILED
        assert len(calls) == 1
        assert len(attempt_spans(svc)) == 1
        assert_settled(svc, failed=1)

    def test_killed_worker_fails_only_its_own_job(self, service_factory):
        """A worker killed mid-job fails that job; the executor lives on
        and the next job runs once and matches a direct call."""
        killed = []

        def kill_first_job(request):
            if not killed:
                killed.append(request.job_id)
                raise RuntimeError("worker killed mid-job")

        svc = service_factory(
            executors=1, batching=False, fault_hook=kill_first_job
        )
        client = Client(svc)
        with pytest.raises(JobFailed, match="worker killed mid-job"):
            client.color(erdos_renyi(120, 0.08, seed=41))
        graph = erdos_renyi(120, 0.08, seed=42, name="chaos")
        result = client.color(graph)
        assert np.array_equal(result.colors, repro.color(graph).colors)
        assert len(killed) == 1
        assert len(attempt_spans(svc)) == 2
        assert_settled(svc, completed=1, failed=1)

    def test_backend_error_is_the_jobs_error(self, service_factory):
        """A deterministic backend error is the job's error, raised on the
        first attempt; the next valid job pinned to that backend still
        runs on it."""
        graph = erdos_renyi(150, 0.06, seed=7, name="pinned-hw")
        svc = service_factory(executors=1)
        client = Client(svc)
        with pytest.raises(JobFailed, match="TypeError.*takes no seed"):
            client.color(graph, backend="hw", engine="batched", seed=3)
        assert len(attempt_spans(svc)) == 1
        result = client.color(graph, backend="hw", engine="batched")
        direct = repro.color(graph, backend="hw", engine="batched")
        assert result.backend == "hw"
        assert result.engine == "batched"
        assert not result.cache_hit
        assert result.colors.tobytes() == direct.colors.tobytes()
        assert_settled(svc, completed=1, failed=1)

    def test_dispatch_error_fails_the_job_and_releases_accounting(
        self, service_factory, monkeypatch
    ):
        svc = service_factory(executors=1)
        real_decide = svc.placement.decide
        calls = []

        def decide_fails_once(request, graph):
            calls.append(request.job_id)
            if len(calls) == 1:
                raise RuntimeError("placement blew up")
            return real_decide(request, graph)

        monkeypatch.setattr(svc.placement, "decide", decide_fails_once)
        client = Client(svc)
        with pytest.raises(JobFailed, match="dispatch error"):
            client.color(erdos_renyi(60, 0.1, seed=5))
        assert_settled(svc, failed=1)
        graph = erdos_renyi(70, 0.1, seed=6)
        assert np.array_equal(
            client.color(graph).colors, repro.color(graph).colors
        )
        assert len(calls) == 2

    def test_failed_batch_union_runs_each_job_alone_once(
        self, service_factory, small_graphs, monkeypatch
    ):
        """When the shared union run raises, every job still completes
        solo, and is begun and looked up in the cache exactly once."""

        def union_fails(graphs, key):
            raise RuntimeError("union run blew up")

        monkeypatch.setattr(execution, "run_microbatch", union_fails)
        svc = service_factory(executors=1, batch_window_s=0.2)
        jobs = [svc.submit(JobRequest(graph=g)) for g in small_graphs]
        for g, job in zip(small_graphs, jobs):
            result = job.result_or_raise(timeout=30)
            assert result.batched == 0
            assert result.colors.tobytes() == repro.color(g).colors.tobytes()
        n = len(small_graphs)
        counters = svc.registry.counters
        assert counters["service.batch.fallbacks"] >= 1
        assert counters["service.cache.misses"] == n
        assert svc.registry.histograms["service.latency.queue_s"].count == n
        assert len(attempt_spans(svc)) == n
        assert_settled(svc, completed=n)

    def test_saturated_queue_sheds_not_hangs(self, service_factory):
        release = threading.Event()

        def block(request):
            release.wait(timeout=30)

        svc = service_factory(
            executors=1,
            max_queue_depth=2,
            batching=False,
            fault_hook=block,
        )
        graph = erdos_renyi(50, 0.1, seed=1)
        jobs = [svc.submit(JobRequest(graph=graph))]
        # The first job occupies the executor; these fill the queue.
        deadline = time.monotonic() + 10
        shed = None
        while time.monotonic() < deadline and shed is None:
            try:
                jobs.append(svc.submit(JobRequest(graph=graph)))
            except RetryAfter as exc:
                shed = exc
        assert shed is not None, "queue never shed"
        assert shed.retry_after_s > 0
        assert svc.registry.counters["service.shed"] >= 1
        release.set()
        for job in jobs:
            job.result_or_raise(timeout=30)

    def test_timeout_before_execution(self, service_factory):
        """A job whose deadline passes while it waits in the queue never
        runs: it times out once, before any attempt."""
        ran = []
        svc = service_factory(
            executors=1, batching=False, fault_hook=ran.append
        )
        job = svc.submit(
            JobRequest(graph=erdos_renyi(40, 0.1, seed=3), timeout_s=0.0)
        )
        with pytest.raises(JobTimeout, match="before execution"):
            job.result_or_raise(timeout=30)
        assert job.state is JobState.TIMED_OUT
        assert ran == []
        assert attempt_spans(svc) == []
        assert_settled(svc, timed_out=1)


class TestLifecycle:
    def test_drain_on_close_finishes_everything(self, service_factory):
        svc = service_factory(executors=2)
        graphs = [erdos_renyi(60, 0.1, seed=i) for i in range(12)]
        jobs = [svc.submit(JobRequest(graph=g)) for g in graphs]
        svc.close(drain=True, timeout=60)
        for g, job in zip(graphs, jobs):
            assert job.done
            result = job.result_or_raise(timeout=0)
            assert np.array_equal(result.colors, repro.color(g).colors)

    def test_submit_after_close_rejected(self, service_factory):
        svc = service_factory(executors=1)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(JobRequest(graph=erdos_renyi(10, 0.2, seed=1)))

    def test_status_shape(self, service_factory):
        svc = service_factory(executors=1)
        Client(svc).color(erdos_renyi(30, 0.1, seed=1))
        status = svc.status()
        assert status["status"] == "ok"
        assert status["jobs"]["completed"] == 1
        assert status["queue_depth"] == 0
        assert "cache" in status
        assert "backends" not in status
        assert "retries" not in status["jobs"]
        assert "degraded" not in status["jobs"]
        svc.close()
        assert svc.status()["status"] == "closed"

    def test_obs_export_on_close(self, service_factory, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "service.jsonl"
        svc = service_factory(executors=1, obs_path=path)
        Client(svc).color(erdos_renyi(30, 0.1, seed=2))
        svc.close()
        records = read_jsonl(path)
        names = {r.get("name") for r in records}
        assert "service.jobs.submitted" in names
        assert "service.latency.total_s" in names


class TestValidation:
    def test_unknown_algorithm_eager(self, service_factory):
        svc = service_factory(executors=1)
        with pytest.raises(KeyError, match="registered"):
            svc.submit(
                JobRequest(
                    graph=erdos_renyi(10, 0.2, seed=1), algorithm="nope"
                )
            )

    def test_engine_without_hw_backend_eager(self, service_factory):
        """An engine only reaches the accelerator model, so it is rejected
        at submit rather than failing (or being dropped) at execution."""
        svc = service_factory(executors=1)
        graph = erdos_renyi(10, 0.2, seed=1)
        for backend in (None, "vectorized"):
            with pytest.raises(ValueError, match="requires backend='hw'"):
                svc.submit(
                    JobRequest(graph=graph, backend=backend, engine="batched")
                )
        assert svc.status()["jobs"]["submitted"] == 0

    @pytest.mark.parametrize("option", ["mem_profile", "layout"])
    def test_unknown_hw_option_eager(self, service_factory, option):
        """An unknown memory profile or layout is rejected at submit with
        the facade's message, not as a late JobFailed."""
        svc = service_factory(executors=1)
        graph = erdos_renyi(10, 0.2, seed=1)
        with pytest.raises(ValueError) as facade:
            repro.color(graph, backend="hw", **{option: "nope"})
        with pytest.raises(ValueError) as served:
            svc.submit(
                JobRequest(graph=graph, backend="hw", opts={option: "nope"})
            )
        assert str(served.value) == str(facade.value)
        assert svc.status()["jobs"]["submitted"] == 0

    def test_unknown_dataset_eager(self, service_factory):
        svc = service_factory(executors=1)
        with pytest.raises(ValueError, match="unknown dataset"):
            svc.submit(JobRequest(dataset="NOPE"))

    def test_graph_xor_dataset(self, service_factory):
        svc = service_factory(executors=1)
        with pytest.raises(ValueError, match="exactly one"):
            svc.submit(JobRequest())
        with pytest.raises(ValueError, match="exactly one"):
            svc.submit(
                JobRequest(graph=erdos_renyi(10, 0.2, seed=1), dataset="EF")
            )

    def test_priority_respected_under_load(self, service_factory):
        release = threading.Event()

        def gate(request):
            release.wait(timeout=30)

        svc = service_factory(executors=1, batching=False, fault_hook=gate)
        g = erdos_renyi(30, 0.1, seed=9)
        # The plug occupies the only execution slot, so low and high wait
        # in the admission queue and must come out in priority order.
        plug = svc.submit(JobRequest(graph=g, priority=100))
        low = svc.submit(JobRequest(graph=g, priority=0))
        high = svc.submit(JobRequest(graph=g, priority=10))
        release.set()
        for job in (plug, low, high):
            job.result_or_raise(timeout=30)
        # The high-priority job must not have waited behind the low one.
        assert high.started_at <= low.started_at


class TestClientRetries:
    """`color(retries=)` absorbs sheds; the default surfaces the first."""

    def test_retries_absorb_sheds(self, service_factory):
        release = threading.Event()

        def block(request):
            release.wait(timeout=30)

        svc = service_factory(
            executors=1, max_queue_depth=1, batching=False, fault_hook=block
        )
        client = Client(svc)
        g = erdos_renyi(40, 0.1, seed=3)
        # Saturate: one job in execution (blocked), one in the queue —
        # submissions race the dispatcher, so push until one sheds.
        jobs = [svc.submit(JobRequest(graph=g))]
        deadline = time.monotonic() + 10
        saturated = False
        while time.monotonic() < deadline and not saturated:
            try:
                jobs.append(svc.submit(JobRequest(graph=g)))
            except RetryAfter:
                saturated = True
        assert saturated, "queue never saturated"
        # color(retries=) must wait the sheds out once the plug lifts.
        threading.Timer(0.3, release.set).start()
        result = client.color(g, retries=64)
        assert np.array_equal(result.colors, repro.color(g).colors)
        for job in jobs:
            job.result_or_raise(timeout=30)

    def test_zero_retries_raises_immediately(self, service_factory):
        release = threading.Event()

        def block(request):
            release.wait(timeout=30)

        svc = service_factory(
            executors=1, max_queue_depth=1, batching=False, fault_hook=block
        )
        client = Client(svc)
        g = erdos_renyi(40, 0.1, seed=4)
        jobs = [svc.submit(JobRequest(graph=g))]
        deadline = time.monotonic() + 10
        shed = False
        while time.monotonic() < deadline and not shed:
            try:
                jobs.append(svc.submit(JobRequest(graph=g)))
            except RetryAfter:
                shed = True
        assert shed, "queue never saturated"
        with pytest.raises(RetryAfter):
            client.color(g)  # retries=0: the shed propagates
        release.set()
        for job in jobs:
            job.result_or_raise(timeout=30)
