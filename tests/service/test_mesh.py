"""End-to-end mesh tests: routing, failover, shard path, one engine.

Everything here runs real worker processes (fork) over real Unix
sockets; the pure placement policy is covered separately in
``test_placement.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import color as direct_color
from repro.graph import erdos_renyi, rmat
from repro.obs import Registry
from repro.service import (
    ColoringMesh,
    ColoringService,
    JobRequest,
    MeshConfig,
    MeshServer,
    ServiceConfig,
    SessionNotFound,
    connect,
)


def _mesh_config(**overrides) -> MeshConfig:
    overrides.setdefault("workers", 2)
    overrides.setdefault(
        "service",
        ServiceConfig(executors=1, registry=Registry(enabled=False)),
    )
    overrides.setdefault("shard_threshold_vertices", None)
    return MeshConfig(**overrides)


@pytest.fixture(scope="module")
def mesh():
    with ColoringMesh(_mesh_config()) as m:
        yield m


# ----------------------------------------------------------------------
# Forward path
# ----------------------------------------------------------------------
def test_forward_parity_and_cache_affinity(mesh):
    g = erdos_renyi(150, 0.08, seed=41, name="mesh-fwd")
    served = mesh.color(g, retries=8)
    assert np.array_equal(served.colors, direct_color(g).colors)
    assert not served.cache_hit
    # Consistent hashing sends the byte-identical graph back to the same
    # worker, whose result cache still holds it.
    again = mesh.color(g, retries=8)
    assert again.cache_hit
    assert np.array_equal(again.colors, served.colors)


def test_dataset_jobs_forward(mesh):
    from repro.experiments import load_dataset

    expected = direct_color(load_dataset("EF", preprocessed=True))
    served = mesh.color(dataset="EF", retries=8)
    assert np.array_equal(served.colors, expected.colors)


def test_status_aggregates_workers(mesh):
    snapshot = mesh.status()
    assert snapshot["mode"] == "mesh"
    assert snapshot["status"] == "ok"
    assert snapshot["placement"]["live"] == ["w0", "w1"]
    assert set(snapshot["workers"]) == {"w0", "w1"}
    for worker_snapshot in snapshot["workers"].values():
        assert "queue_depth" in worker_snapshot


def test_distinct_graphs_spread_over_workers(mesh):
    graphs = [
        erdos_renyi(90 + 5 * i, 0.08, seed=500 + i, name=f"spread{i}")
        for i in range(12)
    ]
    homes = {
        mesh.placement.home(g.fingerprint()) for g in graphs
    }
    assert homes == {"w0", "w1"}


# ----------------------------------------------------------------------
# Shard path
# ----------------------------------------------------------------------
def test_shard_path_matches_parallel_backend():
    g = erdos_renyi(900, 0.01, seed=42, name="mesh-shard")
    expected = direct_color(g, "bitwise", backend="parallel")
    with ColoringMesh(_mesh_config(shard_threshold_vertices=100)) as m:
        served = m.color(g, backend="parallel")
        assert served.route.startswith("mesh-shard")
        assert np.array_equal(served.colors, expected.colors)
        assert served.n_colors == expected.n_colors
        # Unpinned, the same graph forwards and colors like repro.color.
        unpinned = m.color(g, retries=8)
        assert not unpinned.route.startswith("mesh-shard")
        assert np.array_equal(unpinned.colors, direct_color(g).colors)
        # Below the threshold even a parallel pin forwards.
        small = erdos_renyi(60, 0.1, seed=43, name="mesh-small")
        forwarded = m.color(small, backend="parallel", retries=8)
        assert not forwarded.route.startswith("mesh-shard")
        assert np.array_equal(
            forwarded.colors,
            direct_color(small, "bitwise", backend="parallel").colors,
        )


def test_unpinned_large_graph_matches_direct_under_default_threshold():
    g = rmat(16, 8, seed=3)
    assert g.num_vertices >= MeshConfig().shard_threshold_vertices
    with ColoringMesh(
        _mesh_config(shard_threshold_vertices=MeshConfig().shard_threshold_vertices)
    ) as m:
        served = m.color(g, retries=8)
    assert not served.route.startswith("mesh-shard")
    assert served.colors.tobytes() == direct_color(g).colors.tobytes()


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
def test_worker_death_rehashes_and_fails_over():
    with ColoringMesh(_mesh_config()) as m:
        victim = m._workers["w1"]
        victim.process.kill()
        victim.process.join(timeout=10)
        m.check_workers()
        assert m.placement.dead_workers == ["w1"]
        assert m.placement.live_workers == ["w0"]
        assert m.placement.stats()["rehashes"] == 1
        # Every key now lands on the survivor; jobs keep completing.
        for i in range(4):
            g = erdos_renyi(80 + i, 0.1, seed=600 + i, name=f"fo{i}")
            served = m.color(g, retries=8)
            assert np.array_equal(served.colors, direct_color(g).colors)
        assert m.status()["status"] == "ok"


def test_sessions_on_a_dead_worker_are_lost_loudly():
    with ColoringMesh(_mesh_config()) as m:
        register = {
            "op": "session.register",
            "dataset": "EF",
            "algorithm": "bitwise",
            "client_id": "t",
        }
        response = m.forward_session(register)
        assert response["ok"], response
        session_id = response["session"]["session_id"]
        home = m._session_homes[session_id]
        m._workers[home].process.kill()
        m._workers[home].process.join(timeout=10)
        m.check_workers()
        followup = m.forward_session(
            {"op": "session.verify", "session_id": session_id}
        )
        assert not followup["ok"]
        assert followup["error"]["code"] == "session_not_found"


# ----------------------------------------------------------------------
# Router socket (MeshServer)
# ----------------------------------------------------------------------
def test_mesh_server_serves_the_service_protocol():
    socket_path = Path(tempfile.mkdtemp(prefix="repro-mesh-test-")) / "r.sock"
    with ColoringMesh(_mesh_config()) as m:
        server = MeshServer(m, socket_path).run_in_thread()
        try:
            with connect(socket_path, client_id="t") as client:
                assert client.ping()
                g = erdos_renyi(120, 0.08, seed=77, name="via-socket")
                served = client.color(g, retries=8)
                assert np.array_equal(
                    served.colors, direct_color(g).colors
                )
                # The mesh-status op aggregates the fleet.
                frame = client.call({"op": "mesh.status"})
                assert frame["ok"]
                assert frame["status"]["mode"] == "mesh"
                # The session lane round-trips through the router too.
                with client.register(dataset="EF") as handle:
                    out = handle.apply(additions=[(0, 5)])
                    assert out.epoch == 1
                    summary = handle.verify()
                    assert summary["n_colors"] >= 1
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# One execution path
# ----------------------------------------------------------------------
def test_service_and_mesh_share_the_execution_engine(monkeypatch):
    """The dispatcher hands every unit to ExecutionEngine — placement
    decides, the engine executes, and the mesh (whose workers run this
    exact service) therefore produces identical colors."""
    g = erdos_renyi(140, 0.08, seed=99, name="engine-parity")
    ran = []
    with ColoringService(
        ServiceConfig(executors=1, registry=Registry(enabled=False))
    ) as svc:
        real_single = svc.engine.run_single
        real_batch = svc.engine.run_batch

        def spy_single(job, decision):
            ran.append("single")
            return real_single(job, decision)

        def spy_batch(batch, decision):
            ran.append("batch")
            return real_batch(batch, decision)

        monkeypatch.setattr(svc.engine, "run_single", spy_single)
        monkeypatch.setattr(svc.engine, "run_batch", spy_batch)
        job = svc.submit(JobRequest(graph=g))
        in_process = job.result_or_raise(timeout=60)
    assert ran, "service dispatch bypassed the ExecutionEngine"
    with ColoringMesh(_mesh_config()) as m:
        meshed = m.color(g, retries=8)
    assert np.array_equal(in_process.colors, meshed.colors)
    assert np.array_equal(in_process.colors, direct_color(g).colors)
