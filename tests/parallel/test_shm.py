"""Tests for the shared-memory CSR transport."""

import multiprocessing
import os

import numpy as np
import pytest

from repro.graph import erdos_renyi, rmat, CSRGraph
from repro.parallel import SharedCSR, attach_graph
from repro.parallel import shm as shm_mod


@pytest.fixture
def graph():
    return rmat(8, 4, seed=5, name="shm-test")


class TestSharedCSR:
    def test_round_trip_same_process(self, graph):
        with SharedCSR(graph) as shared:
            view = attach_graph(shared.spec)
            assert view.num_vertices == graph.num_vertices
            assert view.num_edges == graph.num_edges
            assert view.name == graph.name
            assert np.array_equal(view.offsets, graph.offsets)
            assert np.array_equal(view.edges, graph.edges)
            # Drop our attachment before the owner unlinks.
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_attach_is_idempotent(self, graph):
        with SharedCSR(graph) as shared:
            a = attach_graph(shared.spec)
            b = attach_graph(shared.spec)
            assert a is b
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_meta_travels(self):
        g = erdos_renyi(50, 0.1, seed=1, name="meta-test")
        g.meta["origin"] = "synthetic"
        with SharedCSR(g) as shared:
            view = attach_graph(shared.spec)
            assert view.meta["origin"] == "synthetic"
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_empty_graph(self):
        g = CSRGraph(
            offsets=np.zeros(1, dtype=np.int64),
            edges=np.zeros(0, dtype=np.int64),
            name="empty",
        )
        with SharedCSR(g) as shared:
            view = attach_graph(shared.spec)
            assert view.num_vertices == 0
            assert view.num_edges == 0
            shm_mod._ATTACHED.pop(shared.spec.offsets_name, None)

    def test_for_graph_memoises(self, graph):
        a = SharedCSR.for_graph(graph)
        b = SharedCSR.for_graph(graph)
        assert a is b
        assert graph._cache["parallel.shared_csr"] is a

    def test_spec_is_small(self, graph):
        """Only names and scalars cross the process boundary per task."""
        import pickle

        with SharedCSR(graph) as shared:
            assert len(pickle.dumps(shared.spec)) < 1024


def _attached_count(_):
    return os.getpid(), len(shm_mod._ATTACHED)


def test_pool_workers_hold_one_graph_at_a_time():
    from repro import color
    from repro.parallel import pool_map

    for seed in range(3):
        color(erdos_renyi(3000, 0.004, seed=seed), "bitwise", backend="parallel", workers=2)
    counts = dict(pool_map(_attached_count, range(8), 2))
    assert counts and max(counts.values()) <= 1, counts


_CRASHING_OWNER = """
import os, signal
import repro
from repro.graph import erdos_renyi
from repro.parallel import SharedCSR
from repro.parallel.pool import shutdown_pools

for seed in range(3):
    g = erdos_renyi(3000, 0.004, seed=seed)
    repro.color(g, "bitwise", backend="parallel", workers=2)
spec = SharedCSR.for_graph(g).spec
print(spec.offsets_name, spec.edges_name, flush=True)
shutdown_pools()
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs POSIX shared memory under /dev/shm and the fork start method",
)
def test_owner_keeps_its_tracker_registration():
    """Pool attachments must not unregister the owner's blocks: the
    owner's unlink stays quiet, and a crashed owner's blocks are reaped
    by the shared resource tracker instead of leaking."""
    import subprocess
    import sys
    from multiprocessing import shared_memory
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    # stderr closes only once the tracker exits, i.e. after its cleanup.
    proc = subprocess.run(
        [sys.executable, "-c", _CRASHING_OWNER],
        capture_output=True, text=True, env=env, timeout=120,
    )
    names = proc.stdout.split()
    leaked = [n for n in names if Path("/dev/shm", n.lstrip("/")).exists()]
    for name in leaked:
        shared_memory.SharedMemory(name=name).unlink()
    assert len(names) == 2, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr
    assert not leaked
