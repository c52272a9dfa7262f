"""Tests for the process helpers (mesh start method, usable CPUs)."""

import multiprocessing
import os

from repro.parallel.shm import mp_context, usable_cpus


def test_usable_cpus_follows_cpu_affinity(monkeypatch):
    """An affinity-restricted host must not be oversubscribed."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1


def test_mp_context_prefers_fork():
    expected = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    assert mp_context().get_start_method() == expected
