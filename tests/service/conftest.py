"""Shared fixtures for the service test suite."""

from __future__ import annotations

import pytest

from repro.graph import erdos_renyi
from repro.kernels import native, preferred_tier
from repro.obs import Registry
from repro.service import ColoringService, ServiceConfig


@pytest.fixture
def small_graphs():
    """A handful of distinct small graphs (all under the batch threshold)."""
    return [
        erdos_renyi(80 + 17 * i, 0.08, seed=100 + i, name=f"small{i}")
        for i in range(6)
    ]


@pytest.fixture
def service_factory():
    """Build services that are always torn down, even on test failure."""
    created = []

    def make(**overrides) -> ColoringService:
        overrides.setdefault("registry", Registry())
        svc = ColoringService(ServiceConfig(**overrides))
        created.append(svc)
        return svc

    yield make
    for svc in created:
        svc.close(drain=False, timeout=5)


@pytest.fixture
def prefer_tier(monkeypatch):
    """``prefer_tier(tier)`` makes ``tier`` the preferred software tier
    the way a deployment does (``REPRO_NATIVE=0`` hides the compiled
    tier) and returns False when this host cannot run it there."""

    def prefer(tier: str) -> bool:
        if tier == "vectorized":
            monkeypatch.setenv("REPRO_NATIVE", "0")
            native.refresh()
        return preferred_tier() == tier

    yield prefer
    native.refresh()  # the next probe sees the restored environment
