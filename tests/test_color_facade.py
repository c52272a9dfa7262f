"""``repro.color`` facade: parity with direct calls, option validation.

The facade must be a pure front — same colors and the same instrumented
stage counters as calling each algorithm directly — plus the argument
validation the registry's capability flags promise.
"""

import numpy as np
import pytest

import repro
from repro.coloring import (
    ALGORITHMS,
    IncrementalColoring,
    bitwise_greedy_coloring,
    dsatur_coloring,
    greedy_coloring,
    gunrock_coloring,
    jones_plassmann_coloring,
    mis_coloring,
)
from repro.graph import powerlaw_cluster
from repro.obs import Registry, use_registry


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(400, 5, 0.3, seed=11, name="facade")


SEED = 3

DIRECT = {
    "bitwise": lambda g: bitwise_greedy_coloring(g, backend="vectorized"),
    "greedy": lambda g: greedy_coloring(g),
    "dsatur": lambda g: dsatur_coloring(g),
    "jp": lambda g: jones_plassmann_coloring(g, seed=SEED, backend="vectorized"),
    "luby": lambda g: mis_coloring(g, seed=SEED, backend="vectorized"),
    "gunrock": lambda g: gunrock_coloring(g, seed=SEED),
    "incremental": lambda g: IncrementalColoring.from_graph(g).outcome(),
}

FACADE_OPTS = {
    "jp": {"seed": SEED},
    "luby": {"seed": SEED},
    "gunrock": {"seed": SEED},
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_facade_matches_direct_call(graph, name):
    """Same colors AND same instrumented counters, algorithm by algorithm."""
    direct_reg = Registry()
    with use_registry(direct_reg):
        direct = DIRECT[name](graph)
    direct_colors = direct if isinstance(direct, np.ndarray) else direct.colors

    facade_reg = Registry()
    out = repro.color(graph, name, obs=facade_reg, **FACADE_OPTS.get(name, {}))

    assert np.array_equal(out.colors, direct_colors)
    assert out.n_colors > 0
    # The facade adds its own gauge; the algorithm-level counters must match.
    facade_counters = dict(facade_reg.counters)
    assert facade_counters == dict(direct_reg.counters)
    assert facade_reg.gauges["repro.color.n_colors"] == out.n_colors
    # The outer span wraps the run.
    assert facade_reg.spans[-1].name == "repro.color"
    assert facade_reg.spans[-1].attrs["algorithm"] == name


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_facade_returns_outcome_surface(graph, name):
    from repro.coloring import ColoringOutcome

    out = repro.color(graph, name, **FACADE_OPTS.get(name, {}))
    assert isinstance(out, ColoringOutcome)
    d = out.as_dict()
    assert d["n_colors"] == out.n_colors
    assert d["colors"] == list(out.colors)


def test_unknown_algorithm_lists_registered_names(graph):
    with pytest.raises(KeyError, match="bitwise"):
        repro.color(graph, "nope")


def test_invalid_backend_rejected(graph):
    with pytest.raises(ValueError, match="does not support backend"):
        repro.color(graph, "greedy", backend="vectorized")
    with pytest.raises(ValueError, match="allowed"):
        repro.color(graph, "jp", backend="hw")


def test_seed_rejected_for_deterministic_algorithms(graph):
    with pytest.raises(TypeError, match="deterministic"):
        repro.color(graph, "bitwise", seed=1)


def test_hw_backend_rejects_unknown_opts(graph):
    with pytest.raises(TypeError, match="backend='hw'"):
        repro.color(graph, "bitwise", backend="hw", order=[1, 2])


def test_hw_backend_matches_software(graph):
    sw = repro.color(graph, "bitwise")
    hw = repro.color(graph, "bitwise", backend="hw", parallelism=4)
    assert np.array_equal(sw.colors, hw.colors)
    assert hw.n_colors == sw.n_colors


def test_facade_does_not_touch_ambient_registry(graph):
    from repro.obs import get_registry

    ambient = get_registry()
    before = dict(ambient.counters)
    repro.color(graph, "bitwise", obs=Registry())
    assert get_registry() is ambient
    assert dict(ambient.counters) == before


def test_unknown_engine_rejected_eagerly(graph):
    """A typo'd engine fails before dispatch, listing the registered options."""
    with pytest.raises(ValueError, match="event, batched"):
        repro.color(graph, "bitwise", backend="hw", engine="bogus")


def test_engine_requires_hw_backend(graph):
    with pytest.raises(ValueError, match="requires backend='hw'"):
        repro.color(graph, "bitwise", backend="vectorized", engine="batched")
    # Default backend is not hw either, so engine alone is rejected too.
    with pytest.raises(ValueError, match="requires backend='hw'"):
        repro.color(graph, "jp", engine="batched", seed=0)


def test_valid_engine_accepted(graph):
    out = repro.color(
        graph, "bitwise", backend="hw", engine="batched", parallelism=4
    )
    assert np.array_equal(out.colors, repro.color(graph, "bitwise").colors)


@pytest.fixture
def native_calls(monkeypatch):
    """A list that gains one entry per native ``replay_epoch`` call."""
    from repro.kernels import native

    calls = []
    if native.available():
        impl = type(native.require())
        real = impl.replay_epoch

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(impl, "replay_epoch", counted)
    return calls


def assert_same_accelerator_result(a, b):
    import dataclasses

    assert np.array_equal(a.colors, b.colors)
    assert a.num_colors == b.num_colors
    assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)


def test_hw_default_is_one_native_call(graph, native_calls):
    """With no engine named, backend="hw" is one native call that returns
    the event engine's result field for field."""
    from repro.kernels import native

    if not native.available():
        pytest.skip(f"native tier unavailable: {native.unavailable_reason()}")
    out = repro.color(graph, backend="hw", parallelism=4)
    assert len(native_calls) == 1
    ev = repro.color(graph, backend="hw", engine="event", parallelism=4)
    assert len(native_calls) == 1
    assert_same_accelerator_result(out, ev)


@pytest.mark.parametrize("case", ["trace", "degenerate-dram", "probe-off"])
def test_hw_default_falls_back_to_event(graph, native_calls, monkeypatch, case):
    """Where the native run does not apply, the default runs the event
    engine: zero native calls, the same result."""
    from repro.hw import HWConfig
    from repro.kernels import native

    opts = {"parallelism": 4}
    if case == "trace":
        opts["trace"] = True
    elif case == "degenerate-dram":
        opts = {"config": HWConfig(parallelism=4, dram_stream_cycles=1)}
    ev = repro.color(graph, backend="hw", engine="event", **opts)
    with monkeypatch.context() as m:
        if case == "probe-off":
            m.setenv("REPRO_NATIVE", "0")
            native.refresh()
        out = repro.color(graph, backend="hw", **opts)
    native.refresh()
    assert native_calls == []
    assert_same_accelerator_result(out, ev)
    if case == "trace":
        assert out.trace.tasks == ev.trace.tasks
