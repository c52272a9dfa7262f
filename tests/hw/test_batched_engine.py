"""Parity suite: the batched engine must be indistinguishable from the
event engine — byte-identical colorings, exactly equal stats (the batched
engine replays the schedule, so even the timing-dependent fields match),
and matching traces.

Layers, cheap to expensive:

1. small fixtures × all 16 flag combinations × P ∈ {1, 4} — exact;
2. hypothesis: arbitrary graphs / flags / parallelism / cache sizes;
3. all ten registry stand-ins at the paper settings (flags.all, P=16)
   — exact, plus a few stand-ins × flag subsets;
4. opt-in exhaustive matrix (every stand-in × every flag combination)
   behind ``BITCOLOR_FULL_PARITY=1``.
"""

import dataclasses
import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import DATASET_KEYS, load_dataset
from repro.experiments.runner import get_spec
from repro.graph import (
    CSRGraph,
    degree_based_grouping,
    powerlaw_cluster,
    rmat,
    road_grid,
    sort_edges,
)
from repro.hw import (
    BitColorAccelerator,
    DEFAULT_EPOCH_TASKS,
    HWConfig,
    OptimizationFlags,
    run_batched,
)

ALL_FLAG_COMBOS = [
    OptimizationFlags(hdc=h, bwc=b, mgr=m, puv=p)
    for h, b, m, p in itertools.product([False, True], repeat=4)
]


def preprocessed(g):
    return sort_edges(degree_based_grouping(g).graph)


@pytest.fixture(scope="module")
def small_graphs():
    raw = powerlaw_cluster(250, 5, 0.3, seed=7, name="raw")
    return {
        "raw": raw,  # unsorted rows exercise the per-row sortedness path
        "pre": preprocessed(raw),
        "rmat": preprocessed(rmat(8, 8, seed=3)),
        "road": preprocessed(road_grid(18, 18, seed=5)),
    }


def assert_parity(graph, cfg, flags, *, trace=False, epoch_size=None):
    ev = BitColorAccelerator(cfg, flags).run(graph, trace=trace)
    ba = BitColorAccelerator(
        cfg, flags, engine="batched", epoch_size=epoch_size
    ).run(graph, trace=trace)
    np.testing.assert_array_equal(ev.colors, ba.colors)
    assert ev.num_colors == ba.num_colors
    assert dataclasses.asdict(ev.stats) == dataclasses.asdict(ba.stats)
    if trace:
        assert ev.trace.tasks == ba.trace.tasks
    return ev, ba


# ----------------------------------------------------------------------
# Layer 1: fixtures × all flag combinations × parallelism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
@pytest.mark.parametrize("parallelism", [1, 4])
def test_all_flag_combos_exact(small_graphs, flags, parallelism):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=256)
    for g in small_graphs.values():
        assert_parity(g, cfg, flags)


def test_trace_parity(small_graphs):
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    assert_parity(small_graphs["pre"], cfg, OptimizationFlags.all(), trace=True)


@pytest.mark.parametrize("epoch_size", [1, 7, 64, 100000])
def test_epoch_boundaries_do_not_matter(small_graphs, epoch_size):
    cfg = HWConfig(parallelism=8, cache_bytes=512)
    assert_parity(
        small_graphs["pre"], cfg, OptimizationFlags.all(), epoch_size=epoch_size
    )


def test_empty_and_singleton_graphs():
    cfg = HWConfig(parallelism=4)
    for g in (CSRGraph.from_edge_list(0, []), CSRGraph.from_edge_list(1, [])):
        assert_parity(g, cfg, OptimizationFlags.all())


def test_engine_knob_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        BitColorAccelerator(engine="warp")
    acc = BitColorAccelerator(engine="batched")
    assert acc.engine == "batched"
    assert BitColorAccelerator().engine == "event"


def test_degenerate_dram_config_rejected(small_graphs):
    g = small_graphs["pre"]
    for cfg in (
        HWConfig(dram_stream_cycles=1),
        HWConfig(dram_read_occupancy_cycles=1),
    ):
        with pytest.raises(ValueError, match="engine='event'"):
            BitColorAccelerator(cfg, engine="batched").run(g)
        BitColorAccelerator(cfg).run(g)  # the event engine still accepts it


def test_max_colors_overflow_raises(small_graphs):
    cfg = HWConfig(parallelism=4, max_colors=3)
    flags = OptimizationFlags(hdc=True, bwc=False, mgr=True, puv=True)
    g = small_graphs["pre"]
    with pytest.raises(ValueError, match="needs color"):
        BitColorAccelerator(cfg, flags).run(g)
    with pytest.raises(ValueError, match="needs color"):
        BitColorAccelerator(cfg, flags, engine="batched").run(g)


def test_run_batched_direct_api(small_graphs):
    res = run_batched(
        small_graphs["pre"], HWConfig(parallelism=4), OptimizationFlags.all(),
        epoch_size=DEFAULT_EPOCH_TASKS,
    )
    assert res.num_colors > 0
    with pytest.raises(ValueError, match="epoch_size"):
        run_batched(
            small_graphs["pre"], HWConfig(), OptimizationFlags.all(), epoch_size=0
        )


# ----------------------------------------------------------------------
# Layer 2: property-based
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices=40):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=120,
        )
    )
    return CSRGraph.from_edge_list(n, edges)


@st.composite
def flag_sets(draw):
    return OptimizationFlags(
        hdc=draw(st.booleans()),
        bwc=draw(st.booleans()),
        mgr=draw(st.booleans()),
        puv=draw(st.booleans()),
    )


@given(
    graph=graphs(),
    flags=flag_sets(),
    parallelism=st.sampled_from([1, 2, 3, 4, 16]),
    cache_bytes=st.sampled_from([2, 64, 1024]),
    epoch_size=st.sampled_from([1, 5, 4096]),
)
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_property_parity(graph, flags, parallelism, cache_bytes, epoch_size):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=cache_bytes)
    assert_parity(graph, cfg, flags, epoch_size=epoch_size)


# ----------------------------------------------------------------------
# Layer 3: the registry stand-ins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", DATASET_KEYS)
def test_standins_paper_settings_exact(key):
    g = load_dataset(key)
    cfg = get_spec(key).config_for(16, g.num_vertices)
    assert_parity(g, cfg, OptimizationFlags.all())


@pytest.mark.parametrize("key", ["EF", "RC", "CD"])
@pytest.mark.parametrize(
    "flags",
    [
        OptimizationFlags.none(),
        OptimizationFlags(hdc=True, bwc=False, mgr=True, puv=False),
        OptimizationFlags(hdc=False, bwc=True, mgr=False, puv=True),
    ],
    ids=lambda f: f.label(),
)
def test_standins_flag_subsets_exact(key, flags):
    g = load_dataset(key)
    cfg = get_spec(key).config_for(8, g.num_vertices)
    assert_parity(g, cfg, flags)


# ----------------------------------------------------------------------
# Native replay tier (repro.kernels.native): same parity contract as the
# Python recurrence; skips cleanly where no compiled backend is usable.
# ----------------------------------------------------------------------
from repro.kernels import native as native_kernels  # noqa: E402

needs_native = pytest.mark.skipif(
    not native_kernels.available(),
    reason=f"native tier unavailable: {native_kernels.unavailable_reason()}",
)


def assert_replay_parity(graph, cfg, flags, *, epoch_size=None):
    """Native replay vs Python replay on the batched engine: exact."""
    py = BitColorAccelerator(
        cfg, flags, engine="batched", epoch_size=epoch_size, replay="python"
    ).run(graph)
    na = BitColorAccelerator(
        cfg, flags, engine="batched", epoch_size=epoch_size, replay="native"
    ).run(graph)
    np.testing.assert_array_equal(py.colors, na.colors)
    assert py.num_colors == na.num_colors
    assert dataclasses.asdict(py.stats) == dataclasses.asdict(na.stats)


def test_replay_knob_validation():
    with pytest.raises(ValueError, match="unknown replay"):
        BitColorAccelerator(replay="fortran")
    acc = BitColorAccelerator(engine="batched", replay="native")
    assert acc.replay == "native"
    assert BitColorAccelerator().replay == "auto"


def test_run_batched_replay_validation(small_graphs):
    with pytest.raises(ValueError, match="unknown replay"):
        run_batched(
            small_graphs["pre"], HWConfig(), OptimizationFlags.all(),
            replay="fortran",
        )


def test_trace_with_explicit_native_replay_rejected(small_graphs):
    with pytest.raises(ValueError, match="replay='python'"):
        BitColorAccelerator(
            HWConfig(parallelism=4), engine="batched", replay="native"
        ).run(small_graphs["pre"], trace=True)


def test_trace_with_auto_replay_falls_back_to_python(small_graphs):
    # trace=True forces the Python recurrence under replay="auto"; the
    # trace must still match the event engine's, native tier or not.
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    ev = BitColorAccelerator(cfg).run(small_graphs["pre"], trace=True)
    ba = BitColorAccelerator(cfg, engine="batched").run(
        small_graphs["pre"], trace=True
    )
    assert ev.trace.tasks == ba.trace.tasks


def test_native_replay_unavailable_falls_back_silently(
    small_graphs, monkeypatch
):
    # With the tier disabled, replay="native" must produce the same
    # result via the Python recurrence — no error, no divergence.
    monkeypatch.setenv("REPRO_NATIVE", "0")
    native_kernels.refresh()
    try:
        cfg = HWConfig(parallelism=4, cache_bytes=256)
        assert_replay_parity(small_graphs["pre"], cfg, OptimizationFlags.all())
    finally:
        native_kernels.refresh()


@needs_native
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
@pytest.mark.parametrize("parallelism", [1, 4])
def test_native_replay_all_flag_combos_exact(small_graphs, flags, parallelism):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=256)
    for g in small_graphs.values():
        assert_replay_parity(g, cfg, flags)


@needs_native
@pytest.mark.parametrize("epoch_size", [1, 7, 57, 64, 100000])
def test_native_replay_epoch_boundaries(small_graphs, epoch_size):
    cfg = HWConfig(parallelism=8, cache_bytes=512)
    assert_replay_parity(
        small_graphs["pre"], cfg, OptimizationFlags.all(),
        epoch_size=epoch_size,
    )


@needs_native
def test_native_replay_empty_and_singleton():
    cfg = HWConfig(parallelism=4)
    for g in (CSRGraph.from_edge_list(0, []), CSRGraph.from_edge_list(1, [])):
        assert_replay_parity(g, cfg, OptimizationFlags.all())


@needs_native
@given(
    graph=graphs(),
    flags=flag_sets(),
    parallelism=st.sampled_from([1, 2, 3, 4, 16]),
    cache_bytes=st.sampled_from([2, 64, 1024]),
    epoch_size=st.sampled_from([1, 5, 4096]),
)
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_native_replay_property_parity(
    graph, flags, parallelism, cache_bytes, epoch_size
):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=cache_bytes)
    assert_replay_parity(graph, cfg, flags, epoch_size=epoch_size)


@needs_native
@pytest.mark.parametrize("key", DATASET_KEYS)
def test_native_replay_standins_exact(key):
    g = load_dataset(key)
    cfg = get_spec(key).config_for(16, g.num_vertices)
    assert_replay_parity(g, cfg, OptimizationFlags.all())


@needs_native
@pytest.mark.parametrize("key", ["EF", "CD"])
def test_native_auto_equals_event_engine(key):
    # Under replay="auto" the batched engine silently uses the compiled
    # recurrence when available; its results must still equal the event
    # engine exactly — the full three-way contract.
    g = load_dataset(key)
    cfg = get_spec(key).config_for(8, g.num_vertices)
    ev = BitColorAccelerator(cfg, OptimizationFlags.all()).run(g)
    au = BitColorAccelerator(
        cfg, OptimizationFlags.all(), engine="batched"
    ).run(g)
    np.testing.assert_array_equal(ev.colors, au.colors)
    assert dataclasses.asdict(ev.stats) == dataclasses.asdict(au.stats)


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
def test_unsorted_rows_exact(flags):
    # Graphs built from edge lists have sorted rows; DBG relabelling
    # without sort_edges leaves most rows unsorted, which is what
    # exercises PUV's per-row sortedness rule.
    g = degree_based_grouping(powerlaw_cluster(250, 5, 0.3, seed=7)).graph
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    assert_parity(g, cfg, flags)  # event vs batched (native when available)
    assert_replay_parity(g, cfg, flags)


@pytest.mark.parametrize("flags", [OptimizationFlags.all(), OptimizationFlags.none()],
                         ids=lambda f: f.label())
def test_duplicate_neighbours_exact(small_graphs, flags):
    # A CSR row may list a neighbour twice: a conflict on it defers once
    # but still counts both HDV cache occupancies.
    base = small_graphs["rmat"]
    g = CSRGraph(offsets=base.offsets * 2, edges=np.repeat(base.edges, 2))
    cfg = HWConfig(parallelism=8, cache_bytes=256)
    _, ba = assert_parity(g, cfg, flags)
    assert ba.stats.conflicts > 0
    assert_replay_parity(g, cfg, flags)


def test_colors_beyond_one_state_word_exact():
    # A 130-clique needs colors 1..130: three 64-bit words of color
    # state.  Vertex 130 then sees colors 1..64 only, so it takes 65 only
    # if the clique's higher words were cleared after vertex 129.
    edges = list(itertools.combinations(range(130), 2))
    g = CSRGraph.from_edge_list(131, edges + [(130, u) for u in range(64)])
    for flags in (OptimizationFlags.all(), OptimizationFlags.none()):
        _, ba = assert_parity(g, HWConfig(parallelism=4), flags)
        assert ba.num_colors == 130 and ba.colors[130] == 65
        assert_replay_parity(g, HWConfig(parallelism=4), flags)


@given(graph=graphs(), flags=flag_sets(), parallelism=st.sampled_from([1, 4]))
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_num_colors_is_max_color(graph, flags, parallelism):
    # Ascending first-fit uses every color from 1 to its maximum, so the
    # engines' num_colors (the max) equals the count of distinct colors.
    cfg = HWConfig(parallelism=parallelism, cache_bytes=64)
    for res in (
        BitColorAccelerator(cfg, flags).run(graph),
        BitColorAccelerator(cfg, flags, engine="batched", replay="python").run(graph),
        BitColorAccelerator(cfg, flags, engine="batched").run(graph),
    ):
        assert res.num_colors == np.unique(res.colors[res.colors != 0]).size


def epoch_spans(graph, cfg, flags, epoch_size, replay):
    from repro.obs import Registry, use_registry

    reg = Registry()
    with use_registry(reg):
        run_batched(graph, cfg, flags, epoch_size=epoch_size, replay=replay)
    spans = [
        (s.start, s.end, s.clock, s.attrs)
        for s in reg.spans
        if s.name == "hw.batched.epoch"
    ]
    counters = {k: v for k, v in reg.counters.items() if k.startswith("hw.batched")}
    return spans, counters


@needs_native
@pytest.mark.parametrize("epoch_size", [1, 7, 4096])
def test_native_replay_epoch_spans_match_python(small_graphs, epoch_size):
    cfg = HWConfig(parallelism=8, cache_bytes=512)
    for g in small_graphs.values():
        py = epoch_spans(g, cfg, OptimizationFlags.all(), epoch_size, "python")
        na = epoch_spans(g, cfg, OptimizationFlags.all(), epoch_size, "native")
        assert len(py[0]) == -(-g.num_vertices // epoch_size)
        assert py == na


@needs_native
def test_native_replay_max_colors_error_matches_python(small_graphs):
    g = small_graphs["pre"]
    cfg = HWConfig(parallelism=4, max_colors=3)
    errors = []
    for replay in ("python", "native"):
        with pytest.raises(ValueError, match="needs color") as exc:
            run_batched(g, cfg, OptimizationFlags.all(), replay=replay)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    # The offender is the lowest vertex whose greedy color exceeds the cap.
    colors = run_batched(g, HWConfig(parallelism=4), OptimizationFlags.all()).colors
    v = int(np.flatnonzero(colors > 3)[0])
    assert errors[0] == f"vertex {v} needs color {colors[v]} > max 3"


# ----------------------------------------------------------------------
# Layer 4: opt-in exhaustive matrix (slow; run before release)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    os.environ.get("BITCOLOR_FULL_PARITY") != "1",
    reason="exhaustive 10-dataset x 16-flag matrix; set BITCOLOR_FULL_PARITY=1",
)
@pytest.mark.parametrize("key", DATASET_KEYS)
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
def test_full_parity_matrix(key, flags):
    g = load_dataset(key)
    cfg = get_spec(key).config_for(16, g.num_vertices)
    assert_parity(g, cfg, flags)
