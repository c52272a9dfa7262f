"""Parity suite: the batched engine must be indistinguishable from the
event engine — byte-identical colorings and exactly equal stats (the
batched engine replays the schedule, so even the timing-dependent fields
match).  The batched engine is one native call
(:func:`repro.hw.batched.run_batched`); the event engine is the one
Python reference it is checked against.

Without a compiler ``engine="batched"`` runs the event engine itself, so
every event-vs-batched comparison would compare the event engine with
itself: those tests skip with the probe's reason (``needs_native``).
The fallback rule's own tests run everywhere.

Layers, cheap to expensive:

1. small fixtures × all 16 flag combinations × P ∈ {1, 4}, on two
   DRAM settings — exact;
2. hypothesis: arbitrary graphs / flags / parallelism / cache sizes /
   DRAM settings;
3. all ten registry stand-ins at the paper settings (flags.all, P=16)
   — exact, both through the accelerator and through ``repro.color``'s
   default — plus a few stand-ins × flag subsets;
4. opt-in exhaustive matrix (every stand-in × every flag combination)
   behind ``BITCOLOR_FULL_PARITY=1``.
"""

import dataclasses
import functools
import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
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
from repro.kernels import NativeUnavailable
from repro.kernels import native as native_kernels
from repro.obs import Registry, use_registry

ALL_FLAG_COMBOS = [
    OptimizationFlags(hdc=h, bwc=b, mgr=m, puv=p)
    for h, b, m, p in itertools.product([False, True], repeat=4)
]

needs_native = pytest.mark.skipif(
    not native_kernels.available(),
    reason="without the native tier both engines are the event engine: "
    f"{native_kernels.unavailable_reason()}",
)


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


def duplicate_neighbours(base):
    """``base`` with every neighbour listed twice in its CSR row."""
    return CSRGraph(offsets=base.offsets * 2, edges=np.repeat(base.edges, 2))


def assert_same(ev, ba):
    np.testing.assert_array_equal(ev.colors, ba.colors)
    assert ev.num_colors == ba.num_colors
    assert dataclasses.asdict(ev.stats) == dataclasses.asdict(ba.stats)


def assert_parity(graph, cfg, flags, *, epoch_size=None):
    ev = BitColorAccelerator(cfg, flags).run(graph)
    ba = BitColorAccelerator(
        cfg, flags, engine="batched", epoch_size=epoch_size
    ).run(graph)
    assert_same(ev, ba)
    return ev, ba


def engine_that_ran(acc, graph, **kw):
    """(result, the ``engine`` attribute of the ``hw.accelerator.run`` span)."""
    reg = Registry()
    with use_registry(reg):
        res = acc.run(graph, **kw)
    (span,) = [s for s in reg.spans if s.name == "hw.accelerator.run"]
    return res, span.attrs["engine"]


# ----------------------------------------------------------------------
# Layer 1: fixtures × all flag combinations × parallelism
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
@pytest.mark.parametrize("parallelism", [1, 4])
def test_all_flag_combos_exact(small_graphs, flags, parallelism):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=256)
    for g in small_graphs.values():
        assert_parity(g, cfg, flags)


@needs_native
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
@pytest.mark.parametrize("parallelism", [1, 4])
def test_native_replay_all_flag_combos_exact(small_graphs, flags, parallelism):
    # One physical channel and the smallest DRAM costs the native run
    # models: every read queues, and stream/random misses differ by 1.
    cfg = HWConfig(
        parallelism=parallelism, cache_bytes=256, dram_physical_channels=1,
        dram_stream_cycles=2, dram_read_occupancy_cycles=3,
    )
    for g in small_graphs.values():
        assert_parity(g, cfg, flags)


def test_trace_parity(small_graphs):
    # Per-task rows are the event engine's alone: a traced batched run is
    # an event run, trace included.
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    ev = BitColorAccelerator(cfg).run(small_graphs["pre"], trace=True)
    ba = BitColorAccelerator(cfg, engine="batched").run(
        small_graphs["pre"], trace=True
    )
    assert_same(ev, ba)
    assert ev.trace.tasks == ba.trace.tasks


def test_trace_with_auto_replay_falls_back_to_python(small_graphs):
    acc = BitColorAccelerator(HWConfig(parallelism=4), engine="batched")
    res, engine = engine_that_ran(acc, small_graphs["pre"], trace=True)
    assert engine == "event"
    assert res.trace is not None and res.trace.tasks


def test_native_replay_unavailable_falls_back_silently(
    small_graphs, monkeypatch
):
    # With the tier disabled, engine="batched" runs the event engine:
    # no error, no divergence.
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    g = small_graphs["pre"]
    ev = BitColorAccelerator(cfg).run(g)
    with monkeypatch.context() as m:
        m.setenv("REPRO_NATIVE", "0")
        native_kernels.refresh()
        ba, engine = engine_that_ran(BitColorAccelerator(cfg, engine="batched"), g)
    native_kernels.refresh()
    assert engine == "event"
    assert_same(ev, ba)


@needs_native
@pytest.mark.parametrize("epoch_size", [1, 7, 64, 100000])
def test_epoch_boundaries_do_not_matter(small_graphs, epoch_size):
    cfg = HWConfig(parallelism=8, cache_bytes=512)
    assert_parity(
        small_graphs["pre"], cfg, OptimizationFlags.all(), epoch_size=epoch_size
    )


@needs_native
def test_empty_and_singleton_graphs():
    cfg = HWConfig(parallelism=4)
    for g in (CSRGraph.from_edge_list(0, []), CSRGraph.from_edge_list(1, [])):
        assert_parity(g, cfg, OptimizationFlags.all())


@needs_native
def test_native_replay_empty_and_singleton():
    for flags, p in itertools.product(ALL_FLAG_COMBOS, (1, 16)):
        for g in (CSRGraph.from_edge_list(0, []), CSRGraph.from_edge_list(1, [])):
            assert_parity(g, HWConfig(parallelism=p), flags)


def test_engine_knob_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        BitColorAccelerator(engine="warp")
    acc = BitColorAccelerator(engine="batched")
    assert acc.engine == "batched"
    assert BitColorAccelerator().engine == "event"


def test_replay_knob_validation(small_graphs):
    # replay= is gone from the accelerator; repro.color keeps "auto" and
    # "python", which names the Python reference (the event engine).
    with pytest.raises(TypeError):
        BitColorAccelerator(replay="python")
    g = small_graphs["pre"]
    for bad in ("native", "fortran"):
        with pytest.raises(ValueError, match="unknown replay"):
            repro.color(g, backend="hw", replay=bad)
    reg = Registry()
    repro.color(g, backend="hw", engine="batched", replay="python", obs=reg)
    (span,) = [s for s in reg.spans if s.name == "hw.accelerator.run"]
    assert span.attrs["engine"] == "event"


def test_max_colors_overflow_raises(small_graphs):
    cfg = HWConfig(parallelism=4, max_colors=3)
    flags = OptimizationFlags(hdc=True, bwc=False, mgr=True, puv=True)
    g = small_graphs["pre"]
    with pytest.raises(ValueError, match="needs color"):
        BitColorAccelerator(cfg, flags).run(g)
    with pytest.raises(ValueError, match="needs color"):
        BitColorAccelerator(cfg, flags, engine="batched").run(g)


@needs_native
def test_native_replay_max_colors_error_matches_python(small_graphs):
    # The native run stops at the lowest vertex whose color in the event
    # engine's uncapped coloring exceeds the cap.
    g = small_graphs["pre"]
    colors = BitColorAccelerator(HWConfig(parallelism=4)).run(g).colors
    v = int(np.flatnonzero(colors > 3)[0])
    with pytest.raises(ValueError) as exc:
        run_batched(g, HWConfig(parallelism=4, max_colors=3), OptimizationFlags.all())
    assert str(exc.value) == f"vertex {v} needs color {colors[v]} > max 3"


@needs_native
def test_run_batched_direct_api(small_graphs):
    g = small_graphs["pre"]
    res = run_batched(
        g, HWConfig(parallelism=4), OptimizationFlags.all(),
        epoch_size=DEFAULT_EPOCH_TASKS,
    )
    assert res.num_colors > 0
    with pytest.raises(ValueError, match="epoch_size"):
        run_batched(g, HWConfig(), OptimizationFlags.all(), epoch_size=0)
    # The direct API does not fall back: degenerate DRAM costs raise.
    with pytest.raises(ValueError, match="dram_stream_cycles > 1"):
        run_batched(g, HWConfig(dram_stream_cycles=1), OptimizationFlags.all())


def test_run_batched_replay_validation(small_graphs, monkeypatch):
    # run_batched is the native replay: without the tier it raises the
    # probe's reason instead of running anything else.
    with monkeypatch.context() as m:
        m.setenv("REPRO_NATIVE", "0")
        native_kernels.refresh()
        with pytest.raises(NativeUnavailable, match="REPRO_NATIVE"):
            run_batched(
                small_graphs["pre"], HWConfig(), OptimizationFlags.all()
            )
    native_kernels.refresh()


# ----------------------------------------------------------------------
# Epoch spans: ``epoch_size`` only sets the span granularity; each span
# must summarise its tasks as the event engine's per-task trace does.
# ----------------------------------------------------------------------
def event_epoch_spans(graph, cfg, flags, epoch_size):
    """The ``hw.batched.epoch`` spans implied by the event engine's trace."""
    ev = BitColorAccelerator(cfg, flags).run(graph, trace=True)
    tasks = sorted(ev.trace.tasks, key=lambda t: t.vertex)
    assert sum(len(t.deferred_on) for t in tasks) == ev.stats.conflicts
    spans, maxfin = [], 0
    for epoch, lo in enumerate(range(0, graph.num_vertices, epoch_size)):
        chunk = tasks[lo:lo + epoch_size]
        maxfin = max([maxfin] + [t.finish for t in chunk])
        spans.append((chunk[0].start, maxfin, "cycles", {
            "epoch": epoch, "first_vertex": lo, "tasks": len(chunk),
            "conflicts": sum(len(t.deferred_on) for t in chunk),
            "stall_cycles": sum(t.stall for t in chunk),
        }))
    counters = {
        "hw.batched.epochs": len(spans), "hw.batched.epoch.tasks": len(tasks),
    } if spans else {}
    return spans, counters


def batched_epoch_spans(graph, cfg, flags, epoch_size):
    reg = Registry()
    with use_registry(reg):
        run_batched(graph, cfg, flags, epoch_size=epoch_size)
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
        want = event_epoch_spans(g, cfg, OptimizationFlags.all(), epoch_size)
        assert len(want[0]) == -(-g.num_vertices // epoch_size)
        assert batched_epoch_spans(
            g, cfg, OptimizationFlags.all(), epoch_size
        ) == want


@needs_native
@pytest.mark.parametrize("epoch_size", [1, 7, 57, 64, 100000])
def test_native_replay_epoch_boundaries(small_graphs, epoch_size):
    # A graph whose rows repeat every neighbour has conflicts and stalls,
    # so the per-epoch conflict and stall attributes are not all zero.
    g = duplicate_neighbours(small_graphs["rmat"])
    cfg = HWConfig(parallelism=8, cache_bytes=256)
    flags = OptimizationFlags.all()
    want = event_epoch_spans(g, cfg, flags, epoch_size)
    assert sum(attrs["conflicts"] for *_, attrs in want[0]) > 0
    assert batched_epoch_spans(g, cfg, flags, epoch_size) == want


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
def test_property_parity(graph, flags, parallelism, cache_bytes, epoch_size):
    cfg = HWConfig(parallelism=parallelism, cache_bytes=cache_bytes)
    assert_parity(graph, cfg, flags, epoch_size=epoch_size)


@needs_native
@given(
    graph=graphs(),
    flags=flag_sets(),
    parallelism=st.sampled_from([1, 2, 4, 16]),
    channels=st.sampled_from([1, 2, 4]),
    stream_cycles=st.sampled_from([2, 3, 8]),
    read_cycles=st.sampled_from([2, 5, 10]),
)
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_native_replay_property_parity(
    graph, flags, parallelism, channels, stream_cycles, read_cycles
):
    cfg = HWConfig(
        parallelism=parallelism, cache_bytes=64,
        dram_physical_channels=channels, dram_stream_cycles=stream_cycles,
        dram_read_occupancy_cycles=read_cycles,
    )
    assert_parity(graph, cfg, flags)


# ----------------------------------------------------------------------
# Layer 3: the registry stand-ins
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def event_standin(key):
    """(graph, paper config, event result) — shared by the two suites below."""
    g = load_dataset(key)
    cfg = get_spec(key).config_for(16, g.num_vertices)
    return g, cfg, BitColorAccelerator(cfg, OptimizationFlags.all()).run(g)


@needs_native
@pytest.mark.parametrize("key", DATASET_KEYS)
def test_standins_paper_settings_exact(key):
    g, cfg, ev = event_standin(key)
    ba = BitColorAccelerator(cfg, OptimizationFlags.all(), engine="batched").run(g)
    assert_same(ev, ba)


@needs_native
@pytest.mark.parametrize("key", DATASET_KEYS)
def test_native_replay_standins_exact(key):
    # A caller who names no engine gets the native run, and the event
    # engine's result.
    g, cfg, ev = event_standin(key)
    out = repro.color(g, backend="hw", config=cfg)
    assert_same(ev, out)


@needs_native
@pytest.mark.parametrize(
    "key, parallelism",
    # P=1 is the setting Fig 11's ablation runs at.
    [("EF", 8), ("RC", 8), ("CD", 8), ("EF", 1)],
    ids=["EF", "RC", "CD", "EF-P1"],
)
@pytest.mark.parametrize(
    "flags",
    [
        OptimizationFlags.none(),
        OptimizationFlags(hdc=True, bwc=False, mgr=True, puv=False),
        OptimizationFlags(hdc=False, bwc=True, mgr=False, puv=True),
    ],
    ids=lambda f: f.label(),
)
def test_standins_flag_subsets_exact(key, parallelism, flags):
    g = load_dataset(key)
    cfg = get_spec(key).config_for(parallelism, g.num_vertices)
    assert_parity(g, cfg, flags)


@needs_native
@pytest.mark.parametrize("key", ["EF", "CD"])
def test_native_auto_equals_event_engine(key):
    # The facade's default on a non-default memory profile and layout:
    # the native run, equal to the event engine field for field.
    g = load_dataset(key)
    opts = dict(parallelism=8, mem_profile="hbm2", layout="delta-compressed")
    ev = repro.color(g, backend="hw", engine="event", **opts)
    reg = Registry()
    au = repro.color(g, backend="hw", obs=reg, **opts)
    (span,) = [s for s in reg.spans if s.name == "hw.accelerator.run"]
    assert span.attrs["engine"] == "batched"
    assert_same(ev, au)


@needs_native
@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda f: f.label())
def test_unsorted_rows_exact(flags):
    # Graphs built from edge lists have sorted rows; DBG relabelling
    # without sort_edges leaves most rows unsorted, which is what
    # exercises PUV's per-row sortedness rule.
    g = degree_based_grouping(powerlaw_cluster(250, 5, 0.3, seed=7)).graph
    cfg = HWConfig(parallelism=4, cache_bytes=256)
    assert_parity(g, cfg, flags)


@needs_native
@pytest.mark.parametrize("flags", [OptimizationFlags.all(), OptimizationFlags.none()],
                         ids=lambda f: f.label())
def test_duplicate_neighbours_exact(small_graphs, flags):
    # A CSR row may list a neighbour twice: a conflict on it defers once
    # but still counts both HDV cache occupancies.
    g = duplicate_neighbours(small_graphs["rmat"])
    cfg = HWConfig(parallelism=8, cache_bytes=256)
    _, ba = assert_parity(g, cfg, flags)
    assert ba.stats.conflicts > 0


@needs_native
def test_colors_beyond_one_state_word_exact():
    # A 130-clique needs colors 1..130: three 64-bit words of color
    # state.  Vertex 130 then sees colors 1..64 only, so it takes 65 only
    # if the clique's higher words were cleared after vertex 129.
    edges = list(itertools.combinations(range(130), 2))
    g = CSRGraph.from_edge_list(131, edges + [(130, u) for u in range(64)])
    for flags in (OptimizationFlags.all(), OptimizationFlags.none()):
        _, ba = assert_parity(g, HWConfig(parallelism=4), flags)
        assert ba.num_colors == 130 and ba.colors[130] == 65


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
        BitColorAccelerator(cfg, flags, engine="batched").run(graph),
    ):
        assert res.num_colors == np.unique(res.colors[res.colors != 0]).size


# ----------------------------------------------------------------------
# Layer 4: opt-in exhaustive matrix (slow; run before release)
# ----------------------------------------------------------------------
@needs_native
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
