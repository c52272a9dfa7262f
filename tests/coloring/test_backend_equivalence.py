"""Property tests: the batch backends are bit-identical to Python.

The kernel layer (:mod:`repro.kernels`) re-implements the coloring hot
paths as batched NumPy sweeps; its contract is *exact* equivalence — same
colors, same counters, same per-round statistics, same errors — which
these hypothesis tests enforce over random graphs, orderings, seeds and
option combinations.

The bitwise suite is parametrized over both batch tiers: the
always-present ``vectorized`` NumPy kernels and the optional compiled
``native`` tier (:mod:`repro.kernels.native`), which skips cleanly when
no C compiler is usable.  Jones–Plassmann has only the ``vectorized``
batch tier.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.coloring import (
    bitwise_greedy_coloring,
    jones_plassmann_coloring,
    luby_mis,
    mis_coloring,
)
from repro.graph import CSRGraph, scenario_graph
from repro.kernels import native as native_kernels

TIERS = [
    "vectorized",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_kernels.available(),
            reason=f"native tier unavailable: {native_kernels.unavailable_reason()}",
        ),
    ),
]

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# Fixed points of the scenario generator's space, one heavy-tailed and
# one planted-community, run beside the random graphs so each tier is
# also byte-compared on graphs of realistic size and shape.
SCENARIO_GRAPHS = [
    scenario_graph(1024, 0.6, 0.0, 8),
    scenario_graph(1024, 0.45, 0.6, 6),
]


@st.composite
def graphs(draw, max_vertices=24, max_extra_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra_edges,
        )
    )
    return CSRGraph.from_edge_list(n, edges)


# ----------------------------------------------------------------------
# bitwise greedy
# ----------------------------------------------------------------------


def assert_bitwise_equal(a, b):
    assert np.array_equal(a.colors, b.colors)
    assert a.num_colors == b.num_colors
    assert a.pruned_edges == b.pruned_edges
    assert a.counters == b.counters


@pytest.mark.parametrize("tier", TIERS)
@common
@given(g=graphs(), prune=st.booleans())
@example(g=SCENARIO_GRAPHS[0], prune=True)
@example(g=SCENARIO_GRAPHS[0], prune=False)
@example(g=SCENARIO_GRAPHS[1], prune=True)
@example(g=SCENARIO_GRAPHS[1], prune=False)
def test_bitwise_backends_agree(tier, g, prune):
    a = bitwise_greedy_coloring(g, prune_uncolored=prune)
    b = bitwise_greedy_coloring(g, prune_uncolored=prune, backend=tier)
    assert_bitwise_equal(a, b)


@pytest.mark.parametrize("tier", TIERS)
@common
@given(g=graphs(), rnd=st.randoms(use_true_random=False))
def test_bitwise_backends_agree_on_custom_order(tier, g, rnd):
    order = list(range(g.num_vertices))
    rnd.shuffle(order)
    a = bitwise_greedy_coloring(g, order=order)
    b = bitwise_greedy_coloring(g, order=order, backend=tier)
    assert_bitwise_equal(a, b)


@pytest.mark.parametrize("tier", TIERS)
@common
@given(g=graphs(), max_colors=st.integers(1, 4))
def test_bitwise_backends_agree_on_max_colors_errors(tier, g, max_colors):
    try:
        a = bitwise_greedy_coloring(g, max_colors=max_colors)
        err_a = None
    except ValueError as e:
        a, err_a = None, str(e)
    try:
        b = bitwise_greedy_coloring(g, max_colors=max_colors, backend=tier)
        err_b = None
    except ValueError as e:
        b, err_b = None, str(e)
    # Both succeed identically or both raise the *same* first-offender
    # message (the batched sweep must report the order-minimal vertex).
    assert err_a == err_b
    if err_a is None:
        assert_bitwise_equal(a, b)


@pytest.mark.parametrize("tier", TIERS)
def test_bitwise_many_colors_crosses_word_boundary(tier):
    # A clique forces one color per vertex; 70 vertices needs 70 colors,
    # which exercises the multi-word state path end to end.
    n = 70
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = CSRGraph.from_edge_list(n, edges)
    a = bitwise_greedy_coloring(g)
    b = bitwise_greedy_coloring(g, backend=tier)
    assert_bitwise_equal(a, b)
    assert a.num_colors == n


def test_bitwise_backend_validation():
    g = CSRGraph.from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError):
        bitwise_greedy_coloring(g, backend="fpga")


# ----------------------------------------------------------------------
# Jones–Plassmann
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tier", ["vectorized"])
@common
@given(g=graphs(), seed=st.integers(0, 5))
def test_jp_backends_agree(tier, g, seed):
    a = jones_plassmann_coloring(g, seed=seed)
    b = jones_plassmann_coloring(g, seed=seed, backend=tier)
    assert np.array_equal(a.colors, b.colors)
    assert a.num_colors == b.num_colors
    assert a.rounds == b.rounds


@pytest.mark.parametrize("tier", ["vectorized"])
@common
@given(g=graphs(), seed=st.integers(0, 3))
def test_jp_backends_agree_with_priorities(tier, g, seed):
    # Supplied priorities (with ties, broken by vertex ID) must follow the
    # exact same rounds on both backends.
    prio = np.arange(g.num_vertices) % 3
    a = jones_plassmann_coloring(g, seed=seed, priorities=prio)
    b = jones_plassmann_coloring(g, seed=seed, priorities=prio, backend=tier)
    assert np.array_equal(a.colors, b.colors)
    assert a.rounds == b.rounds


# ----------------------------------------------------------------------
# Luby MIS
# ----------------------------------------------------------------------


@common
@given(graphs(), st.integers(0, 5))
def test_luby_backends_agree(g, seed):
    a = luby_mis(g, seed=seed)
    b = luby_mis(g, seed=seed, backend="vectorized")
    assert np.array_equal(a, b)


@common
@given(graphs(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_luby_backends_agree_on_candidates(g, seed, rnd):
    mask = np.array(
        [rnd.random() < 0.6 for _ in range(g.num_vertices)], dtype=bool
    )
    a = luby_mis(g, seed=seed, candidates=mask)
    b = luby_mis(g, seed=seed, candidates=mask, backend="vectorized")
    assert np.array_equal(a, b)


@common
@given(graphs(), st.integers(0, 3))
def test_mis_coloring_backends_agree(g, seed):
    a = mis_coloring(g, seed=seed)
    b = mis_coloring(g, seed=seed, backend="vectorized")
    assert np.array_equal(a.colors, b.colors)
    assert a.num_colors == b.num_colors
    assert a.mis_rounds == b.mis_rounds
    assert a.peak_live_state == b.peak_live_state
