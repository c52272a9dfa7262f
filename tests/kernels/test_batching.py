"""Schedule-validity tests for the dependency batching kernel.

The level schedule promises two properties — batch members are
mutually non-adjacent and every earlier-ordered neighbour of a member sits
in an earlier batch — which is exactly what makes the vectorized coloring
backends bit-identical to the sequential walk.  The tests check those
properties directly on random graphs and orderings.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.kernels import (
    dependency_levels,
    gather_ranges,
)

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_and_orderings(draw, max_vertices=20, max_extra_edges=50):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_extra_edges,
        )
    )
    g = CSRGraph.from_edge_list(n, edges)
    use_identity = draw(st.booleans())
    if use_identity:
        ordering = None
    else:
        ordering = draw(st.permutations(list(range(n)))) if n > 1 else [0]
    return g, ordering


def check_schedule(g, ordering, batches):
    """Assert validity of ``batches`` (a list of position arrays)."""
    n = g.num_vertices
    order = np.arange(n) if ordering is None else np.asarray(ordering)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    level_of = np.empty(n, dtype=np.int64)
    for k, batch in enumerate(batches):
        level_of[batch] = k
    seen = np.concatenate(batches) if batches else np.empty(0, dtype=np.int64)
    assert np.array_equal(np.sort(seen), np.arange(n))  # a permutation
    for v in range(n):
        pv = pos[v]
        for w in g.neighbors(v):
            pw = pos[int(w)]
            assert level_of[pv] != level_of[pw]  # never batched together
            if pw < pv:  # earlier-ordered neighbour: strictly earlier batch
                assert level_of[pw] < level_of[pv]


def test_gather_ranges():
    starts = np.array([5, 0, 9])
    lengths = np.array([3, 0, 2])
    assert gather_ranges(starts, lengths).tolist() == [5, 6, 7, 9, 10]
    assert gather_ranges(np.array([]), np.array([])).size == 0


@common
@given(graphs_and_orderings())
def test_dependency_levels_valid(args):
    g, ordering = args
    batch_pos, bounds = dependency_levels(g, ordering)
    assert bounds[0] == 0 and bounds[-1] == g.num_vertices
    batches = [batch_pos[s:e] for s, e in zip(bounds[:-1], bounds[1:])]
    assert all(b.size for b in batches)  # no empty levels
    check_schedule(g, ordering, batches)


def test_levels_small_examples():
    # A path in ID order is one long dependency chain: every edge points
    # forward, so each vertex sits one level above its predecessor.
    path = CSRGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    batch_pos, bounds = dependency_levels(path)
    assert bounds.tolist() == [0, 1, 2, 3, 4, 5]
    assert batch_pos.tolist() == [0, 1, 2, 3, 4]
    # A star from vertex 0: the centre is the only dependency, so all
    # leaves share level 1.
    star = CSRGraph.from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    batch_pos, bounds = dependency_levels(star)
    assert bounds.tolist() == [0, 1, 5]
    assert batch_pos.tolist() == [0, 1, 2, 3, 4]
    # Under the reversed ordering the star leaves come first.
    batch_pos, bounds = dependency_levels(star, ordering=[4, 3, 2, 1, 0])
    assert bounds.tolist() == [0, 4, 5]


def test_levels_empty_and_edgeless():
    g0 = CSRGraph.from_edge_list(0, [])
    batch_pos, bounds = dependency_levels(g0)
    assert batch_pos.size == 0 and bounds.tolist() == [0]
    g3 = CSRGraph.from_edge_list(3, [])
    batch_pos, bounds = dependency_levels(g3)
    assert bounds.tolist() == [0, 3]  # all independent -> one level


def test_levels_identity_schedule_is_memoised():
    g = CSRGraph.from_edge_list(6, [(0, 1), (2, 3), (1, 4)])
    a = dependency_levels(g)
    b = dependency_levels(g)
    assert a[0] is b[0]  # cached, same array object
    assert not a[0].flags.writeable  # and safe to share
    with pytest.raises(ValueError):
        a[0][0] = 99
    # A non-identity ordering must not poison the cache.
    c = dependency_levels(g, ordering=[5, 4, 3, 2, 1, 0])
    assert c[0] is not a[0]
    assert dependency_levels(g)[0] is a[0]
