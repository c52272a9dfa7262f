"""Synthetic graph generators.

The paper evaluates on ten SNAP datasets (Table 3) which are not shipped with
this offline reproduction.  Each generator here produces a graph of the same
*topology class* as one of the paper's categories:

* social networks (ego-Facebook, Deezer, LiveJournal, Orkut, Friendster) —
  heavy-tailed degree distributions: :func:`rmat`, :func:`barabasi_albert`,
  :func:`powerlaw_cluster`;
* road networks (roadNet-CA/PA/TX) — near-planar, bounded degree, high
  spatial locality: :func:`road_grid`;
* collaboration / product networks (com-DBLP, com-Amazon) — community
  structure with moderate skew: :func:`community_graph`.

:func:`scenario_graph` spans the space between these classes with four
continuous knobs (size, degree skew, community strength, density), so
one test or oracle can sample graph shapes rather than a few named
points.

All generators are deterministic given ``seed`` and return
:class:`~repro.graph.csr.CSRGraph` instances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .csr import CSRGraph, GraphError

__all__ = [
    "rmat",
    "barabasi_albert",
    "powerlaw_cluster",
    "road_grid",
    "community_graph",
    "scenario_graph",
    "erdos_renyi",
    "random_regular",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "random_bipartite",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Heavy-tailed generators (social networks)
# ----------------------------------------------------------------------

def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
    name: str = "rmat",
) -> CSRGraph:
    """Recursive-MATrix (R-MAT) power-law graph.

    ``2**scale`` vertices and roughly ``edge_factor * 2**scale`` undirected
    edges (duplicates and self loops are removed, so slightly fewer).  The
    default ``(a, b, c)`` are the Graph500 parameters, giving a degree skew
    comparable to the paper's large social graphs (LiveJournal, Orkut,
    Friendster).
    """
    if scale < 0:
        raise GraphError("scale must be non-negative")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise GraphError("RMAT probabilities must be non-negative and sum <= 1")
    n = 1 << scale
    m = edge_factor * n
    gen = _rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Each recursion level picks one of the four quadrants independently for
    # every edge; vectorised over the whole edge batch.
    for level in range(scale):
        r = gen.random(m)
        bit = np.int64(1 << (scale - 1 - level))
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)
        go_down = r >= a + b
        src += bit * go_down.astype(np.int64)
        dst += bit * go_right.astype(np.int64)
    return CSRGraph.from_arrays(n, src, dst, name=name)


def barabasi_albert(
    n: int,
    m: int,
    *,
    seed: Optional[int] = None,
    name: str = "ba",
) -> CSRGraph:
    """Barabási–Albert preferential attachment (``m`` edges per new vertex).

    Produces a power-law degree distribution with exponent ≈ 3; a good
    stand-in for moderate social networks (ego-Facebook, Deezer).
    """
    if m < 1 or n < m + 1:
        raise GraphError("need n >= m + 1 and m >= 1")
    gen = _rng(seed)
    # Repeated-nodes trick: sample attachment targets from a list where each
    # vertex appears once per incident edge (classic BA implementation).
    targets = list(range(m))
    repeated: list[int] = []
    src_list: list[int] = []
    dst_list: list[int] = []
    for v in range(m, n):
        for t in targets:
            src_list.append(v)
            dst_list.append(t)
        repeated.extend(targets)
        repeated.extend([v] * m)
        # Choose m distinct targets for the next vertex.
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[gen.integers(len(repeated))])
        targets = list(chosen)
    return CSRGraph.from_arrays(
        n,
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        name=name,
    )


def powerlaw_cluster(
    n: int,
    m: int,
    p: float,
    *,
    seed: Optional[int] = None,
    name: str = "plc",
) -> CSRGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like :func:`barabasi_albert` but after each preferential attachment a
    triad is closed with probability ``p``, raising the clustering
    coefficient — closer to real ego networks, where the paper observes a
    non-zero (but small) neighbourhood overlap ratio.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    if m < 1 or n < m + 1:
        raise GraphError("need n >= m + 1 and m >= 1")
    gen = _rng(seed)
    repeated: list[int] = list(range(m))
    adj: list[set[int]] = [set() for _ in range(n)]
    src_list: list[int] = []
    dst_list: list[int] = []

    def add_edge(u: int, w: int) -> None:
        if u != w and w not in adj[u]:
            adj[u].add(w)
            adj[w].add(u)
            src_list.append(u)
            dst_list.append(w)
            repeated.append(u)
            repeated.append(w)

    for v in range(m, n):
        added = 0
        last_target = -1
        guard = 0
        while added < m and guard < 50 * m:
            guard += 1
            if last_target >= 0 and gen.random() < p and adj[last_target]:
                # Triad formation: connect to a neighbour of the last target.
                cand = list(adj[last_target])
                w = cand[gen.integers(len(cand))]
            else:
                w = repeated[gen.integers(len(repeated))]
            if w != v and w not in adj[v]:
                add_edge(v, w)
                last_target = w
                added += 1
        if added == 0:
            add_edge(v, int(gen.integers(v)))
    return CSRGraph.from_arrays(
        n,
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        name=name,
    )


# ----------------------------------------------------------------------
# Road networks
# ----------------------------------------------------------------------

def road_grid(
    rows: int,
    cols: int,
    *,
    diag_prob: float = 0.05,
    removal_prob: float = 0.05,
    seed: Optional[int] = None,
    name: str = "road",
) -> CSRGraph:
    """Perturbed 2-D grid mimicking a road network.

    Base 4-connected grid, a few diagonal "shortcut" edges (interchanges)
    and a few removed edges (dead ends).  Matches the roadNet-* profile:
    max degree ≤ ~8, avg degree ≈ 2.5–3, very high spatial locality, tiny
    chromatic number — exactly why the paper reports only 5 colors for the
    road graphs in Table 4.
    """
    if rows < 1 or cols < 1:
        raise GraphError("rows and cols must be positive")
    gen = _rng(seed)
    n = rows * cols

    def vid(r: int, c: int) -> int:
        return r * cols + c

    src_list: list[int] = []
    dst_list: list[int] = []
    for r in range(rows):
        for c in range(cols):
            v = vid(r, c)
            if c + 1 < cols and gen.random() >= removal_prob:
                src_list.append(v)
                dst_list.append(vid(r, c + 1))
            if r + 1 < rows and gen.random() >= removal_prob:
                src_list.append(v)
                dst_list.append(vid(r + 1, c))
            if r + 1 < rows and c + 1 < cols and gen.random() < diag_prob:
                src_list.append(v)
                dst_list.append(vid(r + 1, c + 1))
    return CSRGraph.from_arrays(
        n,
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        name=name,
    )


# ----------------------------------------------------------------------
# Community graphs (collaboration / product)
# ----------------------------------------------------------------------

def community_graph(
    num_communities: int,
    community_size: int,
    *,
    p_in: float = 0.08,
    p_out: float = 0.0005,
    seed: Optional[int] = None,
    name: str = "community",
) -> CSRGraph:
    """Planted-partition graph: dense communities, sparse cross edges.

    Stand-in for com-DBLP / com-Amazon, whose structure is dominated by
    small dense communities (author groups, co-purchased product sets).
    """
    if num_communities < 1 or community_size < 1:
        raise GraphError("community counts must be positive")
    gen = _rng(seed)
    n = num_communities * community_size
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    # Intra-community edges: sample Bernoulli(p_in) per pair, per community.
    for k in range(num_communities):
        base = k * community_size
        iu = np.triu_indices(community_size, k=1)
        mask = gen.random(iu[0].size) < p_in
        src_parts.append(base + iu[0][mask])
        dst_parts.append(base + iu[1][mask])
    # Inter-community edges: sample a Binomial number of random pairs.
    total_cross_pairs = n * (n - 1) // 2 - num_communities * (
        community_size * (community_size - 1) // 2
    )
    n_cross = gen.binomial(max(total_cross_pairs, 0), p_out) if total_cross_pairs else 0
    if n_cross:
        cs = gen.integers(0, n, size=n_cross)
        cd = gen.integers(0, n, size=n_cross)
        keep = (cs // community_size) != (cd // community_size)
        src_parts.append(cs[keep])
        dst_parts.append(cd[keep])
    src = np.concatenate(src_parts) if src_parts else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.zeros(0, dtype=np.int64)
    return CSRGraph.from_arrays(n, src, dst, name=name)


# ----------------------------------------------------------------------
# Scenario graphs (skew x community x density x size)
# ----------------------------------------------------------------------

def scenario_graph(
    size: int,
    skew: float,
    community: float,
    density: float,
    *,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """One sampled point of graph space, deterministic given the knobs.

    Edges are a mixture: ``community`` of them are planted inside
    √n-sized communities, the rest follow an RMAT quadrant walk with
    home-quadrant probability ``skew`` (the remaining mass split evenly,
    so ``skew = 0.25`` degenerates to a uniform random graph).  Target
    edge count is ``size * density / 2`` undirected pairs; duplicates
    and self-loops are canonicalised away by the CSR constructor, so the
    realised density lands slightly below the knob — measure the graph
    rather than trusting the nominal knobs.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    if not 0.25 <= skew <= 0.95:
        raise ValueError("skew (RMAT home-quadrant probability) must be in [0.25, 0.95]")
    if not 0.0 <= community <= 1.0:
        raise ValueError("community must be in [0, 1]")
    if density <= 0:
        raise ValueError("density must be positive")
    gen = np.random.default_rng(
        np.random.SeedSequence([seed, size, int(skew * 1000),
                                int(community * 1000), int(density * 1000)])
    )
    m = max(1, int(size * density / 2))
    m_comm = int(round(m * community))
    m_skew = m - m_comm
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    if m_skew:
        # RMAT quadrant walk over the next power of two, folded onto
        # [0, size) — preserves the heavy tail for any vertex count.
        scale = max(1, int(np.ceil(np.log2(size))))
        rest = (1.0 - skew) / 3.0
        a, b, c = skew, rest, rest
        src = np.zeros(m_skew, dtype=np.int64)
        dst = np.zeros(m_skew, dtype=np.int64)
        for level in range(scale):
            r = gen.random(m_skew)
            bit = np.int64(1 << (scale - 1 - level))
            go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
            go_down = r >= a + b
            src += bit * go_down.astype(np.int64)
            dst += bit * go_right.astype(np.int64)
        src_parts.append(src % size)
        dst_parts.append(dst % size)
    if m_comm:
        csize = max(4, int(np.sqrt(size)))
        u = gen.integers(0, size, size=m_comm)
        base = (u // csize) * csize
        w = base + gen.integers(0, csize, size=m_comm)
        src_parts.append(u)
        dst_parts.append(np.minimum(w, size - 1))
    return CSRGraph.from_arrays(
        size,
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        name=name
        or f"scenario[n={size},a={skew},c={community},d={density},s={seed}]",
    )


# ----------------------------------------------------------------------
# Reference / test generators
# ----------------------------------------------------------------------

def erdos_renyi(
    n: int,
    p: float,
    *,
    seed: Optional[int] = None,
    name: str = "er",
) -> CSRGraph:
    """G(n, p) random graph (vectorised pair sampling)."""
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    gen = _rng(seed)
    total_pairs = n * (n - 1) // 2
    m = gen.binomial(total_pairs, p) if total_pairs else 0
    if m == 0:
        return CSRGraph.empty(n, name=name)
    # Rejection-free: sample pair indices without replacement, decode to (i, j).
    idx = gen.choice(total_pairs, size=m, replace=False)
    # Pair index k maps to the k-th entry of the upper triangle enumerated
    # row by row; invert the triangular-number formula.
    i = (n - 2 - np.floor(np.sqrt(-8.0 * idx + 4 * n * (n - 1) - 7) / 2.0 - 0.5)).astype(np.int64)
    j = (idx + i + 1 - i * (2 * n - i - 1) // 2).astype(np.int64)
    return CSRGraph.from_arrays(n, i, j, name=name)


def random_regular(
    n: int,
    d: int,
    *,
    seed: Optional[int] = None,
    name: str = "regular",
) -> CSRGraph:
    """Approximately d-regular graph via the configuration model.

    Multi-edges and self loops from stub pairing are dropped, so degrees can
    fall slightly below ``d``; for testing load-balance behaviour that is
    fine and far cheaper than exact uniform sampling.
    """
    if d < 0 or d >= n:
        raise GraphError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even")
    gen = _rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    gen.shuffle(stubs)
    half = stubs.size // 2
    return CSRGraph.from_arrays(n, stubs[:half], stubs[half:], name=name)


def complete_graph(n: int, name: str = "complete") -> CSRGraph:
    iu = np.triu_indices(n, k=1)
    return CSRGraph.from_arrays(n, iu[0].astype(np.int64), iu[1].astype(np.int64), name=name)


def star_graph(n: int, name: str = "star") -> CSRGraph:
    """Vertex 0 connected to all others — the extreme HDV case."""
    if n < 1:
        raise GraphError("star graph needs at least one vertex")
    hub = np.zeros(n - 1, dtype=np.int64)
    leaves = np.arange(1, n, dtype=np.int64)
    return CSRGraph.from_arrays(n, hub, leaves, name=name)


def path_graph(n: int, name: str = "path") -> CSRGraph:
    src = np.arange(n - 1, dtype=np.int64)
    return CSRGraph.from_arrays(n, src, src + 1, name=name)


def cycle_graph(n: int, name: str = "cycle") -> CSRGraph:
    if n < 3:
        raise GraphError("cycle graph needs at least three vertices")
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    return CSRGraph.from_arrays(n, src, dst, name=name)


def random_bipartite(
    n_left: int,
    n_right: int,
    p: float,
    *,
    seed: Optional[int] = None,
    name: str = "bipartite",
) -> CSRGraph:
    """Random bipartite graph — chromatic number 2 whenever an edge exists.

    Useful as a coloring-correctness fixture: any proper coloring algorithm
    must 2-color it (greedy on bipartite graphs can use more, but the exact
    backtracking solver must find 2).
    """
    gen = _rng(seed)
    mask = gen.random((n_left, n_right)) < p
    li, ri = np.nonzero(mask)
    return CSRGraph.from_arrays(
        n_left + n_right,
        li.astype(np.int64),
        (ri + n_left).astype(np.int64),
        name=name,
    )
