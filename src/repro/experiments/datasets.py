"""Dataset registry — synthetic stand-ins for the paper's Table 3 graphs.

The paper evaluates ten SNAP datasets.  This offline reproduction ships a
registry that pairs each paper graph with a *seeded synthetic stand-in*
of the same topology class, scaled down so the pure-Python simulator
finishes in seconds:

* social networks → R-MAT / Holme–Kim power-law generators with the
  paper graph's average degree;
* road networks → perturbed 2-D grids (bounded degree, high locality);
* collaboration / product networks → planted-partition community graphs.

Two paper-critical ratios are preserved per dataset:

1. **average degree** — drives traversal work and color counts;
2. **HDV coverage** — the fraction of vertices the 512 K-entry cache can
   hold (``min(1, 512K / paper_nodes)``).  :meth:`DatasetSpec.config_for`
   scales the model's cache so the stand-in has the *same* fraction of
   cached vertices as the paper's run, which is what makes the HDC/MGR
   ablation behave like Figure 11 (e.g. com-DBLP fits entirely on chip,
   com-Friendster caches under 1 % of vertices).

If a user has the real SNAP downloads, :func:`repro.graph.io.load_snap_edge_list`
feeds them into the exact same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional

from ..graph import (
    CSRGraph,
    community_graph,
    degree_based_grouping,
    powerlaw_cluster,
    rmat,
    road_grid,
    sort_edges,
)
from ..hw.config import HWConfig

__all__ = [
    "DatasetSpec",
    "REGISTRY",
    "DATASET_KEYS",
    "DATASET_TIERS",
    "load_dataset",
    "paper_hdv_fraction",
]

PAPER_CACHE_VERTICES = 512 * 1024
"""The paper's HDV cache capacity: 1 MB of 16-bit colors (Section 5.1.1)."""

DATASET_TIERS = ("standin", "paper")
"""Size tiers for every stand-in.

``"standin"`` (default) is the classic tier sized for the event-driven
simulator (seconds per run).  ``"paper"`` is roughly 10× the vertices in
the same topology class — still far below the real SNAP graphs but big
enough that only the batched engine's native run finishes interactively;
callers must ask for it explicitly (the Fig 12 benchmark driver sweeps
it whenever the native kernel tier loads)."""


def paper_hdv_fraction(paper_nodes: int) -> float:
    """Fraction of the paper graph's vertices that fit in the HDV cache."""
    return min(1.0, PAPER_CACHE_VERTICES / paper_nodes)


@dataclass(frozen=True)
class DatasetSpec:
    """One Table 3 dataset and its synthetic stand-in."""

    key: str
    full_name: str
    category: str
    paper_nodes: int
    paper_edges: int  # undirected edge count, as in Table 3
    builder: Callable[[], CSRGraph]
    paper_colors_bsl: Optional[int] = None
    """Table 4 'BSL' color count on the real graph, for reference."""
    paper_colors_sorted: Optional[int] = None
    paper_tier_builder: Optional[Callable[[], CSRGraph]] = None
    """The ~10× "paper" size tier (same topology class and seed family)."""

    @property
    def paper_avg_degree(self) -> float:
        return 2.0 * self.paper_edges / self.paper_nodes

    @property
    def hdv_fraction(self) -> float:
        return paper_hdv_fraction(self.paper_nodes)

    def build_raw(self, tier: str = "standin") -> CSRGraph:
        """The stand-in graph, before any preprocessing."""
        if tier == "standin":
            return self.builder()
        if tier == "paper":
            if self.paper_tier_builder is None:
                raise ValueError(f"dataset {self.key!r} has no paper tier")
            return self.paper_tier_builder()
        raise ValueError(f"unknown tier {tier!r}; expected one of {DATASET_TIERS}")

    def config_for(self, parallelism: int, standin_vertices: int) -> HWConfig:
        """HWConfig whose cache covers the paper's HDV fraction.

        The cache is sized so ``v_t / n`` on the stand-in equals
        ``512K / paper_nodes`` on the real graph (capped at 1).
        """
        frac = self.hdv_fraction
        cache_vertices = max(1, int(round(frac * standin_vertices)))
        return HWConfig(parallelism=parallelism, cache_bytes=cache_vertices * 2)


def _spec(key: str, full_name: str, category: str, nodes: int, edges: int,
          builder: Callable[[], CSRGraph], bsl: Optional[int] = None,
          srt: Optional[int] = None,
          paper_tier: Optional[Callable[[], CSRGraph]] = None) -> DatasetSpec:
    return DatasetSpec(
        key=key,
        full_name=full_name,
        category=category,
        paper_nodes=nodes,
        paper_edges=edges,
        builder=builder,
        paper_colors_bsl=bsl,
        paper_colors_sorted=srt,
        paper_tier_builder=paper_tier,
    )


REGISTRY: Dict[str, DatasetSpec] = {
    "EF": _spec(
        "EF", "ego-Facebook", "Social network", 4_100, 88_200,
        lambda: powerlaw_cluster(4_000, 11, 0.5, seed=101, name="EF"),
        bsl=86, srt=76,
        paper_tier=lambda: powerlaw_cluster(40_000, 11, 0.5, seed=101, name="EF-paper"),
    ),
    "GD": _spec(
        "GD", "gemsec-Deezer_HR", "Social network", 54_500, 498_200,
        lambda: powerlaw_cluster(10_000, 9, 0.2, seed=102, name="GD"),
        bsl=21, srt=17,
        paper_tier=lambda: powerlaw_cluster(100_000, 9, 0.2, seed=102, name="GD-paper"),
    ),
    "CD": _spec(
        "CD", "com-DBLP", "Collaboration network", 317_000, 1_000_000,
        lambda: community_graph(600, 25, p_in=0.24, p_out=0.00006, seed=103, name="CD"),
        bsl=334, srt=328,
        paper_tier=lambda: community_graph(
            6_000, 25, p_in=0.24, p_out=0.000006, seed=103, name="CD-paper"
        ),
    ),
    "CA": _spec(
        "CA", "com-Amazon", "Product network", 335_800, 925_000,
        lambda: community_graph(800, 15, p_in=0.33, p_out=0.00005, seed=104, name="CA"),
        bsl=114, srt=114,
        paper_tier=lambda: community_graph(
            8_000, 15, p_in=0.33, p_out=0.000005, seed=104, name="CA-paper"
        ),
    ),
    "CL": _spec(
        "CL", "com-LiveJournal", "Social network", 3_900_000, 34_700_000,
        lambda: rmat(14, 9, seed=105, name="CL"),
        bsl=10, srt=7,
        paper_tier=lambda: rmat(17, 9, seed=105, name="CL-paper"),
    ),
    "RC": _spec(
        "RC", "roadNet-CA", "Road network", 1_900_000, 5_500_000,
        lambda: road_grid(140, 140, seed=106, name="RC"),
        bsl=5, srt=5,
        paper_tier=lambda: road_grid(443, 443, seed=106, name="RC-paper"),
    ),
    "RP": _spec(
        "RP", "roadNet-PA", "Road network", 1_100_000, 3_100_000,
        lambda: road_grid(110, 110, seed=107, name="RP"),
        bsl=5, srt=5,
        paper_tier=lambda: road_grid(348, 348, seed=107, name="RP-paper"),
    ),
    "RT": _spec(
        "RT", "roadNet-TX", "Road network", 1_300_000, 3_800_000,
        lambda: road_grid(120, 120, seed=108, name="RT"),
        bsl=5, srt=5,
        paper_tier=lambda: road_grid(380, 380, seed=108, name="RT-paper"),
    ),
    "CO": _spec(
        "CO", "com-Orkut", "Social network", 3_000_000, 117_100_000,
        lambda: rmat(12, 39, seed=109, name="CO"),
        bsl=116, srt=87,
        paper_tier=lambda: rmat(15, 39, seed=109, name="CO-paper"),
    ),
    "CF": _spec(
        "CF", "com-Friendster", "Social network", 65_600_000, 1_806_100_000,
        lambda: rmat(13, 28, seed=110, name="CF"),
        bsl=156, srt=129,
        paper_tier=lambda: rmat(16, 28, seed=110, name="CF-paper"),
    ),
}

DATASET_KEYS: List[str] = list(REGISTRY.keys())


@lru_cache(maxsize=None)
def load_dataset(
    key: str, *, preprocessed: bool = True, tier: str = "standin"
) -> CSRGraph:
    """Build (and memoise) a stand-in graph.

    With ``preprocessed`` (the default), the paper's full preprocessing is
    applied: DBG reordering then edge sorting — the input every BitColor
    experiment expects.  ``tier="paper"`` selects the ~10× size tier (see
    :data:`DATASET_TIERS`); pair it with the accelerator's batched engine.
    """
    try:
        spec = REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown dataset {key!r}; known: {DATASET_KEYS}") from None
    g = spec.build_raw(tier)
    if preprocessed:
        g = sort_edges(degree_based_grouping(g).graph)
    return g
