"""Package-surface tests: exports stay importable and consistent.

``repro.graph``, ``repro.kernels``, ``repro.hw`` and ``repro.perfmodel``
export exactly the snapshots below (``repro.coloring`` has its own in
``tests/coloring/test_public_api.py``): adding or removing a public name
is a deliberate act that updates this file.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro


SUBPACKAGES = ["graph", "coloring", "hw", "perfmodel", "experiments"]

PUBLIC_SURFACE = {
    "graph": """
        CSRGraph GraphError csr_fingerprint
        CoreDecomposition core_decomposition degeneracy degeneracy_order
        barabasi_albert community_graph complete_graph cycle_graph
        erdos_renyi path_graph powerlaw_cluster random_bipartite
        random_regular rmat road_grid scenario_graph star_graph
        load_npz load_snap_edge_list parse_snap_text save_npz write_dimacs
        DEFAULT_LAYOUT LAYOUTS EdgeLayout build_layout validate_layout
        ReorderResult apply_permutation degree_based_grouping
        descending_degree_order invert_permutation
        is_descending_degree_order random_permutation sort_edges
        DegreeStats degree_histogram degree_stats gini_coefficient
        hdv_coverage neighborhood_overlap_ratio overlap_ratio_sweep
    """,
    "kernels": """
        WORD_BITS first_free_colors_packed popcount_u64 scatter_or_colors
        words_for_colors
        dependency_levels gather_ranges
        rows_sorted segment_ids segment_max
        NativeUnavailable capabilities preferred_tier resolve_tier_kernels
    """,
    "hw": """
        mem
        AcceleratorResult AcceleratorStats BitColorAccelerator
        DEFAULT_EPOCH_TASKS run_batched
        BWPE TaskExecution finalize_cycles
        CacheStats HDVColorCache ColorLoader LoaderStats
        DEFAULT_CONFIG HWConfig OptimizationFlags
        ConflictProtocolError DataConflictTable DCTEntry
        DispatchStats PEState PEStateTable TaskDispatchUnit static_pe_binding
        ColorMemory DRAMChannel DRAMStats
        BRAM_BLOCK_BITS BitSelectMultiPortCache LVTMultiPortCache
        MultiPortCacheModel PortViolation bram_blocks_needed
        ResourceReport U200 deployed_cache_bytes estimate_resources
        multiport_bram_comparison
        DEFAULT_POWER PlatformPower
        ExecutionTrace TaskTrace critical_path pe_utilization render_gantt
        CycleAccurateBWPE CyclePhase CycleStats
        BitwiseMISAccelerator MISEngineResult greedy_mis
        Writer WriterStats
    """,
    "perfmodel": """
        CPUCostParams CPUModel CPURunResult
        GPUCostParams GPUModel GPURunResult
        ComparisonRow arith_mean kcvj mcvs speedup
    """,
}

SRC = Path(repro.__file__).parent
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unused_imports(path: Path) -> list:
    """Module-level imported names of ``path`` that nothing reads.

    A name counts as read when it appears as an AST ``Name`` or as a word
    inside a string constant (quoted annotations, ``__all__``)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(IDENTIFIER.findall(node.value))
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in imported.items()
        if name not in read
    ]


class TestSurface:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, name):
        """Every name a subpackage exports must actually exist."""
        mod = importlib.import_module(f"repro.{name}")
        for sym in mod.__all__:
            assert hasattr(mod, sym), f"repro.{name}.__all__ lists missing {sym!r}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_no_private_exports(self, name):
        mod = importlib.import_module(f"repro.{name}")
        assert not [s for s in mod.__all__ if s.startswith("_")]

    def test_top_level_exports(self):
        for sym in repro.__all__:
            assert hasattr(repro, sym)

    @pytest.mark.parametrize("name", sorted(PUBLIC_SURFACE))
    def test_all_matches_snapshot(self, name):
        mod = importlib.import_module(f"repro.{name}")
        assert sorted(mod.__all__) == sorted(PUBLIC_SURFACE[name].split())

    def test_no_unused_module_imports(self):
        """Package ``__init__`` files re-export; every other module uses
        what it imports."""
        unused = [
            entry
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "__init__.py"
            for entry in unused_imports(path)
        ]
        assert not unused, unused

    def test_cli_importable(self):
        from repro.cli import build_parser

        assert build_parser() is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graph.csr",
            "repro.graph.generators",
            "repro.graph.reorder",
            "repro.graph.stats",
            "repro.graph.degeneracy",
            "repro.graph.io",
            "repro.coloring.greedy",
            "repro.coloring.bitwise",
            "repro.coloring.bitset",
            "repro.coloring.dsatur",
            "repro.coloring.jones_plassmann",
            "repro.coloring.gunrock",
            "repro.coloring.luby_mis",
            "repro.coloring.backtracking",
            "repro.coloring.ordering",
            "repro.coloring.balanced",
            "repro.coloring.incremental",
            "repro.coloring.recolor",
            "repro.coloring.verify",
            "repro.hw.config",
            "repro.hw.dram",
            "repro.hw.cache",
            "repro.hw.multiport",
            "repro.hw.conflict",
            "repro.hw.color_loader",
            "repro.hw.bwpe",
            "repro.hw.dispatcher",
            "repro.hw.writer",
            "repro.hw.accelerator",
            "repro.hw.resources",
            "repro.hw.energy",
            "repro.hw.trace",
            "repro.hw.cycle_sim",
            "repro.hw.mis_engine",
            "repro.perfmodel.cpu",
            "repro.perfmodel.gpu",
            "repro.perfmodel.metrics",
            "repro.experiments.datasets",
            "repro.experiments.runner",
            "repro.experiments.figures",
            "repro.experiments.tables",
            "repro.experiments.report",
            "repro.experiments.sensitivity",
            "repro.experiments.paper",
        ],
    )
    def test_module_has_docstring(self, module):
        """Every module documents itself."""
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 30, module
