"""Experiment harness: dataset registry plus one entry point per paper table/figure."""

from .datasets import (
    DATASET_KEYS,
    DATASET_TIERS,
    REGISTRY,
    DatasetSpec,
    load_dataset,
    paper_hdv_fraction,
)
from .hw_bench import (
    run_hw_bench,
    run_hw_smoke,
)
from .hbm_sweep import (
    MINI_SWEEP,
    PAPER_SWEEP,
    render_hbm_figure,
    run_hbm_smoke,
    run_hbm_sweep,
)
from .gates import load_baseline, write_baseline
from .figures import (
    AblationStep,
    Fig13Result,
    Fig13Row,
    PARALLELISM_SWEEP,
    fig3a_breakdown,
    fig3b_overlap,
    fig11_ablation,
    fig12_scaling,
    fig13_comparison,
    fig14_resources,
)
from .kernel_bench import (
    run_kernel_bench,
    run_native_smoke,
    run_obs_overhead_pair,
    run_smoke,
    smoke_graph,
)
from .mesh_bench import (
    run_mesh_bench,
    run_mesh_parity,
    run_mesh_smoke,
)
from .router_bench import (
    run_router_bench,
    run_router_parity,
)
from .runner import get_graph, get_spec, run_bitcolor, run_cpu, run_gpu, run_greedy
from .scenario_sweep import (
    load_sweep_table,
    run_scenario_sweep,
    scenario_graph,
    slow_regions,
    sweep_report,
    write_sweep_table,
)
from .service_bench import (
    run_service_bench,
    run_service_smoke,
)
from .streaming_bench import (
    run_streaming_bench,
    run_streaming_smoke,
)
from .tables import (
    Table2Row,
    Table3Row,
    Table4Row,
    table2_preprocessing,
    table3_datasets,
    table4_colors,
)
from . import report
from .paper import PAPER
from .sensitivity import (
    SensitivityRow,
    sweep_cpu_memory,
    sweep_dram_occupancy,
    sweep_gpu_frontier_rate,
    sweep_physical_channels,
)

__all__ = [
    "DATASET_KEYS",
    "DATASET_TIERS",
    "REGISTRY",
    "run_hw_bench",
    "run_hw_smoke",
    "MINI_SWEEP",
    "PAPER_SWEEP",
    "render_hbm_figure",
    "run_hbm_smoke",
    "run_hbm_sweep",
    "DatasetSpec",
    "load_dataset",
    "paper_hdv_fraction",
    "AblationStep",
    "Fig13Result",
    "Fig13Row",
    "PARALLELISM_SWEEP",
    "fig3a_breakdown",
    "fig3b_overlap",
    "fig11_ablation",
    "fig12_scaling",
    "fig13_comparison",
    "fig14_resources",
    "load_baseline",
    "write_baseline",
    "run_kernel_bench",
    "run_native_smoke",
    "run_obs_overhead_pair",
    "run_smoke",
    "smoke_graph",
    "get_graph",
    "get_spec",
    "run_bitcolor",
    "run_cpu",
    "run_gpu",
    "run_greedy",
    "run_mesh_bench",
    "run_mesh_parity",
    "run_mesh_smoke",
    "run_router_bench",
    "run_router_parity",
    "load_sweep_table",
    "run_scenario_sweep",
    "scenario_graph",
    "slow_regions",
    "sweep_report",
    "write_sweep_table",
    "run_service_bench",
    "run_service_smoke",
    "run_streaming_bench",
    "run_streaming_smoke",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "table2_preprocessing",
    "table3_datasets",
    "table4_colors",
    "report",
    "PAPER",
    "SensitivityRow",
    "sweep_cpu_memory",
    "sweep_dram_occupancy",
    "sweep_gpu_frontier_rate",
    "sweep_physical_channels",
]
