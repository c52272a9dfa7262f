"""Name → algorithm registry behind the :func:`repro.color` facade.

Every coloring entry point the package exposes publicly is registered
here as an :class:`AlgorithmSpec`: the callable adapter that runs it, the
backends it understands, its capability flags, and the public names in
:mod:`repro.coloring` that back it (``exports`` — the snapshot test pins
these against ``repro.coloring.__all__`` so the registry and the package
surface cannot drift apart).

Adapters normalise two things so the facade has one contract:

* every adapter returns a :class:`~repro.coloring.outcome.ColoringOutcome`
  (bare-array algorithms are wrapped in ``PlainColoringResult``);
* the ``backend`` keyword is only forwarded to algorithms that take one,
  and ``backend="hw"`` on ``bitwise`` routes through the full
  :class:`~repro.hw.accelerator.BitColorAccelerator` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .bitwise import bitwise_greedy_coloring
from .dsatur import dsatur_coloring
from .greedy import greedy_coloring
from .gunrock import gunrock_coloring
from .jones_plassmann import jones_plassmann_coloring
from .luby_mis import mis_coloring
from .outcome import PlainColoringResult

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "algorithm_names",
    "get_algorithm",
    "hw_engine_names",
    "register_algorithm",
]


def hw_engine_names() -> Tuple[str, ...]:
    """The accelerator execution engines ``backend="hw"`` accepts.

    Sourced from :class:`~repro.hw.accelerator.BitColorAccelerator` (the
    import is lazy to keep the registry import-light); exposed here so the
    facade can validate ``engine=`` eagerly with the same option list the
    accelerator itself enforces.
    """
    from ..hw.accelerator import BitColorAccelerator

    return tuple(BitColorAccelerator.ENGINES)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered coloring algorithm and its capability flags."""

    name: str
    run: Callable[..., object]
    """Adapter: ``run(graph, **opts)`` → a ``ColoringOutcome``.  Adapters
    that understand backends accept ``backend=`` among the opts."""
    backends: Tuple[str, ...] = ()
    """Accepted ``backend=`` values; empty means the algorithm takes none."""
    default_backend: Optional[str] = None
    supports_seed: bool = False
    """Whether the algorithm is randomised (accepts ``seed=``)."""
    deterministic: bool = True
    """True when the default invocation is order-deterministic (no RNG)."""
    exports: Tuple[str, ...] = ()
    """Public ``repro.coloring`` names backing this algorithm."""
    description: str = ""


def _run_bitwise(graph, *, backend: str = "python", **opts):
    if backend == "hw":
        from ..hw import BitColorAccelerator, OptimizationFlags, mem

        config = opts.pop("config", None)
        mem_profile = opts.pop("mem_profile", None)
        layout = opts.pop("layout", "plain")
        if config is None:
            config = mem.profile_config(
                mem_profile or mem.DEFAULT_PROFILE,
                parallelism=opts.pop("parallelism", 16),
            )
            mem_profile = None  # already baked into the config
        flags = opts.pop("flags", None) or OptimizationFlags.all()
        trace = opts.pop("trace", False)
        engine = opts.pop("engine", "batched")
        epoch_size = opts.pop("epoch_size", None)
        # replay="python" survives only as a name for the Python
        # reference, which is the event engine.
        if opts.pop("replay", "auto") == "python":
            engine = "event"
        if opts:
            raise TypeError(
                f"backend='hw' does not accept {sorted(opts)}; "
                "supported opts: config, parallelism, flags, trace, "
                "engine, epoch_size, replay, mem_profile, layout"
            )
        acc = BitColorAccelerator(
            config,
            flags,
            engine=engine,
            epoch_size=epoch_size,
            mem_profile=mem_profile,
            layout=layout,
        )
        return acc.run(graph, trace=trace)
    return bitwise_greedy_coloring(graph, backend=backend, **opts)


def _run_dsatur(graph, **opts):
    return PlainColoringResult.from_colors(
        dsatur_coloring(graph, **opts), algorithm="dsatur"
    )


def _run_incremental(graph, **opts):
    from .incremental import IncrementalColoring

    if opts:
        raise TypeError(f"algorithm='incremental' does not accept {sorted(opts)}")
    return IncrementalColoring.from_graph(graph).outcome()


ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register (or replace) an algorithm; returns the spec."""
    if spec.backends and spec.default_backend not in spec.backends:
        raise ValueError(
            f"default backend {spec.default_backend!r} of {spec.name!r} "
            f"not among its backends {spec.backends}"
        )
    ALGORITHMS[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {algorithm_names()}"
        ) from None


def algorithm_names() -> Tuple[str, ...]:
    return tuple(ALGORITHMS)


register_algorithm(
    AlgorithmSpec(
        name="bitwise",
        run=_run_bitwise,
        backends=("python", "vectorized", "native", "hw"),
        default_backend="vectorized",
        exports=("bitwise_greedy_coloring", "BitwiseResult"),
        description=(
            "Algorithm 2: bit-wise greedy (scalar, packed-bitset kernels, "
            "the compiled tier via backend='native', or the full "
            "accelerator model via backend='hw')"
        ),
    )
)
register_algorithm(
    AlgorithmSpec(
        name="greedy",
        run=greedy_coloring,
        exports=("greedy_coloring", "GreedyResult", "StageCounters"),
        description="Algorithm 1: basic three-stage greedy with stage counters",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="dsatur",
        run=_run_dsatur,
        exports=("dsatur_coloring",),
        description="DSATUR saturation-degree heuristic (quality baseline)",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="jp",
        run=jones_plassmann_coloring,
        backends=("python", "vectorized", "native"),
        default_backend="vectorized",
        supports_seed=True,
        deterministic=False,
        exports=("jones_plassmann_coloring", "JPResult", "JPRound"),
        description="Jones–Plassmann independent-set rounds (GPU-style)",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="luby",
        run=mis_coloring,
        backends=("python", "vectorized"),
        default_backend="vectorized",
        supports_seed=True,
        deterministic=False,
        exports=("mis_coloring", "MISColoringResult", "luby_mis"),
        description="MIS coloring via Luby's randomized maximal independent sets",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="gunrock",
        run=gunrock_coloring,
        supports_seed=True,
        deterministic=False,
        exports=("gunrock_coloring", "GunrockResult", "default_round_cap"),
        description="Gunrock-style capped hash-IS rounds plus greedy tail",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="incremental",
        run=_run_incremental,
        exports=("IncrementalColoring", "IncrementalStats", "IncrementalOutcome",
                 "BatchDiff"),
        description=(
            "Dynamic-graph maintenance: first-fit greedy seed on a growable "
            "CSR, then vectorized delta-batch repair (the service session lane)"
        ),
    )
)
