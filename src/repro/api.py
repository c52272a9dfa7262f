"""The one documented entry point: :func:`repro.color`.

Before this facade existed, coloring a graph meant picking one of six
divergent signatures (``bitwise_greedy_coloring``, ``greedy_coloring``,
``dsatur_coloring``, ``jones_plassmann_coloring``, ``mis_coloring``,
``gunrock_coloring``) each with its own result shape.  ``repro.color``
fronts all of them through the :mod:`repro.coloring.registry`: one call,
one :class:`~repro.coloring.outcome.ColoringOutcome` result, optional
observability in the same breath.

    import repro

    out = repro.color(graph)                                  # bitwise, fast path
    out = repro.color(graph, algorithm="jp", seed=1)          # GPU-style rounds
    out = repro.color(graph, algorithm="bitwise", backend="hw",
                      parallelism=16, obs="run.jsonl")        # accelerator model,
                                                              # instrumented

    out.colors, out.n_colors, out.as_dict()                   # uniform surface

The ``obs`` parameter accepts a :class:`repro.obs.Registry` (spans and
counters land there), a path (a fresh registry is exported to that file
as JSON-lines), or ``None`` (instrumentation goes to the ambient default
registry, a no-op unless enabled).
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Union

from .coloring.registry import algorithm_names, get_algorithm, resolve
from .obs import JsonlExporter, Registry, get_registry, use_registry

__all__ = ["color"]


def color(
    graph,
    algorithm: str = "bitwise",
    *,
    backend: Optional[str] = None,
    obs: Optional[Union[str, Path, Registry]] = None,
    **opts,
):
    """Color ``graph`` with any registered algorithm; returns a ``ColoringOutcome``.

    Parameters
    ----------
    algorithm:
        A registered name — one of ``repro.coloring.algorithm_names()``
        (``"bitwise"``, ``"greedy"``, ``"dsatur"``, ``"jp"``, ``"luby"``,
        ``"gunrock"``).
    backend:
        Backend selector for algorithms that have one (checked against
        the spec's capability flags).  ``None`` runs
        :func:`repro.kernels.preferred_tier` when the algorithm lists it,
        else the spec's default; colors are the same on every tier.
        ``backend="native"`` selects the compiled kernel tier
        (:mod:`repro.kernels.native`), falling back to the vectorized
        kernels transparently when no compiler backend is available —
        pass ``native_strict=True`` to get an eager
        :class:`~repro.kernels.NativeUnavailable` error instead.
        ``"bitwise"`` additionally accepts ``backend="hw"`` (the full
        BitColor accelerator model, which further accepts
        ``engine="batched"|"event"`` — the default ``"batched"`` is one
        native call with results identical to the event engine's, and
        runs the event engine itself without a compiler, under
        ``trace=True`` or for degenerate DRAM costs — plus
        ``epoch_size=`` for the tasks per ``hw.batched.epoch`` span,
        ``replay="auto"|"python"`` (``"python"`` runs the event engine,
        the Python reference),
        ``mem_profile="ddr4-u200"|"hbm2"`` to model a registered
        off-chip memory (:func:`repro.hw.mem.profiles`), and
        ``layout="plain"|"degree-sorted"|"delta-compressed"`` for the
        edge-array encoding (:mod:`repro.graph.layout`)).
    obs:
        ``None`` — instrument into the ambient default registry (no-op
        unless enabled); a :class:`~repro.obs.Registry` — instrument into
        it; a ``str``/``Path`` — instrument into a fresh registry and
        export it to that file as JSON-lines.
    **opts:
        Forwarded to the algorithm (``seed=``, ``order=``,
        ``prune_uncolored=``, ``parallelism=``, ...), validated against
        its capability flags where they apply.
    """
    # The registry's one resolver decides what runs and checks the names.
    invocation = resolve(algorithm, backend, opts=opts)
    spec = get_algorithm(algorithm)
    if "seed" in opts and not spec.supports_seed:
        raise TypeError(f"algorithm {algorithm!r} is deterministic; it takes no seed")

    export_path: Optional[Path] = None
    if isinstance(obs, Registry):
        registry: Optional[Registry] = obs
    elif obs is not None:
        export_path = Path(obs)
        registry = Registry()
    else:
        registry = None

    run_opts = dict(invocation.opts)
    if spec.backends:
        run_opts["backend"] = invocation.backend

    scope = use_registry(registry) if registry is not None else nullcontext()
    with scope:
        reg = get_registry()
        with reg.span(
            "repro.color",
            algorithm=algorithm,
            backend=invocation.backend,
            graph=getattr(graph, "name", ""),
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        ):
            result = spec.run(graph, **run_opts)
        if reg.enabled:
            reg.gauge("repro.color.n_colors", result.n_colors)

    if export_path is not None:
        JsonlExporter(export_path).export(registry)
    return result


color.__doc__ += "\n    Registered algorithms: " + ", ".join(algorithm_names()) + "\n"
