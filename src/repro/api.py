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

from .coloring.registry import algorithm_names, get_algorithm, hw_engine_names
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
        the spec's capability flags; ``None`` picks the spec default).
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
        the Python reference; kept for callers that pin it, such as
        ``bench/selfcheck.py``),
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
    spec = get_algorithm(algorithm)

    if backend is not None and backend not in spec.backends:
        allowed = spec.backends or ("<none>",)
        raise ValueError(
            f"algorithm {algorithm!r} does not support backend {backend!r}; "
            f"allowed: {', '.join(allowed)}"
        )
    if "seed" in opts and not spec.supports_seed:
        raise TypeError(f"algorithm {algorithm!r} is deterministic; it takes no seed")
    # native_strict= turns the native tier's silent fallback into an
    # eager, informative error — validated here so a missing compiler
    # surfaces before any work, not as a deep ImportError mid-run.  It
    # is consumed by the facade (the algorithms never see it) and only
    # acts when the *effective* backend is native.
    native_strict = bool(opts.pop("native_strict", False))
    if native_strict and (backend or spec.default_backend) == "native":
        from .kernels import native as _native

        _native.require()
    # Validate engine= up front: it only reaches the accelerator through
    # backend="hw", and a typo should fail here with the option list, not
    # deep inside dispatch (or as a stray kwarg on a software algorithm).
    engine = opts.get("engine")
    if engine is not None:
        resolved = backend or spec.default_backend
        if resolved != "hw":
            raise ValueError(
                f"engine={engine!r} requires backend='hw' "
                f"(got backend={resolved!r} on algorithm {algorithm!r})"
            )
        engines = hw_engine_names()
        if engine not in engines:
            raise ValueError(
                f"unknown engine {engine!r}; allowed: {', '.join(engines)}"
            )
    # replay= likewise only reaches the accelerator model.
    replay = opts.get("replay")
    if replay is not None:
        resolved = backend or spec.default_backend
        if resolved != "hw":
            raise ValueError(
                f"replay={replay!r} requires backend='hw' "
                f"(got backend={resolved!r} on algorithm {algorithm!r})"
            )
        if replay not in ("auto", "python"):
            raise ValueError(f"unknown replay {replay!r}; allowed: auto, python")
    # mem_profile= / layout= likewise only reach the accelerator model;
    # validate the names eagerly against the hw.mem / graph.layout
    # registries so typos fail here with the capability list.
    mem_profile = opts.get("mem_profile")
    if mem_profile is not None:
        resolved = backend or spec.default_backend
        if resolved != "hw":
            raise ValueError(
                f"mem_profile={mem_profile!r} requires backend='hw' "
                f"(got backend={resolved!r} on algorithm {algorithm!r})"
            )
        from .hw import mem as _mem

        _mem.get_profile(mem_profile)
    layout = opts.get("layout")
    if layout is not None:
        resolved = backend or spec.default_backend
        if resolved != "hw":
            raise ValueError(
                f"layout={layout!r} requires backend='hw' "
                f"(got backend={resolved!r} on algorithm {algorithm!r})"
            )
        from .graph.layout import validate_layout as _validate_layout

        _validate_layout(layout)

    export_path: Optional[Path] = None
    if isinstance(obs, Registry):
        registry: Optional[Registry] = obs
    elif obs is not None:
        export_path = Path(obs)
        registry = Registry()
    else:
        registry = None

    run_opts = dict(opts)
    effective_backend = backend or spec.default_backend
    if spec.backends:
        run_opts["backend"] = effective_backend

    scope = use_registry(registry) if registry is not None else nullcontext()
    with scope:
        reg = get_registry()
        with reg.span(
            "repro.color",
            algorithm=algorithm,
            backend=effective_backend,
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
