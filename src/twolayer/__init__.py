"""Two-layer bipartite drawings, their crossing structure, and certified
conversions to and from path decompositions.

Each public name is imported from its submodule on first use (PEP 562), so
``import twolayer`` loads no submodule and a CLI command loads only the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": (
        "ChainCover",
        "CountingBoundReport",
        "CrossingWitness",
        "analysis_report",
        "check_counting_bound",
        "crossed_runs",
        "crossings_per_edge",
        "edges_cross",
        "max_crossing_set",
        "maximal_noncrossing_matching",
        "maximum_noncrossing_matching",
        "min_chain_cover",
        "st_crossing_exists",
        "st_profile",
    ),
    "decompose": (
        "AuditReport",
        "AuditViolation",
        "DecompositionCertificate",
        "audit_counting_bounds",
        "certificate_bags",
        "certificate_to_json",
        "decompose_drawing",
        "minimal_unachievable",
        "width_bound",
    ),
    "errors": (
        "CapExceededError",
        "CertificateError",
        "ConnectivityError",
        "DecompositionError",
        "GraphError",
        "NotCaterpillarError",
        "TwoLayerError",
    ),
    "fuzz": (
        "ALL_CHECKS",
        "CheckStats",
        "FailureDump",
        "FuzzConfig",
        "FuzzReport",
        "drop_isolated_a",
        "replay_failure",
        "report_to_json",
        "run_fuzz",
    ),
    "generators": (
        "bipartition_from_edges",
        "caterpillar_layout",
        "complete_binary_tree",
        "connected_components",
        "grid_graph",
        "is_caterpillar",
        "is_connected",
        "star_fan_drawing",
        "subdivided_star",
    ),
    "graphs": (
        "BipartiteGraph",
        "Edge",
        "TwoLayerDrawing",
        "drawing_from_json",
        "drawing_to_json",
        "graph_from_json",
        "graph_to_json",
        "random_drawing",
    ),
    "layout": (
        "BagContradiction",
        "LayoutCertificate",
        "explain_oversized_bag",
        "layout_certificate_to_json",
        "layout_decomposition",
    ),
    "pathdecomp": (
        "PathDecomposition",
        "Violation",
        "decomposition_from_json",
        "decomposition_to_json",
        "intro_intervals",
        "normalize_unique_intro",
        "order_to_decomposition",
        "pathwidth_exact",
        "validate_decomposition",
    ),
    "render": ("render_decomposition", "render_drawing"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The bodies that only some commands run.  A public function reaches its body
# as ``twolayer.<module>.<name>``, which imports the module on first use.
_PRIVATE = frozenset(
    {"_checks", "_cover", "_exact", "_random", "_reader", "_staging", "_witness"}
)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS or name in _PRIVATE:  # bound as `import twolayer.<name>` would
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
