"""Two-layer bipartite drawings, their crossing structure, and certified
conversions to and from path decompositions."""

from .analysis import (
    ChainCover,
    CountingBoundReport,
    CrossingWitness,
    analysis_report,
    check_counting_bound,
    crossed_runs,
    crossings_per_edge,
    edges_cross,
    max_crossing_set,
    maximal_noncrossing_matching,
    maximum_noncrossing_matching,
    min_chain_cover,
    st_crossing_exists,
    st_profile,
)
from .decompose import (
    AuditReport,
    AuditViolation,
    DecompositionCertificate,
    audit_counting_bounds,
    certificate_bags,
    certificate_to_json,
    decompose_drawing,
    minimal_unachievable,
    width_bound,
)
from .errors import (
    CapExceededError,
    CertificateError,
    ConnectivityError,
    DecompositionError,
    GraphError,
    NotCaterpillarError,
    TwoLayerError,
)
from .fuzz import (
    ALL_CHECKS,
    CheckStats,
    FailureDump,
    FuzzConfig,
    FuzzReport,
    drop_isolated_a,
    replay_failure,
    report_to_json,
    run_fuzz,
)
from .graphs import (
    BipartiteGraph,
    Edge,
    TwoLayerDrawing,
    bipartition_from_edges,
    caterpillar_layout,
    complete_binary_tree,
    connected_components,
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
    grid_graph,
    is_caterpillar,
    is_connected,
    random_drawing,
    star_fan_drawing,
    subdivided_star,
)
from .layout import (
    BagContradiction,
    LayoutCertificate,
    explain_oversized_bag,
    layout_certificate_to_json,
    layout_decomposition,
)
from .pathdecomp import (
    PathDecomposition,
    Violation,
    decomposition_from_json,
    decomposition_to_json,
    intro_intervals,
    normalize_unique_intro,
    order_to_decomposition,
    pathwidth_exact,
    validate_decomposition,
)
from .render import render_decomposition, render_drawing

__all__ = [name for name in dir() if not name.startswith("_")]
