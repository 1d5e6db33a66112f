"""Turn a path decomposition into a two-layer drawing with certified
crossing structure.

After staging introductions so every vertex has its own first bag, placing
each vertex at the index of that bag and reading each rail in that order
yields a drawing whose crossing patterns are controlled by the width k of
the input: no k+2 edges pairwise cross and no (k+1,k+1) pattern appears.
Both claims are verified on the produced drawing, never assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from ._staging import _staged_bags, _staged_first_bags
from .analysis import (
    CrossingWitness,
    DEFAULT_ST_EDGE_CAP,
    max_crossing_set,
    st_crossing_exists,
)
from .errors import CertificateError, DecompositionError, GraphError
from .graphs import BipartiteGraph, TwoLayerDrawing, _dumps, _Frozen
from .pathdecomp import PathDecomposition, validate_decomposition


class LayoutCertificate(_Frozen):
    """Verification record for a produced drawing.

    `max_crossing_ok` and `st_ok` are set only after actually measuring the
    drawing: the maximum pairwise-crossing set is at most k+1 and no
    (k+1,k+1) pattern exists, where k is the width of the input
    decomposition.  `ell` is the placement map used: each vertex's first-bag
    index in the staged decomposition `normalize_unique_intro` would build,
    read off the input's bag intervals without building it."""

    _fields = ("k", "ell", "max_crossing", "max_crossing_ok", "st_ok", "edge_cap")

    def __init__(
        self,
        k: int,
        ell: dict[str, int],
        max_crossing: int,
        max_crossing_ok: bool,
        st_ok: bool,
        edge_cap: int,
    ) -> None:
        vars(self).update(
            k=k,
            ell=ell,
            max_crossing=max_crossing,
            max_crossing_ok=max_crossing_ok,
            st_ok=st_ok,
            edge_cap=edge_cap,
        )


def _induced_drawing(
    graph: BipartiteGraph, pd: PathDecomposition
) -> tuple[dict[str, int], TwoLayerDrawing]:
    """The drawing a valid decomposition induces: place each vertex at its
    first bag once introductions are staged one per bag.  The staged bags
    themselves are not built.  Returns the placement map and the drawing."""
    violations = validate_decomposition(graph, pd)
    if violations:
        raise DecompositionError(
            "invalid decomposition: " + "; ".join(v.describe() for v in violations)
        )
    ell = _staged_first_bags(pd)
    order_a = tuple(sorted(graph.a, key=lambda v: ell[v]))
    order_b = tuple(sorted(graph.b, key=lambda v: ell[v]))
    return ell, TwoLayerDrawing(graph, order_a, order_b)


def layout_decomposition(
    graph: BipartiteGraph,
    pd: PathDecomposition,
    edge_cap: int = DEFAULT_ST_EDGE_CAP,
) -> tuple[TwoLayerDrawing, LayoutCertificate]:
    """Drawing from a valid decomposition, with measured crossing bounds."""
    if not graph.vertices:
        raise GraphError("layout is undefined for the empty graph")
    ell, drawing = _induced_drawing(graph, pd)
    k = pd.width
    measured, _ = max_crossing_set(drawing)
    st_witness = st_crossing_exists(drawing, k + 1, k + 1, edge_cap)
    cert = LayoutCertificate(
        k=k,
        ell=ell,
        max_crossing=measured,
        max_crossing_ok=measured <= k + 1,
        st_ok=st_witness is None,
        edge_cap=edge_cap,
    )
    return drawing, cert


class BagContradiction(NamedTuple):
    """Why a large pairwise-crossing set is incompatible with a narrow
    decomposition: the first-bag intervals of the witness edges pairwise
    overlap, so they share a point p, and the bag there holds one endpoint
    of every witness edge — making it at least as large as the witness."""

    p: int
    bag: tuple[str, ...]
    intervals: tuple[tuple[int, int], ...]
    witness_size: int
    normalized: PathDecomposition

    @property
    def bag_size(self) -> int:
        return len(self.bag)


def explain_oversized_bag(
    graph: BipartiteGraph, pd: PathDecomposition, witness: CrossingWitness
) -> BagContradiction:
    """Convert a pairwise-crossing witness in a decomposition's induced
    drawing into the bag that must be oversized.

    The witness must re-verify in the drawing induced by pd (same placement
    rule as layout_decomposition); otherwise it is rejected.
    """
    ell, drawing = _induced_drawing(graph, pd)
    if witness.kind != "k" or len(witness.edges) < 2 or not witness.verify(drawing):
        raise DecompositionError(
            "witness does not re-verify as a pairwise-crossing set in the "
            "decomposition's induced drawing"
        )

    intervals = tuple(
        (min(ell[u], ell[v]), max(ell[u], ell[v])) for u, v in witness.edges
    )
    p = max(lo for lo, _ in intervals)
    if p > min(hi for _, hi in intervals):
        raise CertificateError("crossing edges' first-bag intervals do not overlap")
    normalized = _staged_bags(pd, ell)  # normalize_unique_intro(pd), from ell
    bag = normalized.bags[p - 1]
    for u, v in witness.edges:
        if u not in bag and v not in bag:
            raise CertificateError(f"bag {p} misses edge {(u, v)}")
    if len(bag) < len(witness.edges):
        raise CertificateError(f"bag {p} is smaller than the witness")
    return BagContradiction(
        p=p,
        bag=bag,
        intervals=intervals,
        witness_size=len(witness.edges),
        normalized=normalized,
    )


def layout_certificate_to_json(cert: LayoutCertificate) -> str:
    payload = {
        "k": cert.k,
        "ell": dict(sorted(cert.ell.items())),
        "maxCrossing": cert.max_crossing,
        "maxCrossingOk": cert.max_crossing_ok,
        "stOk": cert.st_ok,
        "edgeCap": cert.edge_cap,
    }
    return _dumps(payload)
