"""The contract of the package's value types: equality and hashing by value,
read-only fields, the constructor forms that callers use, and the reprs that
reach reports."""

import pytest

import twolayer as tl
from twolayer import (
    AuditViolation,
    BagContradiction,
    BipartiteGraph,
    CheckStats,
    CrossingWitness,
    FailureDump,
    FuzzConfig,
    PathDecomposition,
    TwoLayerDrawing,
    Violation,
)


def _graph():
    return BipartiteGraph(("a1", "a2"), ("b1", "b2"), (("a1", "b2"), ("b1", "a2")))


def _drawing():
    """Its two edges cross."""
    return TwoLayerDrawing(_graph(), ("a1", "a2"), ("b1", "b2"))


def _pd():
    return PathDecomposition((("b2", "a1"), ("a2", "b1")))


# name: (factory, a field, hashable).  Each call of the factory builds a new
# instance; the types holding a dict are unhashable, as they always were.
SAMPLES = {
    "AuditReport": (lambda: tl.audit_counting_bounds(_drawing(), _cert()), "violations", True),
    "AuditViolation": (lambda: AuditViolation("Yij", (1, 2), 3, 2), "bound", True),
    "BagContradiction": (
        lambda: BagContradiction(
            p=1, bag=("a1", "b2"), intervals=((1, 1), (1, 2)), witness_size=2,
            normalized=_pd(),
        ),
        "p",
        True,
    ),
    "BipartiteGraph": (_graph, "edges", True),
    "ChainCover": (lambda: tl.min_chain_cover(_drawing()), "arcs", False),
    "CheckStats": (lambda: CheckStats(run=1, passed=1), "run", True),
    "CountingBoundReport": (lambda: tl.check_counting_bound(_drawing(), 2, 1, 1), "holds", True),
    "CrossingWitness": (
        lambda: CrossingWitness("k", edges=(("a1", "b2"), ("a2", "b1"))), "edges", True
    ),
    "DecompositionCertificate": (lambda: _cert(), "k", False),
    "FailureDump": (
        lambda: FailureDump(
            check="audit", trial=0, trial_seed=7, drawing_json="{}",
            certificate_json=None, detail="d", inverted=False,
        ),
        "detail",
        True,
    ),
    "FuzzConfig": (lambda: FuzzConfig(trials=3, seed=1), "trials", True),
    "FuzzReport": (lambda: tl.run_fuzz(FuzzConfig(trials=3, seed=1)), "stats", False),
    "LayoutCertificate": (lambda: tl.layout_decomposition(_graph(), _pd())[1], "ell", False),
    "PathDecomposition": (_pd, "bags", True),
    "TwoLayerDrawing": (_drawing, "order_a", True),
    "Violation": (lambda: Violation("cover", vertex="a1"), "vertex", True),
}


def _cert():
    return tl.decompose_drawing(_drawing())[1]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_values_are_equal(name):
    make, _, hashable = SAMPLES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x is not y and x == y and not x != y
    if hashable:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_different_values_are_unequal():
    g = _graph()
    assert g != BipartiteGraph(g.a, g.b, g.edges[:1])
    assert _drawing() != TwoLayerDrawing(_graph(), ("a2", "a1"), ("b1", "b2"))
    assert _pd() != PathDecomposition((("a1", "b2"),))
    assert CrossingWitness("k") != CrossingWitness("st")
    assert FuzzConfig(trials=3, seed=1) != FuzzConfig(trials=3, seed=2)
    assert _graph() != _drawing() and _pd() != _pd().bags


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    make, field, _ = SAMPLES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_cached_properties_are_computed_once():
    g, d, pd = _graph(), _drawing(), _pd()
    assert g.neighbors is g.neighbors and g.edge_set == frozenset(g.edges)
    assert d.pos_a == {"a1": 1, "a2": 2} and d.pos_b is d.pos_b
    assert pd.vertices == frozenset({"a1", "a2", "b1", "b2"})


def test_constructor_forms_that_callers_use():
    g = BipartiteGraph(["a1", "a2"], ["b1", "b2"], [("a1", "b2"), ("b1", "a2")])
    assert (g.a, g.b, g.edges) == (("a1", "a2"), ("b1", "b2"), (("a1", "b2"), ("a2", "b1")))
    assert BipartiteGraph(a=("a",), b=("b",)).edges == ()
    d = TwoLayerDrawing(g, ["a1", "a2"], ["b1", "b2"])
    assert (d.graph, d.order_a, d.order_b) == (g, ("a1", "a2"), ("b1", "b2"))
    assert TwoLayerDrawing(graph=g, order_a=g.a, order_b=g.b) == d
    pd = PathDecomposition([["b2", "a1", "b2"], ("b1", "a2")])
    assert pd.bags == (("a1", "b2"), ("a2", "b1")) and pd == PathDecomposition(bags=pd.bags)

    k = CrossingWitness("k", edges=(("a1", "b2"), ("a2", "b1")))
    assert (k.kind, k.s_edges, k.t_edges) == ("k", (), ()) and k.verify(d)
    st = CrossingWitness("st", s_edges=(("a1", "b2"),), t_edges=(("a2", "b1"),))
    assert (st.kind, st.edges) == ("st", ()) and st.verify(d)

    violations = tl.validate_decomposition(g, PathDecomposition([["b2", "a1"], ["a2"]]))
    assert [v.describe() for v in violations] == [
        "vertex 'b1' appears in no bag",
        "edge ('a2', 'b1') has no bag containing both endpoints",
    ]
    bags = [["a1", "b2"], ["b1"], ["a2", "b1"], ["a1"]]
    (gap,) = tl.validate_decomposition(g, PathDecomposition(bags))
    assert gap.describe() == "vertex 'a1' is in bags 1 and 4 but not 2"


def test_constructors_still_validate():
    with pytest.raises(tl.GraphError):
        BipartiteGraph(("a",), ("a",))
    with pytest.raises(tl.GraphError):
        TwoLayerDrawing(_graph(), ("a1",), ("b1", "b2"))
    with pytest.raises(tl.GraphError):
        FuzzConfig(trials=1, seed=0, checks=("nope",))


@pytest.mark.parametrize(
    "value, text",
    [
        (
            AuditViolation("Yij", (1, 2), 3, 2),
            "AuditViolation(check='Yij', location=(1, 2), observed=3, bound=2)",
        ),
        (Violation("cover", vertex="b1"), "Violation(kind='cover', vertex='b1', edge=None, indices=())"),
        (CheckStats(run=2, skipped=1), "CheckStats(run=2, passed=0, failed=0, skipped=1)"),
        (
            BipartiteGraph(("a",), ("b",), (("b", "a"),)),
            "BipartiteGraph(a=('a',), b=('b',), edges=(('a', 'b'),))",
        ),
        (
            tl.min_chain_cover(_drawing()),
            "ChainCover(chains=((('a2', 'b1'),), (('a1', 'b2'),)), "
            "arcs={('a2', 'b1'): ('a2', 'b1'), ('a1', 'b2'): ('b2', 'a1')})",
        ),
    ],
)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


def test_audit_violations_reach_fuzz_details_in_their_repr():
    """The fuzz audit check reports f"counting violations: {report.violations}"."""
    violations = (AuditViolation("Vi", (1, 2, 3), 9, 8), AuditViolation("Pi", (2,), 1, 0))
    assert f"counting violations: {violations}" == (
        "counting violations: (AuditViolation(check='Vi', location=(1, 2, 3), "
        "observed=9, bound=8), AuditViolation(check='Pi', location=(2,), observed=1, "
        "bound=0))"
    )
