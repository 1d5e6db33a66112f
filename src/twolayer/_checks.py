"""Checks that no command but fuzz runs: crossing witnesses re-verified and
the counting bounds of the paper."""

from itertools import accumulate

from . import analysis, decompose
from .analysis import CountingBoundReport, CrossingWitness, _coord_of, _rising_prefix
from .decompose import AuditReport, AuditViolation, DecompositionCertificate
from .errors import GraphError
from .graphs import TwoLayerDrawing


def verify(witness: CrossingWitness, drawing: TwoLayerDrawing) -> bool:
    if witness.kind == "k":
        # pairwise crossing: sorted, rising on rail A and falling on rail B
        pairs = sorted((a, -b) for a, b in (_coord_of(drawing, e) for e in witness.edges))
        return _rising_prefix(pairs) == len(pairs)
    if witness.kind == "st":
        sides = sorted(
            sorted(_coord_of(drawing, e) for e in side)
            for side in (witness.s_edges, witness.t_edges)
        )
        if not all(sides) or any(_rising_prefix(p) < len(p) for p in sides):
            return False
        # Both sides are non-crossing matchings, and two of those cross
        # completely iff one lies wholly above and left of the other.
        left, right = sides
        return left[-1][0] < right[0][0] and left[0][1] > right[-1][1]
    raise GraphError(f"unknown witness kind {witness.kind!r}")


def check_counting_bound(
    drawing: TwoLayerDrawing, k: int, ell: int, d: int
) -> CountingBoundReport:
    if k < 1 or ell < 1 or d < 1:
        raise GraphError("k, ell, d must be >= 1")
    g = drawing.graph
    failures: list[str] = []
    for v in g.a:
        if g.degree(v) < 1:
            failures.append(f"A-vertex {v!r} has degree 0")
            break
    for v in g.b:
        if g.degree(v) > d:
            failures.append(f"B-vertex {v!r} has degree {g.degree(v)} > {d}")
            break
    kk, _ = analysis.max_crossing_set(drawing)
    if kk > k:
        failures.append(f"a {kk}-crossing exists, so 'no (k+1)-crossing' fails")
    mm = len(analysis.maximum_noncrossing_matching(drawing))
    if mm > ell:
        failures.append(
            f"a non-crossing matching of size {mm} exists, exceeding ell={ell}"
        )
    bound = k * ell * d
    return CountingBoundReport(
        observed_a=len(g.a),
        bound=bound,
        holds=len(g.a) <= bound,
        hypothesis_failures=tuple(failures),
    )


def audit_counting_bounds(
    drawing: TwoLayerDrawing, cert: DecompositionCertificate
) -> AuditReport:
    n = len(cert.matching)
    if n == 0:
        return AuditReport(cert.k, 0, cert.unachievable, (), vacuous=True)
    k = cert.k
    crossed, at, pd, _ = decompose._spans(drawing, cert.matching, cert.gaps, cert.cover)
    sizes = pd._sizes  # |V_i| = sizes[at[i]], |V_(i,j)| = sizes[at[i] + j]
    violations: list[AuditViolation] = []

    runs = [(head, *crossed[f]) for f, (_tail, head) in cert.cover.arcs.items()]
    gap_index = {v: i for i, ys in enumerate(cert.gaps) for v in ys}
    yij: dict[tuple[int, int], set[str]] = {}
    for f, (tail, head) in cert.cover.arcs.items():
        i, j = gap_index.get(head), gap_index.get(tail)
        if i is not None and j is not None:
            yij.setdefault((i, j), set()).add(head)
    for (i, j), members in sorted(yij.items()):
        bound = 2 * k * k * abs(j - i)
        if len(members) > bound:
            violations.append(AuditViolation("Yij", (i, j), len(members), bound))

    for s, t in cert.unachievable:
        p_bound = 4 * k * k * (t - 1)
        v_bound = 2 * (k + 1) + p_bound + 2 * k * k * (s - 1) ** 2 * (s - 2)
        # Heads of runs lo..hi holding the s edges ending (lo+s-1 <= i <= hi) or
        # starting (lo <= i <= hi-s+1) at i, each counted once by differences.
        delta = [0] * (n + 2)
        held, end = None, 0
        for head, a, b in sorted(
            (head, a, b)
            for head, lo, hi in runs
            if hi - lo >= s - 1
            for a, b in ((lo, hi - s + 1), (lo + s - 1, hi))
        ):
            a = max(a, end + 1) if head == held else a
            if a <= b:
                delta[a] += 1
                delta[b + 1] -= 1
                held, end = head, b
        for i, p_i in enumerate(accumulate(delta[1 : n + 1]), start=1):
            if p_i > p_bound:
                violations.append(AuditViolation("Pi", (i, s, t), p_i, p_bound))
            if sizes[at[i]] > v_bound:
                violations.append(AuditViolation("Vi", (i, s, t), sizes[at[i]], v_bound))

    for i, ys in enumerate(cert.gaps):
        bound = sizes[at[i]] + sizes[at[i + 1]] + (k + 1)
        for j in range(1, len(ys) + 1):
            if sizes[at[i] + j] > bound:
                violations.append(AuditViolation("Vij", (i, j), sizes[at[i] + j], bound))

    return AuditReport(k, n, cert.unachievable, tuple(violations), vacuous=False)

