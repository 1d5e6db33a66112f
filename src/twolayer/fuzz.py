"""Randomized sweeps over the library's universally quantified claims.

Each trial generates one random drawing and runs a configurable subset of
checks against it: decomposition validity and width bound, the per-bag
counting audit, layout certificates and placements from exact-pathwidth
decompositions, the |A| <= k*ell*d counting bound, and the per-edge-crossings
pathwidth bound.  Everything is derived from (seed, trial index) by integer
arithmetic, so reports reproduce bit for bit and every failure dump replays
to the same verdict and detail.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from typing import NamedTuple

from .analysis import check_counting_bound, crossings_per_edge
from .decompose import (
    DecompositionCertificate,
    audit_counting_bounds,
    certificate_to_json,
    decompose_drawing,
)
from .errors import GraphError
from .graphs import (
    BipartiteGraph,
    TwoLayerDrawing,
    _dumps,
    _Frozen,
    drawing_from_json,
    drawing_to_json,
    random_drawing,
)
from .layout import layout_decomposition
from .pathdecomp import (
    intro_intervals,
    normalize_unique_intro,
    order_to_decomposition,
    pathwidth_exact,
)

ALL_CHECKS = ("decompose", "audit", "layout", "counting", "per-edge")
# Largest graph whose exact pathwidth the layout and per-edge checks use;
# raising it changes the report bytes.
EXACT_VERTEX_CAP = 14

_TRIAL_STRIDE = 1_000_003  # prime; keeps per-trial seeds distinct across seeds


class FuzzConfig(_Frozen):
    _fields = ("trials", "seed", "na_max", "nb_max", "p_range", "checks", "invert_check")

    def __init__(
        self,
        trials: int,
        seed: int,
        na_max: int = 8,  # each trial draws between 0 and na_max A-vertices
        nb_max: int = 8,
        p_range: tuple[float, float] = (0.0, 1.0),
        checks: tuple[str, ...] = ALL_CHECKS,
        invert_check: str | None = None,  # test hook: negate this check's verdict
    ) -> None:
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if invert_check not in (None, *ALL_CHECKS):
            unknown.append(invert_check)
        if unknown:
            raise GraphError(f"unknown checks: {', '.join(unknown)}")
        if trials < 0:
            raise GraphError("trials must be >= 0")
        for name, high in (("na_max", na_max), ("nb_max", nb_max)):
            if high < 0:
                raise GraphError(f"{name} must be >= 0")
        if not 0.0 <= p_range[0] <= p_range[1] <= 1.0:
            raise GraphError("p_range must satisfy 0 <= low <= high <= 1")
        vars(self).update(
            trials=trials,
            seed=seed,
            na_max=na_max,
            nb_max=nb_max,
            p_range=p_range,
            checks=checks,
            invert_check=invert_check,
        )


class CheckStats(NamedTuple):
    run: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0


class FailureDump(NamedTuple):
    """Everything needed to replay one failing trial check."""

    check: str
    trial: int
    trial_seed: int
    drawing_json: str
    certificate_json: str | None
    detail: str
    inverted: bool


class FuzzReport(_Frozen):
    _fields = ("trials", "seed", "stats", "failures")

    def __init__(
        self,
        trials: int,
        seed: int,
        stats: dict[str, CheckStats] | None = None,
        failures: tuple[FailureDump, ...] = (),
    ) -> None:
        stats = {} if stats is None else stats
        vars(self).update(trials=trials, seed=seed, stats=stats, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _trial_drawing(config: FuzzConfig, trial: int) -> tuple[int, TwoLayerDrawing]:
    trial_seed = config.seed * _TRIAL_STRIDE + trial
    rng = random.Random(trial_seed)
    na = rng.randint(0, config.na_max)
    nb = rng.randint(0, config.nb_max)
    p = rng.uniform(*config.p_range)
    _, drawing = random_drawing(na, nb, p, seed=rng.randrange(1 << 62))
    return trial_seed, drawing


class _Trial:
    """A trial's drawing and the results that its checks share, each computed
    on first use: decompose, audit and counting read one decomposition,
    layout and per-edge one exact pathwidth."""

    def __init__(self, drawing: TwoLayerDrawing) -> None:
        self.drawing = drawing

    decomposition = cached_property(lambda self: decompose_drawing(self.drawing))
    pathwidth = cached_property(
        lambda self: pathwidth_exact(self.drawing.graph, cap=EXACT_VERTEX_CAP)
    )


def _run_check(
    check: str, trial: _Trial
) -> tuple[bool | None, str, DecompositionCertificate | None]:
    """(verdict, detail, certificate); verdict None means skipped."""
    drawing = trial.drawing
    graph = drawing.graph
    if check == "decompose":
        pd, cert = trial.decomposition  # validated; its bags are not built
        width = pd.width if pd._count else 0
        if width > cert.width_bound and cert.frontier_exact:
            return False, f"width {width} exceeds bound {cert.width_bound}", cert
        return True, f"width {width} within bound {cert.width_bound}", cert

    if check == "audit":
        _, cert = trial.decomposition
        report = audit_counting_bounds(drawing, cert)
        if report.ok:
            return True, "all counting bounds hold", cert
        return False, f"counting violations: {report.violations}", cert

    if check == "layout":
        if not graph.vertices or len(graph.vertices) > EXACT_VERTEX_CAP:
            return None, "skipped: size out of range", None
        _, order = trial.pathwidth
        pd = order_to_decomposition(graph, order)
        _, cert = layout_decomposition(graph, pd)
        # The placement must be each vertex's first bag once staged.  The
        # order's bags introduce order[i-1] at bag i, which gives the same
        # map without the decomposition's interval pass.
        in_order = cert.ell == {v: i for i, v in enumerate(order, start=1)}
        staged = intro_intervals(normalize_unique_intro(pd))
        in_stages = cert.ell == {v: lo for v, (lo, _) in staged.items()}
        detail = (
            f"k={cert.k} max_crossing={cert.max_crossing} "
            f"st_ok={cert.st_ok}"
            + ("" if in_order else " ell is not the vertex order's positions")
            + ("" if in_stages else " ell is not the staged first bags")
        )
        ok = cert.max_crossing_ok and cert.st_ok and in_order and in_stages
        return ok, detail, None

    if check == "counting":
        if not graph.edges:  # dropping isolated A-vertices keeps every edge
            return None, "skipped: no edges", None
        sub = drop_isolated_a(drawing)
        # k is the trial's chain count and ell comes from a table over the
        # rails, so check_counting_bound's own max_crossing_set and
        # maximum_noncrossing_matching test each against an independent
        # algorithm; dropping isolated A-vertices leaves every crossing in place
        k = trial.decomposition[1].k
        ell = _noncrossing_matching_size(sub)
        d = max(sub.graph.degree(v) for v in sub.graph.b)
        report = check_counting_bound(sub, k, ell, d)
        detail = (
            f"|A|={report.observed_a} bound={report.bound} "
            f"hypothesis_failures={list(report.hypothesis_failures)}"
        )
        return report.hypotheses_ok and report.holds, detail, None

    if check == "per-edge":
        if not graph.vertices or len(graph.vertices) > EXACT_VERTEX_CAP:
            return None, "skipped: size out of range", None
        c = max(crossings_per_edge(drawing).values(), default=0)
        pw, _ = trial.pathwidth
        return pw <= c + 1, f"pathwidth {pw} vs per-edge max {c}", None

    raise GraphError(f"unknown check {check!r}")


def _judge(
    check: str, trial: _Trial, config: FuzzConfig
) -> tuple[bool | None, str, DecompositionCertificate | None, bool]:
    """(passed, detail, certificate, inverted); passed None means skipped.  A
    check that raises fails, uninverted and without the traceback, whose
    paths and line numbers would keep the dump from replaying elsewhere."""
    try:
        verdict, detail, cert = _run_check(check, trial)
    except Exception as exc:
        return False, f"raised {type(exc).__name__}: {exc}", None, False
    inverted = config.invert_check == check
    return (None if verdict is None else verdict != inverted), detail, cert, inverted


def _noncrossing_matching_size(drawing: TwoLayerDrawing) -> int:
    """Size of a maximum non-crossing matching, by the O(na*nb) table over
    the rails: M[i][j] = max(M[i-1][j], M[i][j-1], M[i-1][j-1] + [a_i b_j is
    an edge]).  A non-crossing matching is a common subsequence of the two
    orders along edges, so this is a longest-common-subsequence table."""
    nbrs = drawing.graph.neighbors
    prev = [0] * (len(drawing.order_b) + 1)
    for u in drawing.order_a:
        adjacent = set(nbrs[u])
        cur = [0]
        for j, v in enumerate(drawing.order_b):
            cur.append(max(prev[j + 1], cur[j], prev[j] + (v in adjacent)))
        prev = cur
    return prev[-1]


def drop_isolated_a(drawing: TwoLayerDrawing) -> TwoLayerDrawing:
    """Sub-drawing without degree-0 A-vertices; crossing structure is
    untouched because removing isolated vertices removes no edges."""
    g = drawing.graph
    keep = [v for v in g.a if g.degree(v) >= 1]
    graph = BipartiteGraph(tuple(keep), g.b, g.edges)
    kept = set(keep)
    return TwoLayerDrawing(
        graph, tuple(v for v in drawing.order_a if v in kept), drawing.order_b
    )


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    counters = {c: [0, 0, 0, 0] for c in config.checks}  # run/pass/fail/skip
    failures: list[FailureDump] = []
    for trial in range(config.trials):
        trial_seed, drawing = _trial_drawing(config, trial)
        shared = _Trial(drawing)
        for check in config.checks:
            verdict, detail, cert, inverted = _judge(check, shared, config)
            if verdict is None:
                counters[check][3] += 1
                continue
            counters[check][0] += 1
            if verdict:
                counters[check][1] += 1
            else:
                counters[check][2] += 1
                failures.append(
                    FailureDump(
                        check=check,
                        trial=trial,
                        trial_seed=trial_seed,
                        drawing_json=drawing_to_json(drawing),
                        certificate_json=cert and certificate_to_json(cert),
                        detail=detail,
                        inverted=inverted,
                    )
                )
    stats = {
        c: CheckStats(run=r, passed=p, failed=f, skipped=s)
        for c, (r, p, f, s) in counters.items()
    }
    return FuzzReport(
        trials=config.trials,
        seed=config.seed,
        stats=stats,
        failures=tuple(failures),
    )


def replay_failure(dump: FailureDump, config: FuzzConfig) -> FailureDump | None:
    """Re-run one dumped trial check; None if it now passes."""
    trial = _Trial(drawing_from_json(dump.drawing_json))
    verdict, detail, cert, inverted = _judge(dump.check, trial, config)
    if verdict is not False:
        return None
    cert_json = cert and certificate_to_json(cert)
    return dump._replace(detail=detail, certificate_json=cert_json, inverted=inverted)


def report_to_json(report: FuzzReport) -> str:
    payload = {
        "trials": report.trials,
        "seed": report.seed,
        "checks": {c: s._asdict() for c, s in report.stats.items()},
        "failures": [
            {
                "check": d.check,
                "trial": d.trial,
                "trialSeed": d.trial_seed,
                "drawing": json.loads(d.drawing_json),
                "certificate": (
                    json.loads(d.certificate_json) if d.certificate_json else None
                ),
                "detail": d.detail,
                "inverted": d.inverted,
            }
            for d in report.failures
        ],
    }
    return _dumps(payload)
