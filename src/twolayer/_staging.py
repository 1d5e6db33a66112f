"""Staged introductions, one new vertex per bag, which layout and
``pathdecomp.normalize_unique_intro`` run."""

from itertools import accumulate

from .errors import DecompositionError
from .pathdecomp import PathDecomposition


def _staged_first_bags(pd: PathDecomposition) -> dict[str, int]:
    """Each vertex's 1-based first bag once introductions are staged one per
    bag, as `normalize_unique_intro` stages them, in order of first appearance.

    A bag introducing m >= 2 vertices gives them consecutive stages in id
    order, and a bag introducing none keeps one stage.  The interval pass
    lists each bag's new vertices together in id order, so a vertex's stage
    is one past the previous vertex's, plus one for each bag in between.
    Raises DecompositionError naming the first vertex, in order of first
    appearance, whose bags are not contiguous.
    """
    span, broken = pd._intervals
    if broken:
        raise DecompositionError(
            f"vertex {next(iter(broken))!r} occupies non-contiguous bags; "
            "cannot normalize"
        )
    first: dict[str, int] = {}
    stage = prev = 0
    for v, (lo, _) in span.items():
        stage += lo - prev or 1
        prev = lo
        first[v] = stage
    return first


def _staged_bags(pd: PathDecomposition, first: dict[str, int]) -> PathDecomposition:
    """The staged decomposition of pd, given its `_staged_first_bags` map.

    A bag introducing two vertices moves every later first bag up a stage,
    so pd needs no staging exactly when the last vertex to appear is staged
    at the bag that introduces it.  Otherwise each bag's last stage is that
    of its last new vertex, or one past the previous bag's, and each vertex
    spans the stages from its own to the last of its last bag."""
    span = pd._intervals[0]
    last = next(reversed(first), None)
    if last is None or first[last] == span[last][0]:
        return pd
    top = [0] * (pd._count + 1)
    for v, stage in first.items():
        top[span[v][0]] = stage
    top = list(accumulate(top, lambda prev, stage: stage or prev + 1))
    staged = {v: (stage, top[span[v][1]]) for v, stage in first.items()}
    return PathDecomposition._from_intervals(staged, top[-1])
