"""The body of ``graphs.random_drawing``, which only gen and fuzz run."""

import random

from .errors import CapExceededError, GraphError
from .graphs import BipartiteGraph, TwoLayerDrawing


def random_drawing(n_a: int, n_b: int, p: float, seed: int, cap: int) -> tuple:
    if not isinstance(seed, int):
        raise GraphError("seed must be an int")
    if n_a < 0 or n_b < 0:
        raise GraphError("side sizes must be >= 0")
    if max(n_a, n_b) > cap:
        raise CapExceededError(f"side size {max(n_a, n_b)} exceeds cap {cap}")
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    a = tuple(f"a{i}" for i in range(n_a))
    b = tuple(f"b{j}" for j in range(n_b))
    edges = tuple((u, v) for u in a for v in b if rng.random() < p)
    graph = BipartiteGraph(a, b, edges)
    order_a, order_b = list(a), list(b)
    rng.shuffle(order_a)
    rng.shuffle(order_b)
    return graph, TwoLayerDrawing(graph, tuple(order_a), tuple(order_b))
