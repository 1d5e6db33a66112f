"""Call spans around the public functions of the twolayer modules.

``SpanRecorder.installed`` swaps every public function bound in the layer
modules for a timing wrapper and puts the originals back on exit.  A span is
``[name, parent index, start ns, end ns, command]``; spans stay in memory
until the caller writes them out.  A function's self time is its span's
duration minus the durations of its direct child spans, so private helpers
fold into the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable, Iterator

LAYERS = ("graphs", "analysis", "pathdecomp", "decompose", "layout", "render", "fuzz", "cli")

# decompose calls edges_cross once per (arc, matching edge) pair: 5e5 times on
# the 500-leg star fan, 2e6 at 1000 legs, where a wrapper added about 2 s.  Its
# work is reported as the computed count decompose.arc_matching_pairs instead.
UNWRAPPED = frozenset({"analysis.edges_cross"})


def span_name(obj: object) -> str | None:
    """``<module>.<function>`` for a public function of a layer module, else
    None (classes, constants, helpers from other packages, UNWRAPPED)."""
    if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
        return None
    package, _, module = obj.__module__.rpartition(".")
    if package != "twolayer" or module not in LAYERS:
        return None
    name = f"{module}.{obj.__name__}"
    return None if name in UNWRAPPED else name


class SpanRecorder:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.command: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, self.command]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return timed

    @contextmanager
    def installed(self, modules: Iterable[ModuleType]) -> Iterator[None]:
        """Wrap every public layer function bound in ``modules``; one wrapper
        per function, however many modules import it."""
        wrappers: dict[Callable, Callable] = {}
        saved: list[tuple[ModuleType, str, object]] = []
        try:
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    name = span_name(obj)
                    if name is None or attr.startswith("_"):
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(name, obj)
                    saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
            yield
        finally:
            for module, attr, obj in reversed(saved):
                setattr(module, attr, obj)


def wrapper_cost_ns(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra ns of one call through a span wrapper over a bare call of
    the same no-op function.  Times the number of spans, it estimates what
    tracing added to a traced run."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        timed = SpanRecorder().wrap("calibrate.noop", noop)
        start = time.perf_counter_ns()
        for _ in range(calls):
            timed()
        middle = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        costs.append((2 * middle - start - time.perf_counter_ns()) / calls)
    return statistics.median(costs)


def _child_ns(spans: list[list]) -> list[int]:
    """Total duration of each span's direct children."""
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def self_times(spans: list[list]) -> dict[str, tuple[int, int]]:
    """``{name: (self ns, calls)}`` summed over all spans."""
    child_ns = _child_ns(spans)
    out: dict[str, list[int]] = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0])
        agg[0] += end - start - child_ns[i]
        agg[1] += 1
    return {name: (ns, calls) for name, (ns, calls) in out.items()}


def tree_problems(spans: list[list], root: str = "cli.main") -> list[str]:
    """Check that each command's spans form one tree under a ``root`` span
    whose duration equals the sum of the self times inside it."""
    child_ns = _child_ns(spans)
    roots: dict[str, int] = {}
    self_sum: dict[str, int] = {}
    problems = []
    for i, (name, parent, start, end, command) in enumerate(spans):
        own = end - start - child_ns[i]
        if end < start or own < 0:
            problems.append(f"span {i} ({name}) has negative time")
        if parent < 0:
            if name != root or command in roots:
                problems.append(f"command {command}: stray top-level span {name}")
            roots[command] = end - start
        elif spans[parent][4] != command:
            problems.append(f"span {i} ({name}) crosses commands")
        self_sum[command] = self_sum.get(command, 0) + own
    for command, total in self_sum.items():
        if roots.get(command) != total:
            problems.append(
                f"command {command}: self times sum to {total} ns, "
                f"{root} span lasts {roots.get(command)} ns"
            )
    return problems
