"""The benchmark's workloads: seeded inputs, the CLI commands each one times,
the checks every output must pass, and work counts computed from the files.

Each input gets its own directory in the work directory, and a command names
the files it reads and writes relative to its input's directory, so the same
argv runs as a subprocess (cwd = that directory) or in-process through
``twolayer.cli.main``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from twolayer import analysis, fuzz, graphs, pathdecomp

NAMES = ("wide-bags", "star-sparse", "small-exact")
WIDE_DRAWINGS = 3
SPARSE_DRAWINGS = 3
FUZZ_SIDE_MAX = "6"  # fuzz --na-max and --nb-max


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY feeds the
    self-tests' smoke pass."""

    wide: tuple[int, int, float] = (160, 160, 0.032)
    star_legs: int = 500
    sparse: tuple[int, int, int] = (400, 400, 20)  # na, nb, edges
    small: tuple[int, int, float] = (9, 9, 0.3)
    fuzz_runs: int = 5
    fuzz_trials: int = 600  # per fuzz run


FULL = Sizes()
TINY = Sizes(
    wide=(24, 24, 0.12),
    star_legs=12,
    sparse=(80, 80, 25),
    small=(4, 4, 0.4),
    fuzz_runs=2,
    fuzz_trials=4,
)


Check = Callable[[Path], "list[str]"]


def fixed_edges_drawing(na: int, nb: int, m: int, seed: int) -> tuple:
    """Like ``graphs.random_drawing`` but with exactly ``m`` edges, drawn
    uniformly from the na*nb pairs; random rail orders."""
    rng = random.Random(seed)
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(f"b{j}" for j in range(nb))
    edges = tuple((a[k // nb], b[k % nb]) for k in sorted(rng.sample(range(na * nb), m)))
    graph = graphs.BipartiteGraph(a, b, edges)
    order_a, order_b = list(a), list(b)
    rng.shuffle(order_a)
    rng.shuffle(order_b)
    return graph, graphs.TwoLayerDrawing(graph, tuple(order_a), tuple(order_b))


@dataclass(frozen=True)
class Command:
    """One CLI invocation, ``python -m twolayer <argv>``, run in the input
    directory ``where``; its checks read the files it wrote there."""

    name: str
    where: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class Workload:
    """Commands over one or more generated inputs, each input in its own
    directory of the work directory."""

    name: str
    inputs: dict[str, Callable[[], tuple]]
    commands: tuple[Command, ...]
    setup_repeats: int  # set-ups per timed batch, about 0.1 s of work at FULL size

    def make_inputs(self, workdir: Path) -> None:
        """Generate every input and write its drawing.json and graph.json."""
        for where, make in self.inputs.items():
            graph, drawing = make()
            d = workdir / where
            d.mkdir(exist_ok=True)
            (d / "drawing.json").write_text(graphs.drawing_to_json(drawing) + "\n", encoding="utf-8")
            (d / "graph.json").write_text(graphs.graph_to_json(graph) + "\n", encoding="utf-8")


# ===================================================================
# output checks: each returns a list of problems, empty when the output holds
# ===================================================================

def _text(d: Path, name: str) -> str:
    return (d / name).read_text(encoding="utf-8")


def _json(d: Path, name: str):
    return json.loads(_text(d, name))


def _edges(items) -> tuple[tuple[str, str], ...]:
    return tuple((u, v) for u, v in items)


def bags_decompose(graph: dict, bags: list) -> list[str]:
    """A check of a path decomposition that does not use the program's own
    validator: every vertex of the graph, and no other, lies in a contiguous
    run of bags, and both ends of every edge share a bag."""
    runs: dict[str, list[int]] = {}  # vertex -> [first bag, last bag, bags]
    for i, bag in enumerate(bags):
        for v in set(bag):
            run = runs.setdefault(v, [i, i, 0])
            run[1] = i
            run[2] += 1
    vertices = set(graph["a"]) | set(graph["b"])
    problems = []
    if runs.keys() != vertices:
        problems.append(f"bags miss {len(vertices - runs.keys())} vertices and hold "
                        f"{len(runs.keys() - vertices)} unknown ids")
    broken = sum(1 for first, last, count in runs.values() if count != last - first + 1)
    if broken:
        problems.append(f"{broken} vertices lie in non-contiguous bags")
    # With contiguous runs, two vertices share a bag iff their runs overlap.
    apart = sum(
        1 for u, v in graph["edges"]
        if u in runs and v in runs and max(runs[u][0], runs[v][0]) > min(runs[u][1], runs[v][1])
    )
    if apart:
        problems.append(f"{apart} edges lie in no bag")
    return problems


def decomposition_valid(d: Path) -> list[str]:
    graph = graphs.graph_from_json(_text(d, "graph.json"))
    pd = pathdecomp.decomposition_from_json(_text(d, "pd.json"))
    bad = pathdecomp.validate_decomposition(graph, pd)
    problems = [f"pd.json: {bad[0].describe()} ({len(bad)} violations)"] if bad else []
    return problems + bags_decompose(_json(d, "graph.json"), _json(d, "pd.json")["bags"])


def width_within_bound(d: Path) -> list[str]:
    cert = _json(d, "cert.json")
    bags = _json(d, "pd.json")["bags"]
    width = max((len(bag) for bag in bags), default=1) - 1
    if cert["frontierExact"] and width > cert["widthBound"]:
        return [f"width {width} exceeds certified bound {cert['widthBound']}"]
    return []


def check_pd_ok(d: Path) -> list[str]:
    report = _json(d, "check.json")
    bags = _json(d, "pd.json")["bags"]
    width = max(len(bag) for bag in bags) - 1
    problems = bags_decompose(_json(d, "graph.json"), bags)
    if report["ok"] is not True:
        problems.append(f"check-pd reports {len(report['violations'])} violations")
    if report["width"] != width:
        problems.append(f"check-pd width {report['width']} != {width}")
    return problems


def layout_certified(d: Path) -> list[str]:
    cert = _json(d, "lcert.json")
    graphs.drawing_from_json(_text(d, "layout.json"))
    return [
        f"layout certificate has {key} = {cert[key]}"
        for key in ("maxCrossingOk", "stOk")
        if cert[key] is not True
    ]


def svg_has_rect_per_bag(d: Path) -> list[str]:
    rects = _text(d, "pd.svg").count("<rect ")
    bags = len(_json(d, "pd.json")["bags"])
    return [] if rects == bags else [f"SVG has {rects} <rect> for {bags} bags"]


def analyze_verified(d: Path) -> list[str]:
    drawing = graphs.drawing_from_json(_text(d, "drawing.json"))
    report = _json(d, "analyze.json")
    problems = []
    k, _ = analysis.max_crossing_set(drawing)
    if report["k"] != k:
        problems.append(f"analyze k {report['k']} != max_crossing_set {k}")
    witness = analysis.CrossingWitness(
        "k", edges=_edges(report["witnesses"]["maxCrossing"])
    )
    if len(witness.edges) != k or not witness.verify(drawing):
        problems.append("max-crossing witness does not re-verify")
    st = report["witnesses"]["st"]
    if [[w["s"], w["t"]] for w in st] != report["stFrontier"]:
        problems.append("st witnesses do not match the frontier")
    for w in st:
        witness = analysis.CrossingWitness(
            "st", s_edges=_edges(w["S"]), t_edges=_edges(w["T"])
        )
        sizes_ok = (len(witness.s_edges), len(witness.t_edges)) == (w["s"], w["t"])
        if not sizes_ok or not witness.verify(drawing):
            problems.append(f"({w['s']},{w['t']}) witness does not re-verify")
    return problems


def pathwidth_valid(d: Path) -> list[str]:
    graph = graphs.graph_from_json(_text(d, "graph.json"))
    payload = _json(d, "pw.json")
    pd = pathdecomp.PathDecomposition(tuple(tuple(bag) for bag in payload["bags"]))
    problems = bags_decompose(_json(d, "graph.json"), payload["bags"])
    if pathdecomp.validate_decomposition(graph, pd):
        problems.append("pathwidth bags do not validate")
    if pd.width != payload["pathwidth"]:
        problems.append(f"bags width {pd.width} != pathwidth {payload['pathwidth']}")
    return problems


def fuzz_clean(trials: int, out: str = "fuzz.json") -> Check:
    def check(d: Path) -> list[str]:
        report = _json(d, out)
        problems = []
        if report["failures"]:
            problems.append(f"fuzz reports {len(report['failures'])} failures")
        stats = report["checks"]
        if report["trials"] != trials or tuple(stats) != fuzz.ALL_CHECKS:
            problems.append("fuzz report covers the wrong trials or checks")
        if any(s["passed"] + s["failed"] != s["run"] for s in stats.values()):
            problems.append("fuzz passed + failed != run")
        done = sum(s["run"] + s["skipped"] for s in stats.values())
        if done != trials * len(fuzz.ALL_CHECKS):
            problems.append(f"fuzz counts sum to {done}, not trials x checks")
        return problems

    return check


# ===================================================================
# workloads
# ===================================================================

DECOMPOSE = ("decompose", "--in", "drawing.json", "--out", "pd.json", "--cert", "cert.json")
ANALYZE = ("analyze", "--in", "drawing.json", "--out", "analyze.json")
LAYOUT = ("--graph", "graph.json", "--out", "layout.json", "--cert", "lcert.json")


def _decompose_analyze(where: str, validate: bool) -> tuple[Command, ...]:
    checks = (decomposition_valid, width_within_bound) if validate else (width_within_bound,)
    return (
        Command(f"{where}.decompose", where, DECOMPOSE, ("pd.json", "cert.json"), checks),
        Command(f"{where}.analyze", where, ANALYZE, ("analyze.json",), (analyze_verified,)),
    )


def workload(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """The named workload's inputs and commands for one seed."""
    if name == "wide-bags":
        # The total size of a drawing's bags, and with it the time of every
        # command, spreads by 5 to 8 % from seed to seed; three drawings per
        # seed average that out.
        wide = {
            f"wide{i}": (lambda i=i: graphs.random_drawing(*sizes.wide, WIDE_DRAWINGS * seed + i))
            for i in range(WIDE_DRAWINGS)
        }
        commands: tuple[Command, ...] = ()
        for where in wide:
            decompose, analyze = _decompose_analyze(where, validate=False)
            commands += (
                decompose,
                Command(
                    f"{where}.check_pd", where,
                    ("check-pd", "--in", "pd.json", "--graph", "graph.json", "--out", "check.json"),
                    ("check.json",),
                    (check_pd_ok,),
                ),
                Command(
                    f"{where}.layout", where,
                    ("layout", "--in", "pd.json", *LAYOUT),
                    ("layout.json", "lcert.json"),
                    (layout_certified,),
                ),
                Command(
                    f"{where}.render", where,
                    ("render", "--in", "pd.json", "--out", "pd.svg"),
                    ("pd.svg",),
                    (svg_has_rect_per_bag,),
                ),
                analyze,
            )
        return Workload(name, wide, commands, setup_repeats=5)
    if name == "star-sparse":
        # How often analyze rebuilds the na*nb tables follows the size of a
        # sparse drawing's (s,t) frontier, 2 to 7 points from seed to seed.
        # A fixed edge count halves the relative standard deviation of a
        # drawing's time (0.23 to 0.11 over 14 seeds), and three drawings per
        # seed average the rest.
        sparse = {
            f"sparse{i}": (lambda i=i: fixed_edges_drawing(*sizes.sparse, SPARSE_DRAWINGS * seed + i))
            for i in range(SPARSE_DRAWINGS)
        }
        commands = _decompose_analyze("star", validate=True)
        for where in sparse:
            commands += _decompose_analyze(where, validate=True)
        return Workload(
            name,
            {"star": lambda: graphs.star_fan_drawing(sizes.star_legs), **sparse},  # star: seed unused
            commands,
            setup_repeats=2,
        )
    if name == "small-exact":
        # The fuzz trials run as several short commands, fuzz seeds
        # fuzz_runs * seed + i, so that a run holds several passes.  A trial's
        # time doubles with each vertex from about 10 on, so with the default
        # 8 + 8 vertices a few 13- and 14-vertex trials set the time, and how
        # many of them a seed draws spreads the time over seeds by about 7 %;
        # at most 6 + 6 spreads the time over all trials.
        fuzz_runs = tuple(
            Command(
                f"small.fuzz{i}", "small",
                ("fuzz", "--trials", str(sizes.fuzz_trials),
                 "--seed", str(sizes.fuzz_runs * seed + i),
                 "--na-max", FUZZ_SIDE_MAX, "--nb-max", FUZZ_SIDE_MAX, "--out", f"fuzz{i}.json"),
                (f"fuzz{i}.json",),
                (fuzz_clean(sizes.fuzz_trials, f"fuzz{i}.json"),),
            )
            for i in range(sizes.fuzz_runs)
        )
        return Workload(
            name,
            {"small": lambda: graphs.random_drawing(*sizes.small, seed)},
            (
                *fuzz_runs,
                Command(
                    "small.pathwidth", "small",
                    ("pathwidth", "--in", "graph.json", "--out", "pw.json"),
                    ("pw.json",),
                    (pathwidth_valid,),
                ),
                Command(
                    "small.layout", "small",
                    ("layout", "--in", "pw.json", *LAYOUT),
                    ("layout.json", "lcert.json"),
                    (layout_certified,),
                ),
            ),
            setup_repeats=150,
        )
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ===================================================================
# computed work counts (exact for a fixed seed)
# ===================================================================

# Counts that are a size of one input, not an amount of work, combine by
# maximum across a workload's inputs; the others add up.
MAX_COUNTS = frozenset({"analysis.k", "decompose.width", "decompose.width_bound"})


def work_counts(workdir: Path) -> dict[str, int]:
    """Sizes that set each layer's work, read back from the files a pass left
    in each input directory; a count no input has a file for is absent."""
    total: dict[str, int] = {}
    for d in sorted(p for p in workdir.iterdir() if p.is_dir()):
        for key, value in _input_counts(d).items():
            combine = max if key in MAX_COUNTS else int.__add__
            total[key] = combine(total[key], value) if key in total else value
    return total


def _input_counts(d: Path) -> dict[str, int]:
    drawing = _json(d, "drawing.json")
    counts = {
        "analysis.edges": len(drawing["edges"]),
        "analysis.rail_cells": len(drawing["a"]) * len(drawing["b"]),
    }
    if (d / "analyze.json").exists():
        report = _json(d, "analyze.json")
        counts["analysis.k"] = report["k"]
        counts["analysis.frontier_points"] = len(report["stFrontier"])
    if (d / "cert.json").exists():
        cert = _json(d, "cert.json")
        counts["decompose.matching_size"] = len(cert["matching"])
        counts["decompose.arc_matching_pairs"] = len(cert["arcs"]) * len(cert["matching"])
        counts["decompose.width_bound"] = cert["widthBound"]
    if (d / "pd.json").exists():
        bags = _json(d, "pd.json")["bags"]
        counts["decompose.bags"] = len(bags)
        counts["decompose.bag_entries"] = sum(len(bag) for bag in bags)
        counts["decompose.width"] = max(len(bag) for bag in bags) - 1
        counts["pathdecomp.json_bytes"] = (d / "pd.json").stat().st_size
    if (d / "pw.json").exists():
        n = len(drawing["a"]) + len(drawing["b"])
        counts["pathdecomp.dp_states"] = 1 << n
        counts["pathdecomp.json_bytes"] = (d / "pw.json").stat().st_size
    if (d / "pd.svg").exists():
        counts["render.svg_bytes"] = (d / "pd.svg").stat().st_size
    fuzz_reports = sorted(d.glob("fuzz*.json"))
    if fuzz_reports:
        stats = [s for f in fuzz_reports for s in _json(d, f.name)["checks"].values()]
        counts["fuzz.checks_run"] = sum(s["run"] for s in stats)
        counts["fuzz.checks_skipped"] = sum(s["skipped"] for s in stats)
        counts["fuzz.checks_total"] = sum(s["run"] + s["skipped"] for s in stats)
    return counts
