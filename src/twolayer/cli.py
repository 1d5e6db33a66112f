"""Command-line interface.

Subcommands: gen, analyze, decompose, layout, pathwidth, check-pd, fuzz,
render.  Exit codes: 0 success, 1 validation/invariant failure, 2 usage,
3 size cap exceeded.  Files are JSON (UTF-8) except rendered SVG; "-" as an
input path reads stdin, and omitting --out writes to stdout.  SVG and pd.json
are written as they are produced, and a seekable pd.json is read bag by
bag.  A command opens its output files only after parsing, validation and
the size caps have passed, opens all of them before it writes any, and
removes the regular files it opened when one fails to open or to be written.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

from .errors import CapExceededError, GraphError, TwoLayerError
from .graphs import (
    DEFAULT_GRID_SIDE_CAP,
    DEFAULT_PATHWIDTH_CAP,
    DEFAULT_PROFILE_CAP,
    DEFAULT_RANDOM_SIDE_CAP,
    DEFAULT_ST_EDGE_CAP,
    DEFAULT_STAR_CAP,
    DEFAULT_TREE_HEIGHT_CAP,
    BipartiteGraph,
    TwoLayerDrawing,
    _drawing_from_object,
    _dumps,
    _load_object,
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
    random_drawing,
)

if TYPE_CHECKING:
    from .pathdecomp import PathDecomposition


def _read(path: str, fh: TextIO | None = None) -> str:
    """The whole text at ``path``, or the rest of ``fh``, opened on it."""
    try:
        if fh is None and path != "-":
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        return (fh or sys.stdin).read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: input is not UTF-8 text: {exc}") from None


def _read_pd(
    path: str, fallback: Callable[[str], PathDecomposition | TwoLayerDrawing]
) -> PathDecomposition | TwoLayerDrawing:
    """The decomposition in the pd.json at ``path``, read one bag at a time
    if the file is seekable, or else ``fallback`` of the whole text."""
    from .pathdecomp import _read_decomposition

    if path == "-":
        return fallback(_read(path))
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():
            pd = _read_decomposition(fh.read)
            if pd is not None:
                return pd
            fh.seek(0)
        text = _read(path, fh)
    return fallback(text)


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Stdout, or the file at ``path``.  If writing the file fails part-way,
    the file is removed when it is a regular file reached by no symlink, so
    a device, a FIFO or a link is never unlinked; the error propagates."""
    if path is None:
        yield sys.stdout
        return
    fh = open(path, "w", encoding="utf-8")
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            yield fh
    except Exception:
        with suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
                os.remove(path)
        raise


@contextmanager
def _outputs(
    path: str | None, cert: str | None
) -> Iterator[tuple[TextIO, TextIO | None]]:
    """``_output(path)`` and, if ``cert`` is given, ``_output(cert)``, both
    opened before either is written, so that a failure on either removes
    both regular files.  Two handles on one regular file would interleave,
    so naming the same one twice is an error."""
    with _output(path) as fh:
        if not cert:
            yield fh, None
            return
        with _output(cert) as cert_fh:
            opened = os.fstat(cert_fh.fileno())
            if (
                path is not None
                and stat.S_ISREG(opened.st_mode)
                and os.path.samestat(opened, os.fstat(fh.fileno()))
            ):
                raise OSError(errno.EINVAL, "--cert names the --out file", cert)
            yield fh, cert_fh


def _write(path: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(path) as fh:
        fh.write(text)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _int_from(low: int) -> Callable[[str], int]:
    """argparse type for an int >= low; a smaller value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


# ===================================================================
# subcommand handlers
# ===================================================================
# Each handler imports the modules it runs, so a command loads no others.

def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import complete_binary_tree, grid_graph, star_fan_drawing, subdivided_star

    try:
        if args.family == "tree":
            _, payload = complete_binary_tree(args.height, cap=args.cap_n)
        elif args.family == "grid":
            _, payload = grid_graph(args.side, cap=args.cap_n)
        elif args.family == "star" and args.fan:
            _, payload = star_fan_drawing(args.legs, cap=args.cap_n)
        elif args.family == "star":
            payload = subdivided_star(args.legs, cap=args.cap_n)
        else:  # random
            _, payload = random_drawing(args.na, args.nb, args.p, args.seed, cap=args.cap_n)
    except GraphError as exc:  # the generators check the argument domains
        return _usage(str(exc))

    if args.format == "svg":
        if isinstance(payload, BipartiteGraph):
            return _usage("cannot render a bare graph; use --fan for a drawing")
        from .render import render_drawing

        with _output(args.out) as fh:
            render_drawing(payload, fh)
        return 0
    if isinstance(payload, TwoLayerDrawing):
        _write(args.out, drawing_to_json(payload))
    else:
        _write(args.out, graph_to_json(payload))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analysis_report

    drawing = drawing_from_json(_read(args.infile))
    report = analysis_report(drawing, st_cap=args.cap_st, edge_cap=args.cap_edges)
    _write(args.out, _dumps(report))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decompose import certificate_to_json, decompose_drawing
    from .pathdecomp import decomposition_to_json

    drawing = drawing_from_json(_read(args.infile))
    pd, cert = decompose_drawing(drawing, st_cap=args.cap_st, edge_cap=args.cap_edges)
    with _outputs(args.out, args.cert) as (fh, cert_fh):
        decomposition_to_json(pd, fh)
        fh.write("\n")
        if cert_fh is not None:
            cert_fh.write(certificate_to_json(cert) + "\n")
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from .layout import layout_certificate_to_json, layout_decomposition
    from .pathdecomp import decomposition_from_json

    pd = _read_pd(args.infile, decomposition_from_json)
    graph = graph_from_json(_read(args.graph))
    drawing, cert = layout_decomposition(graph, pd, edge_cap=args.cap_edges)
    with _outputs(args.out, args.cert) as (fh, cert_fh):
        fh.write(drawing_to_json(drawing) + "\n")
        if cert_fh is not None:
            cert_fh.write(layout_certificate_to_json(cert) + "\n")
    return 0


def _cmd_pathwidth(args: argparse.Namespace) -> int:
    from .pathdecomp import order_to_decomposition, pathwidth_exact

    graph = graph_from_json(_read(args.infile))
    pw, order = pathwidth_exact(graph, cap=args.cap_n)
    pd = order_to_decomposition(graph, order)
    payload = {
        "pathwidth": pw,
        "order": order,
        "bags": pd.bags,
    }
    _write(args.out, _dumps(payload))
    return 0


def _cmd_check_pd(args: argparse.Namespace) -> int:
    from .pathdecomp import decomposition_from_json, validate_decomposition

    pd = _read_pd(args.infile, decomposition_from_json)
    graph = graph_from_json(_read(args.graph))
    violations = validate_decomposition(graph, pd)
    payload = {
        "ok": not violations,
        "width": pd.width if pd._count else None,
        "violations": [
            {
                "kind": v.kind,
                "vertex": v.vertex,
                "edge": v.edge,
                "indices": v.indices,
                "detail": v.describe(),
            }
            for v in violations
        ],
    }
    _write(args.out, _dumps(payload))
    return 0 if not violations else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import ALL_CHECKS, FuzzConfig, report_to_json, run_fuzz

    try:
        config = FuzzConfig(
            trials=args.trials,
            seed=args.seed,
            na_max=args.na_max,
            nb_max=args.nb_max,
            p_range=(args.p_min, args.p_max),
            checks=tuple(args.checks.split(",")) if args.checks else ALL_CHECKS,
            invert_check=args.invert,
        )
    except GraphError as exc:  # FuzzConfig checks the argument domains
        return _usage(str(exc))
    report = run_fuzz(config)
    _write(args.out, report_to_json(report))
    return 0 if report.ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from .pathdecomp import PathDecomposition
    from .render import render_decomposition, render_drawing

    payload = _read_pd(args.infile, _render_payload)
    with _output(args.out) as fh:
        if isinstance(payload, PathDecomposition):
            render_decomposition(payload, fh)
        else:
            render_drawing(payload, fh)
    return 0


def _render_payload(text: str) -> PathDecomposition | TwoLayerDrawing:
    """The decomposition or the drawing in ``text``, from one decode: a
    document shaped like pd.json goes through the decomposition's bag
    reader, anything else through ``json.loads``."""
    from .pathdecomp import _decomposition_from_object, _read_decomposition

    pd = _read_decomposition(text)
    if pd is not None:
        return pd
    data = _load_object(text)
    if "bags" in data:
        return _decomposition_from_object(data)
    return _drawing_from_object(data)


# ===================================================================
# parser
# ===================================================================

def _add_gen(sub: argparse._SubParsersAction) -> None:
    gen = sub.add_parser("gen", help="generate an example graph or drawing")
    fam = gen.add_subparsers(dest="family", required=True)
    tree = fam.add_parser("tree", help="complete binary tree with drawing")
    tree.add_argument("--height", type=int, required=True)
    grid = fam.add_parser("grid", help="square grid with drawing")
    grid.add_argument("--side", type=int, required=True)
    star = fam.add_parser("star", help="once-subdivided star")
    star.add_argument("--legs", type=int, required=True)
    star.add_argument(
        "--fan", action="store_true", help="also fix the canonical fan drawing"
    )
    rand = fam.add_parser("random", help="seeded random drawing")
    rand.add_argument("--na", type=int, required=True)
    rand.add_argument("--nb", type=int, required=True)
    rand.add_argument("--p", type=float, required=True)
    rand.add_argument("--seed", type=int, default=0)
    for p, cap in (
        (tree, DEFAULT_TREE_HEIGHT_CAP),
        (grid, DEFAULT_GRID_SIDE_CAP),
        (star, DEFAULT_STAR_CAP),
        (rand, DEFAULT_RANDOM_SIDE_CAP),
    ):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "svg"), default="json")
        p.add_argument("--cap-n", type=_int_from(0), default=cap, dest="cap_n")
        p.set_defaults(func=_cmd_gen)


def _add_analyze(sub: argparse._SubParsersAction) -> None:
    analyze = sub.add_parser("analyze", help="crossing analytics for a drawing")
    analyze.add_argument("--in", dest="infile", required=True)
    analyze.add_argument("--out", default=None)
    analyze.add_argument("--cap-st", type=_int_from(1), default=DEFAULT_PROFILE_CAP)
    analyze.add_argument("--cap-edges", type=_int_from(0), default=DEFAULT_ST_EDGE_CAP)
    analyze.set_defaults(func=_cmd_analyze)


def _add_decompose(sub: argparse._SubParsersAction) -> None:
    dec = sub.add_parser(
        "decompose", help="drawing -> certified path decomposition"
    )
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--out", default=None)
    dec.add_argument("--cert", default=None, help="also write the certificate")
    dec.add_argument("--cap-st", type=_int_from(1), default=DEFAULT_PROFILE_CAP)
    dec.add_argument("--cap-edges", type=_int_from(0), default=DEFAULT_ST_EDGE_CAP)
    dec.set_defaults(func=_cmd_decompose)


def _add_layout(sub: argparse._SubParsersAction) -> None:
    lay = sub.add_parser(
        "layout", help="path decomposition -> certified drawing"
    )
    lay.add_argument("--in", dest="infile", required=True)
    lay.add_argument("--graph", required=True)
    lay.add_argument("--out", default=None)
    lay.add_argument("--cert", default=None, help="also write the certificate")
    lay.add_argument("--cap-edges", type=_int_from(0), default=DEFAULT_ST_EDGE_CAP)
    lay.set_defaults(func=_cmd_layout)


def _add_pathwidth(sub: argparse._SubParsersAction) -> None:
    pw = sub.add_parser("pathwidth", help="exact pathwidth of a small graph")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--out", default=None)
    pw.add_argument("--cap-n", type=_int_from(0), default=DEFAULT_PATHWIDTH_CAP)
    pw.set_defaults(func=_cmd_pathwidth)


def _add_check_pd(sub: argparse._SubParsersAction) -> None:
    chk = sub.add_parser("check-pd", help="validate a path decomposition")
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--graph", required=True)
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=_cmd_check_pd)


def _add_fuzz(sub: argparse._SubParsersAction) -> None:
    fz = sub.add_parser("fuzz", help="randomized invariant sweep")
    fz.add_argument("--trials", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--na-max", type=int, default=8)
    fz.add_argument("--nb-max", type=int, default=8)
    fz.add_argument("--p-min", type=float, default=0.0)
    fz.add_argument("--p-max", type=float, default=1.0)
    fz.add_argument(
        "--checks",
        default=None,
        help="comma list from decompose,audit,layout,counting,per-edge",
    )
    fz.add_argument(
        "--invert",
        default=None,
        help="negate one check's verdict (harness self-test)",
    )
    fz.add_argument("--out", default=None)
    fz.set_defaults(func=_cmd_fuzz)


def _add_render(sub: argparse._SubParsersAction) -> None:
    ren = sub.add_parser("render", help="SVG for a drawing or decomposition")
    ren.add_argument("--in", dest="infile", required=True)
    ren.add_argument("--out", default=None)
    ren.set_defaults(func=_cmd_render)


# Each subcommand's parser builder, in the order the help lists them.
_SUBCOMMANDS = {
    "gen": _add_gen,
    "analyze": _add_analyze,
    "decompose": _add_decompose,
    "layout": _add_layout,
    "pathwidth": _add_pathwidth,
    "check-pd": _add_check_pd,
    "fuzz": _add_fuzz,
    "render": _add_render,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, of that
    one alone.  Its messages are the same either way for an argv that starts
    with ``command``: the usage line spells out every subcommand."""
    parser = argparse.ArgumentParser(
        prog="twolayer",
        description="Two-layer bipartite drawings, their crossing structure, "
        "and certified conversions to and from path decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _SUBCOMMANDS:
        sub.metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
        _SUBCOMMANDS[command](sub)
    else:
        for add in _SUBCOMMANDS.values():
            add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TwoLayerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
