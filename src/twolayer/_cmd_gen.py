"""The gen command: an example graph or drawing of one family."""

import argparse

from . import graphs
from .cli import _int_from, _output, _usage, _write
from .errors import GraphError


def add(sub: argparse._SubParsersAction) -> None:
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
        (tree, graphs.DEFAULT_TREE_HEIGHT_CAP),
        (grid, graphs.DEFAULT_GRID_SIDE_CAP),
        (star, graphs.DEFAULT_STAR_CAP),
        (rand, graphs.DEFAULT_RANDOM_SIDE_CAP),
    ):
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "svg"), default="json")
        p.add_argument("--cap-n", type=_int_from(0), default=cap, dest="cap_n")
        p.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from .generators import complete_binary_tree, grid_graph, star_fan_drawing, subdivided_star
    from .graphs import random_drawing

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
        if isinstance(payload, graphs.BipartiteGraph):
            return _usage("cannot render a bare graph; use --fan for a drawing")
        from .render import render_drawing

        with _output(args.out) as fh:
            render_drawing(payload, fh)
        return 0
    if isinstance(payload, graphs.TwoLayerDrawing):
        _write(args.out, graphs.drawing_to_json(payload))
    else:
        _write(args.out, graphs.graph_to_json(payload))
    return 0
