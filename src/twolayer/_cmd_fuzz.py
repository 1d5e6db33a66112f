"""The fuzz command: a randomized sweep of the library's invariants."""

import argparse

from .cli import _usage, _write
from .errors import GraphError


def add(sub: argparse._SubParsersAction) -> None:
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
    fz.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
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
