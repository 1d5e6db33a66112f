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
from importlib import import_module
from typing import Callable, Iterator, TextIO

from .errors import CapExceededError, GraphError, TwoLayerError


def _read(path: str, fh: TextIO | None = None) -> str:
    """The whole text at ``path``, or the rest of ``fh``, opened on it."""
    try:
        if fh is None and path != "-":
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        return (fh or sys.stdin).read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: input is not UTF-8 text: {exc}") from None


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


# Each subcommand, in the order the help lists them.  The options and the
# handler of a subcommand live in its own module, ``_cmd_<name>``, which only
# that subcommand (or the parser of every one) imports, and each handler
# imports the modules it runs, so a command compiles and loads no others.
_SUBCOMMANDS = (
    "gen", "analyze", "decompose", "layout", "pathwidth", "check-pd", "fuzz", "render"
)


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
    names = _SUBCOMMANDS
    if command in _SUBCOMMANDS:
        sub.metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
        names = (command,)
    for name in names:
        import_module(f"._cmd_{name.replace('-', '_')}", __package__).add(sub)
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
