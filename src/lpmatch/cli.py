"""Command-line interface.

Subcommands: ``rank`` (candidates closest to a target), ``errors`` (relative
errors of the top candidates), ``gaps`` (second-minus-first gap analysis),
``sweep`` (the full built-in analysis grid on stdout) and ``reproduce`` (the
complete document set written to a directory).  Only ``sweep`` and
``reproduce`` import ``paper``, the module of the built-in grid.  Every
command is declared once, in ``_COMMANDS``: its name, its help, its handler
and its options, which ``build_parser`` adds in one loop.

Exit codes: 0 on success, 2 on usage errors (bad flags or tokens, unreadable
data file), 1 on data errors (malformed file content, incompatible inputs)
and on output that stdout cannot take (closed, full, a broken pipe, or unable
to encode it).  ``_write`` writes every byte: the result and the help on
stdout, and an ``error:`` line or argparse's usage error on stderr.  A closed
or full stderr changes no exit code, and nothing printed for an error reaches
stdout.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import analysis, report
from .core import MetricSpec, Profile, Unit, _number
from .dataset import DistanceTable, builtin_table, parse_table, subset_references
from .errors import InvalidValue, LpmatchError

_BUILTIN_PREFIX = "builtin:"


class _UsageError(Exception):
    """Invalid invocation detected after argument parsing; exits 2."""


def _metric(token: str) -> MetricSpec:
    try:
        return MetricSpec.parse(token)
    except InvalidValue:
        raise argparse.ArgumentTypeError(f"unknown metric {token!r}") from None


def _positive_int(token: str) -> int:
    try:
        value = _number(token, kind=int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{token!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{token!r} must be >= 1")
    return value


def _load_table(args: argparse.Namespace) -> DistanceTable:
    source: str = args.data
    if source.startswith(_BUILTIN_PREFIX):
        token = source[len(_BUILTIN_PREFIX):]
        if token not in ("km", "hours"):
            raise _UsageError(f"unknown builtin data source {source!r}")
        return builtin_table(token)
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read data file {source!r}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 text, or a NUL in the path
        raise _UsageError(f"cannot read data file {source!r}: {exc}") from None
    try:
        unit = Unit.parse(args.unit)
    except InvalidValue:
        raise _UsageError(f"unknown unit {args.unit!r}") from None
    return parse_table(text, unit=unit, decimal=args.decimal)


def _resolve_solution(token: str, table: DistanceTable) -> analysis.SolutionProfile:
    if token in analysis.BUILTIN_SOLUTIONS:
        return analysis.BUILTIN_SOLUTIONS[token]
    try:
        values = tuple(_number(part) for part in token.split(","))
    except ValueError:
        raise _UsageError(
            f"unknown solution {token!r}: expected 'classic', 'refined' or a "
            "comma-separated list of jornada values"
        ) from None
    if len(values) != len(table.references):
        raise _UsageError(
            f"solution {token!r} has {len(values)} values but the data has "
            f"{len(table.references)} references"
        )
    return analysis.SolutionProfile(
        "custom", Profile(table.references, values, Unit.JORNADAS)
    )


def _apply_exclusions(table: DistanceTable, excluded: list[str]) -> DistanceTable:
    if not excluded:
        return table
    try:
        dropped = subset_references(table, excluded).references
    except InvalidValue as exc:  # the first unknown name, as "unknown reference 'X'"
        raise _UsageError(f"{exc} in --exclude") from None
    keep = [r for r in table.references if r not in dropped]
    if not keep:
        raise _UsageError("cannot exclude every reference")
    return subset_references(table, keep)


def _prepare(args: argparse.Namespace):
    # a literal --solution binds to the full reference order; --exclude then
    # drops references from the data and the solution simultaneously
    full = _load_table(args)
    solution = _resolve_solution(args.solution, full)
    table = _apply_exclusions(full, args.exclude)
    target = analysis.target_profile(solution, table.unit, table.references)
    return table, solution, target


def _cmd_rank(args: argparse.Namespace) -> str:
    table, solution, target = _prepare(args)
    ranking = analysis.rank_candidates(table, target, args.metric)
    doc = report.build_ranking_table(
        table, target, ranking, args.metric, k=args.top,
        title=report.ranking_title(args.metric, solution, table),
    )
    return doc.text(args.format)


def _cmd_errors(args: argparse.Namespace) -> str:
    table, solution, target = _prepare(args)
    ranking = analysis.rank_candidates(table, target, args.metric)
    title = (f"Relative errors under {args.metric.label} against the "
             f"{solution.label} target ({table.unit.short})")
    doc = report.build_error_listing(target, ranking, args.metric, k=args.top, title=title)
    return doc.text(args.format)


def _cmd_gaps(args: argparse.Namespace) -> str:
    table, solution, target = _prepare(args)
    gaps = analysis.gap_report(table, target)
    title = (f"Gap between the two closest candidates: {solution.label} target "
             f"({table.unit.short}, {len(table.references)} references)")
    return report.build_gap_listing(gaps, title=title).text(args.format)


def _cmd_sweep(args: argparse.Namespace) -> str:
    from . import paper

    documents = paper.build_document_set(paper.run_builtin_grid())
    # markdown documents read better separated by a blank line; csv and jsonl
    # must stay gap-free streams
    separator = "\n" if args.format == "md" else ""
    return separator.join(doc.text(args.format) for doc in documents.values())


def _cmd_reproduce(args: argparse.Namespace) -> str:
    from . import paper

    written = paper.write_document_set(args.outdir, fmt=args.format)
    return "".join(f"{path}\n" for path in written)


def _top(default: int) -> tuple:
    return ("--top", dict(type=_positive_int, default=default,
                          help=f"number of candidates to show (default: {default})"))


# The options of the three query commands that name their data and target.
_DATA = (
    ("--data", dict(default="builtin:km",
                    help="data source: builtin:km, builtin:hours, or a path to a "
                         "delimiter-separated file (default: builtin:km)")),
    ("--unit", dict(default="km",
                    help="unit of a file data source: km, hours or jornadas (default: km); "
                         "ignored for builtin sources")),
    ("--decimal", dict(choices=("auto", "dot", "comma"), default="auto",
                       help="decimal separator of a file data source (default: auto)")),
    ("--solution", dict(default="classic",
                        help="target profile: 'classic', 'refined', or a comma-separated list "
                             "of jornada values bound positionally to the data's reference "
                             "order (default: classic)")),
    # one list for every parser and run: argparse's append copies it, never mutates it
    ("--exclude", dict(action="append", default=[], metavar="REFERENCE",
                       help="drop a reference point from both the data and the solution; "
                            "repeatable")),
)
_FORMAT = ("--format", dict(choices=report.FORMATS, default="md",
                            help="output format (default: md)"))
_L2_METRIC = ("--metric", dict(type=_metric, default=MetricSpec.ln(2),
                               help="l1, l2, linf or l<n> (default: l2)"))

# Every command: name, help, handler and options, in the order --help lists them.
_COMMANDS = (
    ("rank", "rank candidates by distance to the target", _cmd_rank,
     (*_DATA, _top(5), _FORMAT, _L2_METRIC)),
    ("errors", "relative errors of the closest candidates", _cmd_errors,
     (*_DATA, _top(3), _FORMAT, _L2_METRIC)),
    ("gaps", "second-minus-first gap analysis", _cmd_gaps,
     (*_DATA, _FORMAT,
      ("--metric", dict(type=_metric, help="accepted for interface symmetry; gaps always "
                                           "evaluate the L_inf, L_1, L_2 family")))),
    ("sweep", "run the full built-in analysis grid", _cmd_sweep, (_FORMAT,)),
    ("reproduce", "write the complete document set", _cmd_reproduce,
     (("--outdir", dict(required=True, help="output directory")),
      ("--format", dict(choices=report.FORMATS, default="md",
                        help="document format (default: md)")))),
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, writing the help and usage errors through ``_write``.

    Every subparser is one too, since argparse builds them with the parent's type.
    """

    def print_help(self, file=None):
        if file is None:  # with stdout closed, the help goes to stderr, as in argparse
            _write(self.format_help(), "stdout" if sys.stdout is not None else "stderr")
        else:
            super().print_help(file)

    def error(self, message):
        # argparse's own error prints the usage to stdout when stderr is closed,
        # and leaves a full stderr's text buffered to fail again at exit
        try:
            _write(f"{self.format_usage()}{self.prog}: error: {message}\n", "stderr")
        except OSError:
            pass  # a closed or full stderr changes no exit code
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpmatch",
        description="Rank candidates by Minkowski-metric closeness of their "
                    "distance profiles to a target profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag, settings in options:
            command.add_argument(flag, **settings)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write(args.handler(args))
    except (_UsageError, LpmatchError, OSError) as exc:
        try:
            _write(f"error: {exc}\n", "stderr")
        except OSError:
            pass  # a closed or full stderr changes no exit code
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


def _write(output: str, stream: str = "stdout") -> None:
    """``output`` on ``sys.<stream>``, or OSError where that stream cannot take it."""
    file = getattr(sys, stream)
    if file is None:  # its descriptor was closed when the process started
        raise OSError(f"cannot write the output: {stream} is closed")
    try:
        # flushed here, so that a full device or a closed pipe fails inside
        # run and not in the interpreter's flush at exit
        file.write(output)
        file.flush()
    except UnicodeEncodeError as exc:  # a name that stdout's encoding lacks
        raise OSError(f"cannot write the output: {exc}") from None
    except OSError:
        try:
            fd = file.fileno()
        except io.UnsupportedOperation:
            pass  # a stream without a descriptor, such as a caller's StringIO
        else:
            # what stays in the buffer would fail again at exit: os.devnull takes it
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def main() -> None:
    # a path that is not UTF-8 prints as the bytes the OS gave, even where
    # stdout's own error handler is strict; a closed stdout is None
    if sys.stdout is not None:
        sys.stdout.reconfigure(errors="surrogateescape")
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
