"""Command-line interface.

Subcommands: ``rank`` (candidates closest to a target), ``errors`` (relative
errors of the top candidates), ``gaps`` (second-minus-first gap analysis),
``sweep`` (the full built-in analysis grid on stdout) and ``reproduce`` (the
complete document set written to a directory).  Only ``sweep`` and
``reproduce`` import ``paper``, the module of the built-in grid.  The three
query commands are declared once, in ``_QUERIES``; each subparser names its
handler.

Exit codes: 0 on success, 2 on usage errors (bad flags or tokens, unreadable
data file), 1 on data errors (malformed file content, incompatible inputs).
"""

from __future__ import annotations

import argparse
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
        value = int(token)
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


_LN_METRIC = (MetricSpec.ln(2), "l1, l2, linf or l<n> (default: l2)")

# The query commands, which share the data options: name, help, handler,
# --top default (None: no --top), and --metric default and help.
_QUERIES = (
    ("rank", "rank candidates by distance to the target", _cmd_rank, 5, *_LN_METRIC),
    ("errors", "relative errors of the closest candidates", _cmd_errors, 3, *_LN_METRIC),
    ("gaps", "second-minus-first gap analysis", _cmd_gaps, None, None,
     "accepted for interface symmetry; gaps always evaluate the L_inf, L_1, L_2 family"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpmatch",
        description="Rank candidates by Minkowski-metric closeness of their "
                    "distance profiles to a target profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler, top, metric, metric_help in _QUERIES:
        p_query = sub.add_parser(name, help=help_text)
        p_query.set_defaults(handler=handler)
        p_query.add_argument(
            "--data",
            default="builtin:km",
            help="data source: builtin:km, builtin:hours, or a path to a "
                 "delimiter-separated file (default: builtin:km)",
        )
        p_query.add_argument(
            "--unit",
            default="km",
            help="unit of a file data source: km, hours or jornadas (default: km); "
                 "ignored for builtin sources",
        )
        p_query.add_argument(
            "--decimal",
            choices=("auto", "dot", "comma"),
            default="auto",
            help="decimal separator of a file data source (default: auto)",
        )
        p_query.add_argument(
            "--solution",
            default="classic",
            help="target profile: 'classic', 'refined', or a comma-separated list "
                 "of jornada values bound positionally to the data's reference "
                 "order (default: classic)",
        )
        p_query.add_argument(
            "--exclude",
            action="append",
            default=[],
            metavar="REFERENCE",
            help="drop a reference point from both the data and the solution; repeatable",
        )
        if top is not None:
            p_query.add_argument("--top", type=_positive_int, default=top,
                                 help=f"number of candidates to show (default: {top})")
        p_query.add_argument("--format", choices=report.FORMATS, default="md",
                             help="output format (default: md)")
        p_query.add_argument("--metric", type=_metric, default=metric, help=metric_help)

    p_sweep = sub.add_parser("sweep", help="run the full built-in analysis grid")
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("--format", choices=report.FORMATS, default="md",
                         help="output format (default: md)")

    p_rep = sub.add_parser("reproduce", help="write the complete document set")
    p_rep.set_defaults(handler=_cmd_reproduce)
    p_rep.add_argument("--outdir", required=True, help="output directory")
    p_rep.add_argument("--format", choices=report.FORMATS, default="md",
                       help="document format (default: md)")

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.handler(args)
    except (_UsageError, LpmatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    sys.stdout.write(output)
    return 0


def main() -> None:
    # a path that is not UTF-8 prints as the bytes the OS gave, even where
    # stdout's own error handler is strict; a closed stdout is None
    if sys.stdout is not None:
        sys.stdout.reconfigure(errors="surrogateescape")
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
