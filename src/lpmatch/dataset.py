"""Embedded distance datasets, table ingestion and name normalization.

The two built-in tables give the optimal-route distance from each of 24
localities of the Campo de Montiel comarca to four reference points (Venta
de Cárdenas, Puerto Lápice, El Toboso, Munera), one table in kilometers and
one in hours.  Values are embedded verbatim at two decimals.

A ``DistanceTable`` stores its values by column, one value tuple per
reference, so that rankings reduce whole columns and a reference subset picks
columns without copying rows.  It also holds its row ordinals 0..n, built
once and shared by every subset, which a ranking sorts and numbers its
entries from without making new ints.

``parse_table`` loads column by column too, by one of two paths.  A text
without '"', '\\r' or NUL, none of whose lines is longer than csv's field
size limit and each of whose lines holds the header's count of delimiters,
is one whose csv records are its lines split at the delimiter; it is read
whole, without the csv module: each line is cut at its first delimiter into
name and value cells, and the value cells of all rows are joined into one
text, which is checked and has its decimal commas replaced at once.  Each
column, a stride slice of the cells, is converted with one
``map(float, ...)``.  Every other text, with quoted cells, '\\r\\n' line
ends or blank lines for instance, and every text whose cells the split path
cannot convert, is walked one csv record after another, which raises the
first malformed record's error; only then is the csv module imported.  Both
paths end in the same column check, which ``parse_table`` runs: it checks
each column with C-level reductions (every value finite, the minimum above
zero) and finds duplicate candidates from the size of its key index.  Where
that fails, the rows are walked one after another, and that walk alone
decides which error is raised, with the same message, line and column as a
row-by-row load.  Rows handed to the constructor as (name, values) pairs
take the row walk directly.  Either way one function, ``_filled``, sets
every field of a new table.  A name's key, which every lookup matches, is
``core.fold_name`` of its spelling.  ``_labelled`` gives names their keys
and display spellings (canonical, else title-cased) from one whitespace
collapse (``core._lines``), one fold (``core._keys``) and one title-casing:
the whole name column at once on the split path, one name at a time in the
row walk.  A cell is a number only if it is ASCII without ``_``.
"""

from __future__ import annotations

import io
import math
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

from .core import (
    Profile, Unit, _check_kind, _coerce, _floats, _keys, _lines, _names, _number, _shown,
    fold_name,
)
from .errors import InvalidValue, ParseError

__all__ = [
    "REFERENCES",
    "DistanceTable",
    "builtin_table",
    "normalize_name",
    "parse_table",
    "serialize_table",
    "subset_references",
]

REFERENCES = ("Venta de Cárdenas", "Puerto Lápice", "El Toboso", "Munera")


def _labelled(names: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The display spellings (canonical, else title-cased) and the keys of
    ``names``, strings, from their ``_lines``; InvalidValue for a blank name."""
    lines = _lines(names)
    titled = lines.title().split("\n")  # title case starts anew after a '\n'
    if not all(titled):
        raise InvalidValue("name is empty or blank")
    keys = _keys(lines)
    return tuple(map(_CANONICAL.get, keys, titled)), tuple(keys)


def _named(raw: str) -> tuple[str, str]:
    """``normalize_name(raw)`` and its ``fold_name`` key."""
    (name,), (key,) = _labelled(_names((raw,), "a name must be a string"))
    return name, key


def normalize_name(raw: str) -> str:
    """Canonical form of a candidate or reference name.

    Known names (including known alternate spellings) come back in canonical
    spelling regardless of case, spacing or missing diacritics; unknown names
    pass through cleaned up and title-cased.  Idempotent.
    """
    return _named(raw)[0]


def _pair(row) -> tuple:
    name, values = row
    return name, values


def _fast_fields(names: Sequence[str], columns: Sequence[tuple[float, ...]]) -> tuple | None:
    """(candidates, index, columns) when every row is valid, else None."""
    for column in columns:
        if not all(map(math.isfinite, column)) or min(column) <= 0.0:
            return None
    try:
        candidates, keys = _labelled(names)
    except InvalidValue:
        return None  # a blank name
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        return None
    return candidates, index, tuple(columns)


def _walked_fields(rows: Iterable, width: int) -> tuple:
    """(candidates, index, columns) of ``rows``, validated one row after
    another; raises the error of the first invalid row."""
    names: list[str] = []
    values: list[tuple[float, ...]] = []
    index: dict[str, int] = {}
    for row in rows:
        raw_name, raw_values = _coerce(_pair, row, "a table row must be a (name, values) pair")
        name, key = _named(raw_name)
        if key in index:
            raise InvalidValue(f"duplicate candidate {name!r}")
        index[key] = len(names)
        vals = _coerce(_floats, raw_values, "table distances must be real numbers")
        if len(vals) != width:
            raise InvalidValue(
                f"candidate {name!r} has {len(vals)} values for {width} references"
            )
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidValue(
                    f"distance {v!r} for candidate {name!r} must be finite and > 0"
                )
        names.append(name)
        values.append(vals)
    if not names:
        raise InvalidValue("table has no candidate rows")
    return tuple(names), index, tuple(zip(*values))


def _reference_labels(unit: Unit, references: Sequence[str]) -> tuple:
    """The display spellings and keys of a table's ``references``; raises
    InvalidValue unless ``unit`` is a Unit and the references are at least
    one name, no key twice."""
    _check_kind(unit, Unit, "table unit must be a Unit")
    references = _names(references, "table references must be an iterable of names")
    if not references:
        raise InvalidValue("a table needs at least one reference column")
    refs, keys = _labelled(references)
    if len(set(keys)) != len(refs):
        raise InvalidValue("duplicate reference name in table header")
    return refs, keys


def _filled(table: "DistanceTable", unit: Unit, labels: tuple, fields: tuple) -> "DistanceTable":
    """``table`` with every field set, from its references' ``labels`` and
    the (candidates, index, columns) ``fields`` of its rows."""
    table._unit = unit
    table._references, table._keys = labels
    table._candidates, table._index, table._columns = fields
    table._ordinals = tuple(range(len(table._candidates) + 1))  # 0..n, read by rankings
    return table


class DistanceTable:
    """Immutable candidate-by-reference distance matrix in a single unit,
    stored column by column."""

    def __init__(self, unit: Unit, references: Sequence[str],
                 rows: Iterable[tuple[str, Sequence[float]]]):
        labels = _reference_labels(unit, references)
        rows = _coerce(iter, rows, "table rows must be an iterable of (name, values) pairs")
        _filled(self, unit, labels, _walked_fields(rows, len(labels[0])))

    def _project(self, indices: Sequence[int]) -> "DistanceTable":
        """The table restricted to the columns at ``indices``, without
        re-validating.  The subset shares its parent's candidates, key index,
        row ordinals and value tuples; the index is never mutated."""
        table = object.__new__(DistanceTable)
        vars(table).update(vars(self))
        table._references = tuple(self._references[i] for i in indices)
        table._keys = tuple(self._keys[i] for i in indices)
        table._columns = tuple(self._columns[i] for i in indices)
        return table

    @property
    def unit(self) -> Unit:
        return self._unit

    @property
    def references(self) -> tuple[str, ...]:
        return self._references

    @property
    def candidates(self) -> tuple[str, ...]:
        return self._candidates

    @property
    def value_columns(self) -> tuple[tuple[float, ...], ...]:
        """One validated value tuple per reference, in reference order."""
        return self._columns

    @property
    def value_rows(self) -> tuple[tuple[float, ...], ...]:
        """One validated value tuple per candidate, in candidate order."""
        return tuple(zip(*self._columns))

    def aligned(self, profile: Profile) -> tuple[float, ...]:
        """``profile``'s values in this table's reference order, matched by folded name.

        Raises InvalidValue unless the profile is in the table's unit and
        covers exactly the table's references.
        """
        _check_kind(profile, Profile, "profile must be a Profile")
        if profile.unit is not self._unit:
            raise InvalidValue(
                f"target is in {profile.unit.value} but the table is in {self._unit.value}"
            )
        return profile.aligned_values(self._keys)

    def row_values(self, candidate: str) -> tuple[float, ...]:
        i = self._index.get(fold_name(candidate))
        if i is None:
            raise InvalidValue(f"unknown candidate {_shown(candidate)}")
        return tuple(column[i] for column in self._columns)

    def __len__(self) -> int:
        return len(self._candidates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceTable):
            return NotImplemented
        return (
            self._unit is other._unit
            and self._references == other._references
            and self._candidates == other._candidates
            and self._columns == other._columns
        )

    def __repr__(self) -> str:
        return (
            f"DistanceTable({len(self._candidates)} candidates x "
            f"{len(self._references)} references, {self._unit.value})"
        )


# Optimal-route distances in kilometers to (Venta de Cárdenas, Puerto Lápice,
# El Toboso, Munera).
_KM_ROWS = (
    ("Albaladejo", (72.80, 94.40, 106.92, 53.68)),
    ("Alcubillas", (55.88, 66.76, 86.64, 67.08)),
    ("Alhambra", (72.08, 64.04, 68.72, 53.16)),
    ("Almedina", (59.28, 84.04, 99.40, 65.04)),
    ("Cañamares", (78.96, 94.48, 102.16, 46.16)),
    ("Carrizosa", (70.44, 72.28, 77.20, 52.52)),
    ("Castellar de Santiago", (30.00, 94.48, 116.52, 92.28)),
    ("Cózar", (57.52, 77.72, 95.72, 67.44)),
    ("Fuencollana", (71.56, 76.36, 87.00, 55.68)),
    ("Membrilla", (74.88, 39.44, 76.00, 78.44)),
    ("Montiel", (68.36, 84.92, 97.44, 56.72)),
    ("Ossa de Montiel", (98.68, 75.08, 68.68, 23.60)),
    ("Puebla del Príncipe", (61.44, 90.80, 106.16, 65.04)),
    ("Ruidera", (86.92, 65.96, 64.64, 36.04)),
    ("Sta. Cruz de Cañamos", (66.96, 90.84, 104.40, 57.28)),
    ("La Solana", (70.44, 47.84, 66.76, 69.20)),
    ("Terrinches", (69.64, 94.16, 107.72, 56.84)),
    ("Torre de Juan Abad", (49.12, 86.04, 104.16, 73.16)),
    ("Torres de Montiel", (66.36, 80.32, 95.68, 90.32)),
    ("Torrenueva", (32.64, 81.68, 103.72, 59.04)),
    ("Villahermosa", (74.00, 83.76, 91.44, 48.28)),
    ("Villamanrique", (55.12, 92.08, 108.20, 71.56)),
    ("Villanueva de la Fuente", (82.00, 99.48, 107.48, 42.16)),
    ("Villanueva de los Infantes", (66.24, 71.48, 87.04, 61.00)),
)

# Same routes measured in hours of travel.
_HOURS_ROWS = (
    ("Albaladejo", (23.48, 30.45, 34.49, 17.32)),
    ("Alcubillas", (18.03, 21.54, 27.95, 21.64)),
    ("Alhambra", (23.25, 20.66, 22.17, 17.15)),
    ("Almedina", (19.12, 27.11, 32.06, 20.98)),
    ("Cañamares", (25.47, 30.48, 32.95, 14.89)),
    ("Carrizosa", (22.72, 23.32, 24.90, 16.94)),
    ("Castellar de Santiago", (9.68, 30.48, 37.59, 29.77)),
    ("Cózar", (18.55, 25.07, 30.88, 21.75)),
    ("Fuenllana", (23.08, 24.63, 28.06, 17.96)),
    ("Membrilla", (24.15, 12.72, 24.52, 25.30)),
    ("Montiel", (22.05, 27.39, 31.43, 18.30)),
    ("Ossa de Montiel", (31.83, 24.22, 22.15, 7.61)),
    ("Puebla del Príncipe", (19.82, 29.29, 34.25, 20.98)),
    ("Ruidera", (28.04, 21.28, 20.85, 11.63)),
    ("Sta. Cruz de Cañamos", (21.60, 29.30, 33.68, 18.48)),
    ("La Solana", (22.72, 15.43, 21.54, 22.32)),
    ("Terrinches", (22.46, 30.37, 34.75, 18.34)),
    ("Torre de Juan Abad", (15.85, 27.75, 33.60, 23.60)),
    ("Torres de Montiel", (21.41, 25.91, 30.86, 29.14)),
    ("Torrenueva", (10.53, 26.35, 33.46, 19.05)),
    ("Villahermosa", (23.87, 27.02, 29.50, 15.57)),
    ("Villamanrique", (17.78, 29.70, 34.90, 23.08)),
    ("Villanueva de la Fuente", (26.45, 32.09, 34.67, 13.60)),
    ("Villanueva de los Infantes", (21.37, 23.06, 28.08, 19.68)),
)

# folded key (of an alternate spelling too) -> canonical name; the hours
# rows hold the canonical spellings, the km rows one alternate verbatim
_SPELLINGS = tuple(map(itemgetter(0), _HOURS_ROWS)) + REFERENCES
_CANONICAL = dict(zip(_keys(_lines(_SPELLINGS)), _SPELLINGS))


@lru_cache(maxsize=None)
def _builtin(unit: Unit) -> DistanceTable:
    rows = _KM_ROWS if unit is Unit.KILOMETERS else _HOURS_ROWS
    return DistanceTable(unit, REFERENCES, rows)


def builtin_table(which: str | Unit) -> DistanceTable:
    """The embedded 24-locality table, ``which`` being 'km' or 'hours'."""
    unit = Unit.parse(which) if isinstance(which, str) else which
    _check_kind(unit, Unit, "table unit must be a Unit")
    if unit is Unit.JORNADAS:
        raise InvalidValue("built-in tables exist in kilometers and hours only")
    return _builtin(unit)


def _sniff_delimiter(text: str) -> str:
    """The delimiter of the first non-blank line, which ends where csv ends a
    record: at the first '\\n' or '\\r', not at the other breaks of
    ``str.splitlines``, such as '\\x85' or '\\u2028'."""
    start = len(text) - len(text.lstrip())  # the first non-blank character
    begin = max(text.rfind("\n", 0, start), text.rfind("\r", 0, start)) + 1
    ends = [i for i in (text.find("\n", start), text.find("\r", start)) if i >= 0]
    first = text[begin:min(ends, default=len(text))]
    if ";" in first:
        return ";"
    if "\t" in first:
        return "\t"
    return ","


# csv.field_size_limit() until a caller changes it; the limit is state of
# the _csv module, so it holds this value while _csv is not loaded
_FIELD_SIZE_LIMIT = 131072


def _split_cells(text: str, delimiter: str, comma: bool) -> tuple | None:
    """The header, raw candidate names and float value columns of ``text``,
    from its lines split at ``delimiter``; None unless that is how csv reads
    it, every line is a record of the header's width and every value cell is
    a number, ASCII without ``_``.

    Without '"', '\\r' or NUL, a csv record is a '\\n'-ended line split at
    the delimiter, and no field is longer than its line.  A blank line, or a
    line of another width, returns None; so does a blank header, which csv
    would skip.  The value cells come as one text, row after row, joined by
    '\\n', which is checked and has its decimal commas replaced at once.
    A cell that ``float`` refuses returns None too, and the record walk then
    names it; this function never raises.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last line
    if len(lines) < 2 or not lines[0].replace(delimiter, "").strip():
        return None
    width = lines[0].count(delimiter)
    limit = sys.modules["_csv"].field_size_limit() if "_csv" in sys.modules else _FIELD_SIZE_LIMIT
    if (not width
            or not all(map(width.__eq__, map(str.count, lines, repeat(delimiter))))
            or max(map(len, lines)) > limit):
        return None
    rows = list(map(str.partition, lines[1:], repeat(delimiter)))
    cells = "\n".join(map(itemgetter(2), rows)).replace(delimiter, "\n")
    if not cells.isascii() or "_" in cells:
        return None  # a cell that _number may reject
    if comma:
        cells = cells.replace(",", ".")
    cells = cells.split("\n")
    try:
        # float() ignores the same surrounding whitespace that the walk strips
        columns = [tuple(map(float, cells[j::width])) for j in range(width)]
    except ValueError:
        return None  # a cell that is not a number
    header = [cell.strip() for cell in lines[0].split(delimiter)]
    return header, list(map(itemgetter(0), rows)), columns


def _walked_rows(text: str, delimiter: str, comma: bool) -> tuple:
    """The same triple as ``_split_cells``, the header, raw candidate names
    and float value columns of ``text``, read one csv record after another;
    raises ParseError at the first malformed record, such as one with a field
    over the csv module's size limit."""
    import csv

    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    header: list[str] | None = None
    names: list[str] = []
    rows: list[tuple[float, ...]] = []
    try:
        for record in reader:
            line = reader.line_num
            if not any(cell.strip() for cell in record):
                continue
            if header is None:
                header = [cell.strip() for cell in record]
                if len(header) < 2:
                    raise ParseError(f"line {line}: header needs a name column plus references",
                                     line=line)
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"line {line}: expected {len(header)} fields, found {len(record)}",
                    line=line,
                )
            values = []
            for col, cell in enumerate(record[1:], start=2):
                try:
                    values.append(_number(cell, comma))
                except ValueError:
                    raise ParseError(
                        f"line {line}, column {col}: {cell.strip()!r} is not a number",
                        line=line,
                        column=col,
                    ) from None
            names.append(record[0].strip())
            rows.append(tuple(values))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None
    if header is None or not rows:
        raise InvalidValue("table has no candidate rows")
    return header, names, list(zip(*rows))


def parse_table(text: str, *, unit: Unit, decimal: str = "auto") -> DistanceTable:
    """Parse delimiter-separated text (comma, semicolon or tab) into a table.

    The first row is a header naming the references; each following row is a
    candidate name plus one distance per reference.  ``decimal`` is ``auto``,
    ``dot`` or ``comma``; ``auto`` accepts decimal commas exactly when the
    field delimiter is a semicolon or a tab.  Line and column numbers in
    parse errors are 1-based.
    """
    if decimal not in ("auto", "dot", "comma"):
        raise InvalidValue(f"unknown decimal mode {_shown(decimal)}")
    if not _coerce(str.strip, text, "table text must be a string"):
        raise InvalidValue("no table data")
    delimiter = _sniff_delimiter(text)
    if decimal == "auto":
        decimal = "comma" if delimiter in (";", "\t") else "dot"
    comma = decimal == "comma"
    # where the split path defers, the record walk raises the first malformed record's error
    header, names, columns = (_split_cells(text, delimiter, comma)
                              or _walked_rows(text, delimiter, comma))
    labels = _reference_labels(unit, header[1:])
    # where the column check fails, the row walk raises the first row's error
    fields = _fast_fields(names, columns) or _walked_fields(zip(names, zip(*columns)),
                                                            len(labels[0]))
    return _filled(object.__new__(DistanceTable), unit, labels, fields)


def serialize_table(table: DistanceTable, *, delimiter: str = ",") -> str:
    """Serialize with dot decimals at full precision.

    ``delimiter`` is one character; raises InvalidValue otherwise.  Only
    ``,``, ``;`` and a tab read back: ``parse_table`` of the text then gives
    the table again.  ``parse_table`` sniffs no other delimiter.
    """
    import csv

    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    out = io.StringIO()
    writer = _coerce(lambda d: csv.writer(out, delimiter=d, lineterminator="\n"),
                     delimiter, "delimiter must be a one-character string")
    writer.writerow(("name",) + table.references)
    for candidate, values in zip(table.candidates, table.value_rows):
        writer.writerow((candidate,) + tuple(repr(v) for v in values))
    return out.getvalue()


def subset_references(table: DistanceTable, keep: Sequence[str]) -> DistanceTable:
    """Restrict a table to the given reference columns, keeping table order."""
    _check_kind(table, DistanceTable, "table must be a DistanceTable")
    keep = _names(() if keep is None else keep, "references to keep must be an iterable of names")
    if not keep:
        raise InvalidValue("must keep at least one reference")
    keys = _keys(_lines(keep))
    for raw, key in zip(keep, keys):
        if key not in table._keys:
            raise InvalidValue(f"unknown reference {raw!r}")
    return table._project([i for i, key in enumerate(table._keys) if key in keys])
