import csv
import io
import math
import re
import sys
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch import dataset
from lpmatch.core import Profile, Unit, fold_name
from lpmatch.dataset import (
    REFERENCES,
    DistanceTable,
    builtin_table,
    normalize_name,
    parse_table,
    serialize_table,
    subset_references,
)
from lpmatch.errors import InvalidValue, LpmatchError, ParseError


def row_profile(table, name):
    """The profile of one candidate's row of ``table``."""
    return Profile(table.references, table.row_values(name), table.unit)


class TestBuiltinTables:
    @pytest.mark.parametrize("which", ["km", "hours"])
    def test_shape(self, which):
        table = builtin_table(which)
        assert len(table) == 24
        assert table.references == REFERENCES

    def test_km_golden_row(self):
        assert builtin_table("km").row_values("Albaladejo") == (72.80, 94.40, 106.92, 53.68)

    def test_hours_golden_row(self):
        assert builtin_table("hours").row_values("Ossa de Montiel") == (31.83, 24.22, 22.15, 7.61)

    def test_alternate_spelling_resolves_to_canonical_row(self):
        km = builtin_table("km")
        assert "Fuenllana" in km.candidates
        assert "Fuencollana" not in km.candidates
        assert km.row_values("Fuencollana") == km.row_values("Fuenllana")

    def test_km_and_hours_share_provenance(self):
        # the same routes measured both ways: km/hours stays in [3.0, 3.2]
        km, hours = builtin_table("km"), builtin_table("hours")
        assert km.candidates == hours.candidates
        for name in km.candidates:
            for a, b in zip(km.row_values(name), hours.row_values(name)):
                assert 3.0 <= a / b <= 3.2, name

    def test_rejects_jornadas(self):
        with pytest.raises(InvalidValue):
            builtin_table("jornadas")

    def test_row_returns_profile(self):
        row = row_profile(builtin_table("km"), "Carrizosa")
        assert row.unit is Unit.KILOMETERS
        assert row.names == REFERENCES
        assert row.values == (70.44, 72.28, 77.20, 52.52)

    def test_unknown_candidate(self):
        with pytest.raises(InvalidValue, match=r"^unknown candidate 'El Dorado'$"):
            row_profile(builtin_table("km"), "El Dorado")


class TestNormalizeName:
    def test_alias_maps_to_canonical(self):
        assert normalize_name("Fuencollana") == "Fuenllana"

    def test_case_and_whitespace_fold(self):
        assert normalize_name("  villanueva de los infantes ") == "Villanueva de los Infantes"

    def test_diacritics_fold(self):
        assert normalize_name("cozar") == "Cózar"
        assert normalize_name("venta de cardenas") == "Venta de Cárdenas"

    def test_idempotent_on_canonical(self):
        assert normalize_name("Fuenllana") == "Fuenllana"

    def test_unknown_names_title_cased(self):
        assert normalize_name("  puerto   nuevo ") == "Puerto Nuevo"
        assert normalize_name(normalize_name("puerto nuevo")) == normalize_name("puerto nuevo")

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
    def test_blank_rejected(self, blank):
        with pytest.raises(InvalidValue, match="name is empty or blank"):
            normalize_name(blank)


class TestParseTable:
    def test_semicolon_with_decimal_commas_auto(self):
        text = "name;Venta de Cárdenas;Puerto Lápice\nX;10,5;20,0\n"
        table = parse_table(text, unit=Unit.KILOMETERS)
        assert table.references == ("Venta de Cárdenas", "Puerto Lápice")
        assert table.row_values("X") == (10.5, 20.0)

    def test_comma_delimiter_with_dot_decimals(self):
        text = "name,a,b\nX,10.5,20.0\n"
        table = parse_table(text, unit=Unit.HOURS)
        assert table.row_values("X") == (10.5, 20.0)

    def test_tab_delimiter(self):
        text = "name\ta\tb\nX\t1,25\t2,5\n"
        table = parse_table(text, unit=Unit.HOURS)
        assert table.row_values("X") == (1.25, 2.5)

    def test_explicit_dot_mode_overrides_auto(self):
        text = "name;a;b\nX;10.5;20.0\n"
        table = parse_table(text, unit=Unit.KILOMETERS, decimal="dot")
        assert table.row_values("X") == (10.5, 20.0)

    def test_ragged_row(self):
        text = "name;a;b\nX;10,5\n"
        with pytest.raises(ParseError) as info:
            parse_table(text, unit=Unit.KILOMETERS)
        assert info.value.line == 2

    def test_non_numeric_cell_reports_line_and_column(self):
        text = "name,a,b\nX,10.5,oops\n"
        with pytest.raises(ParseError) as info:
            parse_table(text, unit=Unit.KILOMETERS)
        assert info.value.line == 2
        assert info.value.column == 3

    def test_comma_decimal_in_dot_mode_is_an_error(self):
        text = "name,a\nX,\"10,5\"\n"
        with pytest.raises(ParseError):
            parse_table(text, unit=Unit.KILOMETERS)

    @pytest.mark.parametrize("text, message", [("", "no table data"),
                                               ("   \n  \n", "no table data"),
                                               ("name;a;b\n", "table has no candidate rows")])
    def test_empty_input(self, text, message):
        with pytest.raises(InvalidValue, match=message):
            parse_table(text, unit=Unit.KILOMETERS)

    def test_duplicate_candidate_after_normalization(self):
        text = "name;a\nFuenllana;1,0\nFuencollana;2,0\n"
        with pytest.raises(InvalidValue, match="duplicate candidate 'Fuenllana'"):
            parse_table(text, unit=Unit.KILOMETERS)

    def test_nonpositive_value_rejected(self):
        text = "name;a\nX;0,0\n"
        with pytest.raises(InvalidValue):
            parse_table(text, unit=Unit.KILOMETERS)

    def test_header_needs_references(self):
        with pytest.raises(ParseError):
            parse_table("name\nX\n", unit=Unit.KILOMETERS)

    def test_bad_decimal_mode(self):
        with pytest.raises(InvalidValue):
            parse_table("name,a\nX,1\n", unit=Unit.KILOMETERS, decimal="binary")

    def test_field_over_the_csv_size_limit_reports_its_line(self):
        text = "name,a\nX,1\nY," + "1" * 200_000 + "\n"
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            parse_table(text, unit=Unit.KILOMETERS)
        assert info.value.line == 3

    def test_carriage_return_inside_a_field_is_a_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_table("name,a\nX,1\rY,2\n", unit=Unit.KILOMETERS)
        assert info.value.line == 2

    @pytest.mark.parametrize("text", ['name;a\nX;"1\n2"\nY;3\n', 'name;a\nX;"2\n"\nY;3\n',
                                      'name;a;b\nX;"1\n2";3\nY;4;5\n'])
    def test_a_quoted_value_cell_with_a_newline_is_read_by_the_row_rule(self, text):
        expected = outcome(lambda: oracle_parse(text, Unit.HOURS, "auto"))
        assert outcome(lambda: parse_table(text, unit=Unit.HOURS)) == expected

    def test_a_line_break_that_csv_does_not_break_at_keeps_the_delimiter(self):
        table = parse_table("n\x85ame;a\nX;1,5\n", unit=Unit.HOURS)
        assert table.references == ("A",)
        assert table.value_columns == ((1.5,),)

    @pytest.mark.parametrize("char", ["\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\u2028", "\u2029"])
    @pytest.mark.parametrize("cell", [0, 1])
    def test_splitlines_breaks_in_a_header_cell_are_text(self, char, cell):
        header = ["name", "ref"]
        header[cell] = header[cell][:2] + char + header[cell][2:]
        text = ";".join(header) + "\nX;1,5\nY;2,25\n"
        table = parse_table(text, unit=Unit.HOURS)
        assert table.references == (normalize_name(header[1]),)
        assert table.candidates == ("X", "Y")
        assert table.value_columns == ((1.5, 2.25),)

    @pytest.mark.parametrize("text, delimiter", [("\t\rname,a\n", ","), ("\t\r\nname,a", ","),
                                                 (" \n\tname\n", "\t"), ("a\u2028;b", ";"),
                                                 ("a,b\rc;d", ","), ("\n\n", ",")])
    def test_the_delimiter_is_read_from_the_first_non_blank_csv_line(self, text, delimiter):
        assert dataset._sniff_delimiter(text) == delimiter

    def test_a_carriage_return_only_file_keeps_its_error(self):
        text = "name;a\rX;1,5\rY;2,5\r"
        with pytest.raises(ParseError, match="^line 1: new-line character seen in unquoted "
                                             "field") as info:
            parse_table(text, unit=Unit.HOURS)
        assert info.value.line == 1
        assert outcome(lambda: oracle_parse(text, Unit.HOURS, "auto"))[:2] == (
            ParseError, str(info.value))


class TestSerializeRoundTrip:
    def test_builtin_km_round_trips_exactly(self):
        km = builtin_table("km")
        assert parse_table(serialize_table(km), unit=Unit.KILOMETERS) == km

    def test_semicolon_delimited_km_round_trips_exactly(self):
        km = builtin_table("km")
        assert parse_table(serialize_table(km, delimiter=";"), unit=Unit.KILOMETERS) == km

    def test_builtin_hours_round_trips_exactly(self):
        hours = builtin_table("hours")
        assert parse_table(serialize_table(hours), unit=Unit.HOURS) == hours

    def test_full_precision_values_round_trip(self):
        table = DistanceTable(
            Unit.HOURS, ("a", "b"), [("X", (1 / 3, 2.0000000000000004))]
        )
        again = parse_table(serialize_table(table), unit=Unit.HOURS)
        assert again == table


class TestSubsetReferences:
    def test_drop_munera_golden(self):
        km = subset_references(builtin_table("km"), REFERENCES[:3])
        assert km.references == ("Venta de Cárdenas", "Puerto Lápice", "El Toboso")
        assert km.row_values("Carrizosa") == (70.44, 72.28, 77.20)

    def test_keep_all_is_identity(self):
        km = builtin_table("km")
        assert subset_references(km, REFERENCES) == km

    def test_selection_follows_table_order(self):
        km = subset_references(builtin_table("km"), ("Munera", "Venta de Cárdenas"))
        assert km.references == ("Venta de Cárdenas", "Munera")

    def test_unknown_reference(self):
        with pytest.raises(InvalidValue, match="unknown reference 'El Dorado'"):
            subset_references(builtin_table("km"), ["El Dorado"])

    def test_empty_selection(self):
        with pytest.raises(InvalidValue, match="must keep at least one reference"):
            subset_references(builtin_table("km"), [])

    def test_original_table_unchanged(self):
        km = builtin_table("km")
        subset_references(km, REFERENCES[:2])
        assert km.references == REFERENCES

    def test_commutes_with_row_access(self):
        km = builtin_table("km")
        sub = subset_references(km, ("Puerto Lápice", "Munera"))
        for name in km.candidates:
            full = dict(row_profile(km, name).items())
            assert sub.row_values(name) == (full["Puerto Lápice"], full["Munera"])

    def test_alias_lookups_still_work(self):
        sub = subset_references(builtin_table("km"), ("el toboso", "VENTA DE CARDENAS"))
        assert sub.row_values("Fuencollana") == sub.row_values("fuenllana") == (71.56, 87.00)
        assert row_profile(sub, " FUENCOLLANA ").names == ("Venta de Cárdenas", "El Toboso")
        with pytest.raises(InvalidValue, match=r"^unknown candidate 'El Dorado'$"):
            sub.row_values("El Dorado")


class TestColumnStorage:
    TABLE = DistanceTable(Unit.KILOMETERS, ("a", "b", "c"),
                          [("X", (1.0, 2.0, 3.0)), ("Y", (4.0, 5.0, 6.0))])

    def test_columns_and_rows_are_transposes(self):
        assert self.TABLE.value_columns == ((1.0, 4.0), (2.0, 5.0), (3.0, 6.0))
        assert self.TABLE.value_rows == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        assert self.TABLE.row_values(" y ") == (4.0, 5.0, 6.0)

    def test_subset_picks_whole_columns(self):
        sub = subset_references(self.TABLE, ("C", "a"))
        assert sub.value_columns == ((1.0, 4.0), (3.0, 6.0))
        assert sub.value_rows == ((1.0, 3.0), (4.0, 6.0))
        assert sub.value_columns[1] is self.TABLE.value_columns[2]  # shared, not copied

    def test_equality_reads_the_values(self):
        other = DistanceTable(Unit.KILOMETERS, ("a", "b", "c"),
                              [("X", (1.0, 2.0, 3.0)), ("Y", (4.0, 5.0, 6.5))])
        assert self.TABLE != other
        assert self.TABLE == DistanceTable(Unit.KILOMETERS, ("A", "B", "C"),
                                           [("x", (1, 2, 3)), ("y", (4, 5, 6))])

    def test_a_table_never_equals_a_non_table(self):
        assert self.TABLE.__eq__(self.TABLE.value_rows) is NotImplemented
        assert self.TABLE != self.TABLE.value_rows

    def test_row_built_and_parsed_tables_carry_their_ordinals(self):
        # rankings sort these row ordinals and number their entries from them
        assert self.TABLE._ordinals == (0, 1, 2)
        parsed = parse_table("name,a\nX,1.5\nY,2\nZ,3\n", unit=Unit.HOURS)
        assert parsed._ordinals == (0, 1, 2, 3)
        assert builtin_table("km")._ordinals == tuple(range(25))

    def test_a_subset_shares_its_parents_ordinals(self):
        sub = subset_references(self.TABLE, ("C", "a"))
        assert sub._ordinals is self.TABLE._ordinals


class TestDistanceTableValidation:
    def test_wrong_arity(self):
        with pytest.raises(InvalidValue):
            DistanceTable(Unit.KILOMETERS, ("a", "b"), [("X", (1.0,))])

    def test_duplicate_reference(self):
        with pytest.raises(InvalidValue):
            DistanceTable(Unit.KILOMETERS, ("a", "A "), [("X", (1.0, 2.0))])

    def test_no_rows(self):
        with pytest.raises(InvalidValue, match="table has no candidate rows"):
            DistanceTable(Unit.KILOMETERS, ("a",), [])

    def test_duplicate_candidate(self):
        with pytest.raises(InvalidValue, match="duplicate candidate 'X'"):
            DistanceTable(Unit.KILOMETERS, ("a",), [("X", (1.0,)), (" x ", (2.0,))])

    @pytest.mark.parametrize("values", ["12", b"12", bytearray(b"12"), memoryview(b"12")],
                             ids=["str", "bytes", "bytearray", "memoryview"])
    def test_text_in_place_of_a_row_values_is_not_read_as_characters(self, values):
        with pytest.raises(InvalidValue, match="^table distances must be real numbers, got "):
            DistanceTable(Unit.KILOMETERS, ("a", "b"), [("x", values)])


names_pool = st.integers(min_value=0, max_value=999).map(lambda i: f"item{i}")


@st.composite
def random_tables(draw):
    n_refs = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    refs = [f"ref{i}" for i in range(n_refs)]
    rows = []
    taken = draw(st.lists(names_pool, min_size=n_rows, max_size=n_rows, unique=True))
    for name in taken:
        values = draw(st.lists(
            st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
            min_size=n_refs, max_size=n_refs,
        ))
        rows.append((name, tuple(values)))
    return DistanceTable(draw(st.sampled_from(list(Unit))), refs, rows)


@given(random_tables())
@settings(max_examples=150)
def test_serialize_parse_round_trip_property(table):
    assert parse_table(serialize_table(table), unit=table.unit) == table


@given(random_tables(), st.data())
@settings(max_examples=150)
def test_subset_equals_a_table_built_afresh(table, data):
    keep = data.draw(st.lists(st.sampled_from(table.references), min_size=1, unique=True))
    columns = [i for i, ref in enumerate(table.references) if ref in keep]
    fresh = DistanceTable(
        table.unit,
        [table.references[i] for i in columns],
        [(name, [table.row_values(name)[i] for i in columns]) for name in table.candidates],
    )
    sub = subset_references(table, [ref.upper() for ref in keep])
    assert sub == fresh
    assert sub.value_rows == fresh.value_rows
    assert sub.value_columns == fresh.value_columns
    for name in table.candidates:
        assert sub.row_values(f" {name.upper()} ") == fresh.row_values(name)
        assert row_profile(sub, name) == row_profile(fresh, name)


# Ingestion parity.  The loader validates whole columns and re-walks the
# input row by row only on failure; the oracle below is the row-by-row loader
# written out in full, with its own name folding, so both must give the same
# table or the same error (type, message, line and column).

def oracle_fold(name):
    collapsed = " ".join(name.split())
    decomposed = unicodedata.normalize("NFKD", collapsed.casefold())
    return "".join("i" if ch == "ı" else ch
                   for ch in decomposed if not unicodedata.combining(ch))


ORACLE_CANONICAL = {oracle_fold(n): n for n in builtin_table("km").candidates + REFERENCES}
ORACLE_CANONICAL[oracle_fold("Fuencollana")] = "Fuenllana"


def oracle_coerce(convert, value, requirement):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidValue(f"{requirement}, got {value!r}") from None


def oracle_real(value):
    """A value as a float; text only in ASCII without '_', as in a file."""
    if isinstance(value, str) and (not value.strip().isascii() or "_" in value):
        raise ValueError(value)
    return float(value)


def oracle_floats(values):
    """The values as floats; text in place of the values is no container."""
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise TypeError(values)
    return tuple(map(oracle_real, values))


def oracle_normalize(raw):
    cleaned = " ".join(oracle_coerce(str.split, raw, "a name must be a string"))
    if not cleaned:
        raise InvalidValue("name is empty or blank")
    return ORACLE_CANONICAL.get(oracle_fold(cleaned), cleaned.title())


def oracle_table(unit, references, rows):
    """(unit, references, keys, candidates, index, columns) of a table."""
    if not isinstance(unit, Unit):
        raise InvalidValue(f"table unit must be a Unit, got {unit!r}")
    refs = tuple(oracle_normalize(r) for r in references)
    if not refs:
        raise InvalidValue("a table needs at least one reference column")
    keys = tuple(oracle_fold(r) for r in refs)
    if len(set(keys)) != len(refs):
        raise InvalidValue("duplicate reference name in table header")
    names, values, index = [], [], {}
    for raw_name, raw_values in rows:
        name = oracle_normalize(raw_name)
        key = oracle_fold(name)
        if key in index:
            raise InvalidValue(f"duplicate candidate {name!r}")
        index[key] = len(names)
        vals = oracle_coerce(oracle_floats, raw_values,
                             "table distances must be real numbers")
        if len(vals) != len(refs):
            raise InvalidValue(
                f"candidate {name!r} has {len(vals)} values for {len(refs)} references")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidValue(f"distance {v!r} for candidate {name!r} must be finite and > 0")
        names.append(name)
        values.append(vals)
    if not names:
        raise InvalidValue("table has no candidate rows")
    return unit, refs, keys, tuple(names), index, tuple(zip(*values))


def oracle_parse(text, unit, decimal):
    # the first non-blank line, ended where csv ends a record
    first = next((line for line in re.split("[\r\n]", text) if line.strip()), "")
    delimiter = ";" if ";" in first else "\t" if "\t" in first else ","
    if decimal == "auto":
        decimal = "comma" if delimiter in (";", "\t") else "dot"
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    header, rows = None, []
    while True:
        try:
            record = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None
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
            raise ParseError(f"line {line}: expected {len(header)} fields, found {len(record)}",
                             line=line)
        values = []
        for col, cell in enumerate(record[1:], start=2):
            raw = cell.strip()
            if decimal == "comma":
                raw = raw.replace(",", ".")
            try:
                if not raw.isascii() or "_" in raw:
                    raise ValueError(raw)
                values.append(float(raw))
            except ValueError:
                raise ParseError(f"line {line}, column {col}: {cell.strip()!r} is not a number",
                                 line=line, column=col) from None
        rows.append((record[0].strip(), tuple(values)))
    if header is None or not rows:
        raise InvalidValue("table has no candidate rows")
    return oracle_table(unit, header[1:], rows)


def outcome(load):
    """What loading gives: the table's fields, or the error it raises."""
    try:
        table = load()
    except LpmatchError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    if isinstance(table, tuple):
        return table
    return (table.unit, table.references, table._keys, table.candidates, table._index,
            table.value_columns)


GOOD_NAMES = ["a", "b c", " x ", "Fuenllana", "cózar", "ıbiza x", "straße", "ǆemal",
              "río  peña", "zé", '"q,r"', "Munera"]
BAD_NAMES = ["A", "FUENLLANA", "Fuencollana", "Cozar", "Ibiza X", "STRASSE", "", "  ", "B  C"]
GOOD_CELLS = ["1", "2.5", " 3.25 ", "7", " 5 ", "1e-320", "0.01", "1e308", "12"]
COMMA_CELLS = ["4,75", "1,5", '"2,5"', " 0,25 "]
BAD_CELLS = ["0", "-1", "0,0", "-0", "nan", "inf", "-inf", "1e309", "1_0", "", " ", "x",
             "1.5.2", "9" * 400, "١٢"]
TAILS = ['"unterminated', "bare\rreturn", "x\x00y"]


@st.composite
def table_texts(draw):
    """(text, decimal): a valid table with up to three faults put in.

    A fault is a bad or empty cell, a duplicate, blank or alias name, a
    ragged row, a blank or whitespace-only line, or a line that the csv
    reader refuses or reads differently (an unterminated quote, a bare
    carriage return, a NUL).
    """
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    decimal = draw(st.sampled_from(["auto", "dot", "comma"]))
    comma = decimal == "comma" or (decimal == "auto" and delimiter != ",")
    cells = GOOD_CELLS + (COMMA_CELLS if comma else [])
    width = draw(st.integers(min_value=1, max_value=3))
    refs = draw(st.lists(st.sampled_from(["r1", "r2", "r3", "El Toboso", "Munera"]),
                         min_size=width, max_size=width, unique=True))
    names = draw(st.lists(st.sampled_from(GOOD_NAMES), min_size=1, max_size=6, unique=True))
    lines = [[name] + [draw(st.sampled_from(cells)) for _ in refs] for name in names]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fault = draw(st.sampled_from(["cell", "name", "ragged", "blank", "line", "header"]))
        if fault in ("cell", "name") and len(lines[row]) < 2:
            continue  # a blank, cut or csv line, with no cell to spoil
        if fault == "cell":
            lines[row][draw(st.integers(1, len(lines[row]) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif fault == "name":
            lines[row][0] = draw(st.sampled_from(BAD_NAMES))
        elif fault == "ragged":
            lines[row] = lines[row][:-1] if draw(st.booleans()) else lines[row] + ["1"]
        elif fault == "blank":
            lines.insert(row, draw(st.sampled_from([[""], ["  \t "], [""] * (width + 1)])))
        elif fault == "line":
            lines.insert(row, [draw(st.sampled_from(TAILS))])
        else:
            refs[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["R1", " ", "r2"]))
    text = "\n".join(delimiter.join(line) for line in [["name"] + refs] + lines)
    return text + draw(st.sampled_from(["", "\n", "\r\n"])), decimal


@given(table_texts(), st.sampled_from([Unit.KILOMETERS, Unit.HOURS, "km"]))
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
def test_parse_table_matches_the_row_by_row_oracle(text_and_decimal, unit):
    text, decimal = text_and_decimal
    expected = outcome(lambda: oracle_parse(text, unit, decimal))
    assert outcome(lambda: parse_table(text, unit=unit, decimal=decimal)) == expected


def no_split(text, delimiter, comma):
    return None


SPLIT_NAMES = ["a", "b c", " x ", "cózar", "ıbiza x", "n\x85o", "p\u2028q", "١٢", "r_s", "7"]
SPLIT_BAD_NAMES = ["Fuencollana", "Fuenllana", "A", "", "  ", "1,5", "s\tt", "u;v", "w\rx", "\ry"]
SPLIT_CELLS = ["1", "2.5", " 12 ", "1e-320", "1e308"]
SPLIT_BAD_CELLS = ["0", "-1", "nan", "inf", "1e309", "1_0", "١٢", "x", "", " ", "5\x00",
                   "1,5", "2.5,0", "9" * 30, '"1\n2"', '"2\n"', '"3"']


@st.composite
def split_texts(draw):
    """(text, decimal, field size limit): a table text with faults that csv
    and the split path read alike or refuse alike, or that the split path
    must leave to csv."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    decimal = draw(st.sampled_from(["auto", "dot", "comma"]))
    cells = SPLIT_CELLS + (["3,25", " 4,75 "] if delimiter != "," else [])
    width = draw(st.integers(min_value=1, max_value=4))
    names = draw(st.lists(st.sampled_from(SPLIT_NAMES), min_size=1, max_size=6, unique=True))
    lines = [["name"] + [f"r{i}" for i in range(width)]]
    lines += [[name] + [draw(st.sampled_from(cells)) for _ in range(width)] for name in names]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fault = draw(st.sampled_from(["cell", "name", "quoted", "ragged", "blank", "nul",
                                      "header"]))
        if fault == "cell" and len(lines[row]) > 1:
            lines[row][draw(st.integers(1, len(lines[row]) - 1))] = draw(
                st.sampled_from(SPLIT_BAD_CELLS))
        elif fault == "name":
            lines[row][0] = draw(st.sampled_from(SPLIT_BAD_NAMES))
        elif fault == "quoted":
            held = draw(st.sampled_from([delimiter, "\n", "\r\n", '""', "x"]))
            lines[row][0] = f'"{lines[row][0]}{held}y"'
        elif fault == "ragged":
            lines[row] = lines[row][:-1] if draw(st.booleans()) else lines[row] + ["1"]
        elif fault == "blank":
            lines.insert(row, draw(st.sampled_from(
                [[""], ["  \t "], [""] * (width + 1), [" "] * (width + 1), [""] * width])))
        elif fault == "nul":
            lines[row][0] += "\x00"
        else:
            lines[0][draw(st.integers(0, len(lines[0]) - 1))] = draw(
                st.sampled_from(["R0", " ", "", "ñ"]))
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r\n", "\r", "mixed"]))
    endings = [ending] * (len(lines) - 1)
    if ending == "mixed":  # '\n' and '\r\n', and a lone '\r' now and then
        endings = [draw(st.sampled_from(["\n", "\r\n", "\r\n", "\r"]))
                   for _ in endings]
    text = "".join(delimiter.join(line) + end for line, end in zip(lines, endings + [""]))
    text += draw(st.sampled_from(["", "\n", "\n\n", "\r\n", "\r\n\r\n", "\n\r\n\n",
                                  " \n", "\r", "\n\r"]))
    return text, decimal, draw(st.sampled_from([None, None, 8, 20]))


@given(split_texts(), st.sampled_from([Unit.KILOMETERS, "km"]))
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
def test_the_split_path_reads_as_csv_does(case, unit):
    text, decimal, limit = case
    default_limit = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        read = outcome(lambda: parse_table(text, unit=unit, decimal=decimal))
        with mock.patch.object(dataset, "_split_cells", no_split):
            by_csv = outcome(lambda: parse_table(text, unit=unit, decimal=decimal))
    finally:
        csv.field_size_limit(default_limit)
    assert read == by_csv


def test_a_quote_free_table_takes_the_split_path(monkeypatch):
    def walk(*args):
        raise AssertionError("csv records walked")

    monkeypatch.setattr(dataset, "_walked_rows", walk)
    text = "nombre;a;b\n x  y ;1,5; 2,25 \ncózar;3;4,5"
    table = parse_table(text, unit=Unit.HOURS)
    assert table.candidates == ("X Y", "Cózar")
    assert table.value_columns == ((1.5, 3.0), (2.25, 4.5))
    assert parse_table(text + "\n", unit=Unit.HOURS) == table
    km = builtin_table("km")
    assert parse_table(serialize_table(km, delimiter="\t"), unit=Unit.KILOMETERS,
                       decimal="dot") == km


@pytest.mark.parametrize("text", ['name;a\n"X";1\n', "name;a\r\nX;1\r\n", "name;a\nX\x00;1\n",
                                  "\nname;a\nX;1\n", "name;a\nX;1\n\n", "name;a\n\nX;1\n",
                                  "name;a\r\nX;1\r\n\r\n", "name;a\r\nX;1\nY;2\r\n",
                                  "name;a\nX;1\n\r\n\n", "name;a\rX;1\r", "name;a\r\nX;1\r",
                                  "name;a\r\r\nX;1\n", "name;a\nW\rX;1\n", "name;a\nX;1\n\n \n",
                                  "name;a\r\n\r\nX;1\r\n",
                                  "name;a\nX;1;2\n", ";\nX;1\n", "name;a\nX;1;2\n3\n",
                                  "name;a;b\n7\nX;1;2;3\n", "name\nX;1\n"])
def test_other_shapes_leave_the_split_path(text):
    assert dataset._split_cells(text, ";", True) is None
    read = outcome(lambda: parse_table(text, unit=Unit.HOURS))
    with mock.patch.object(dataset, "_split_cells", no_split):
        assert read == outcome(lambda: parse_table(text, unit=Unit.HOURS))


def test_a_line_longer_than_the_field_limit_leaves_the_split_path():
    default_limit = csv.field_size_limit()
    text = "name;a\nX;12345\n"
    try:
        csv.field_size_limit(7)
        assert dataset._split_cells(text, ";", True) is not None
        csv.field_size_limit(6)
        assert dataset._split_cells(text, ";", True) is None
    finally:
        csv.field_size_limit(default_limit)


def test_the_field_limit_is_the_default_while_csv_is_not_loaded(monkeypatch):
    monkeypatch.delitem(sys.modules, "_csv")
    limit = dataset._FIELD_SIZE_LIMIT
    line = "X;" + "1" * (limit - 2)
    assert dataset._split_cells(f"name;a\n{line}\n", ";", True) is not None
    assert dataset._split_cells(f"name;a\n{line}1\n", ";", True) is None


class OneShot(list):
    """Values passed as an iterator, which a loader can read only once."""


GOOD_VALUES = [1.0, 2.5, 7, "3.5", 1e-320, True, 1.7e308, 0.01]
BAD_VALUES = [0.0, -1.0, math.nan, math.inf, 10**400, None, "x", 1j, "1_0", "١٢"]


@st.composite
def table_rows(draw):
    """(references, rows, as_generator): valid rows with up to three faults put in."""
    width = draw(st.integers(min_value=1, max_value=3))
    refs = draw(st.lists(st.sampled_from(["r1", "r2", " r3 ", "Munera"]),
                         min_size=width, max_size=width, unique=True))
    names = draw(st.lists(st.sampled_from(GOOD_NAMES), min_size=1, max_size=5, unique=True))
    rows = [[name, [draw(st.sampled_from(GOOD_VALUES)) for _ in refs]] for name in names]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        fault = draw(st.sampled_from(["value", "name", "arity", "values", "references"]))
        if fault in ("value", "arity") and type(row[1]) is not list:
            continue  # its values were replaced by a fault already
        if fault == "value" and row[1]:
            row[1][draw(st.integers(0, len(row[1]) - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "name":
            row[0] = draw(st.sampled_from(BAD_NAMES + [None, 3]))
        elif fault == "arity":
            row[1] = row[1][:-1] if draw(st.booleans()) else row[1] + [1.0]
        elif fault == "values":
            row[1] = draw(st.sampled_from([None, 5, "12", OneShot([1.0] * width)]))
        else:
            refs = draw(st.sampled_from([[], refs + ["R1"], refs[:-1] + [""]]))
    return refs, [tuple(row) for row in rows], draw(st.booleans())


@given(table_rows())
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_distance_table_matches_the_row_by_row_oracle(case):
    references, rows, as_generator = case

    def given_rows():
        fresh = [(name, iter(values) if isinstance(values, OneShot) else values)
                 for name, values in rows]
        return iter(fresh) if as_generator else fresh

    expected = outcome(lambda: oracle_table(Unit.HOURS, references, given_rows()))
    assert outcome(lambda: DistanceTable(Unit.HOURS, references, given_rows())) == expected


@pytest.mark.parametrize("text, error, line, column", [
    # a bad cell on line 2 comes before the csv error on line 3
    ("name,a\nX,oops\nY,1\rZ,2\n", ParseError, 2, 2),
    # a ragged row comes before a bad cell further down
    ("name;a;b\nX;1\nY;x;2\n", ParseError, 2, None),
    # a non-positive value comes before a duplicate name
    ("name,a\nX,0\nx,1\n", InvalidValue, None, None),
    # a duplicate name comes before a non-finite value
    ("name,a\nX,1\nx,2\nY,inf\n", InvalidValue, None, None),
    # every parse error comes before a bad unit
    ("name,a\nX,1\nY,\n", ParseError, 3, 2),
])
def test_the_first_error_in_row_order_wins(text, error, line, column):
    with pytest.raises(error) as info:
        parse_table(text, unit=Unit.KILOMETERS if line is None else "km")
    assert getattr(info.value, "line", None) == line
    assert getattr(info.value, "column", None) == column
    assert outcome(lambda: oracle_parse(text, Unit.KILOMETERS if line is None else "km",
                                        "auto"))[:2] == (error, str(info.value))


@pytest.mark.parametrize("rows, message", [
    ([("X", (0.0,)), ("", (1.0,))], r"^distance 0\.0 for candidate 'X' must be finite and > 0$"),
    ([("", (1.0,)), ("X", (0.0,))], r"^name is empty or blank$"),
    ([("X", (1.0,)), ("x", (2.0,)), ("Y", ("z",))], r"^duplicate candidate 'X'$"),
    ([("X", ("z",)), ("x", (2.0,))], r"^table distances must be real numbers, got \('z',\)$"),
    ([("X", (1.0, 2.0)), ("Y", (math.nan,))], r"^candidate 'X' has 2 values for 1 references$"),
])
def test_a_row_list_bad_in_two_ways_raises_the_first_rows_error(rows, message):
    with pytest.raises(LpmatchError, match=message):
        DistanceTable(Unit.KILOMETERS, ("a",), rows)


def test_valid_input_takes_no_row_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("row walk taken")

    km = builtin_table("km")
    monkeypatch.setattr(dataset, "_walked_fields", walk)
    with mock.patch.object(dataset, "_walked_rows", walk):
        assert parse_table(serialize_table(km), unit=Unit.KILOMETERS) == km
    # quoted cells and blank lines take the record walk, whose valid rows
    # pass the column check without a row walk
    text = "nombre;a;b\n\n x ;1,5; 2,25 \n  ;  \nY;\"3,5\";4\n"
    assert parse_table(text, unit=Unit.HOURS).value_columns == ((1.5, 3.5), (2.25, 4.0))


# Name folding: the fold of each code point, and one fold per table key.

def test_fold_name_matches_the_generator_oracle_on_every_bmp_code_point():
    for point in range(0x10000):
        char = chr(point)
        for text in (char, "a" + char):
            assert fold_name(text) == oracle_fold(text), hex(point)


def test_the_column_fold_matches_the_oracle_on_every_bmp_code_point(monkeypatch):
    def walk(*args):
        raise AssertionError("row walk taken")

    # parse_table's column check only: the row walk, which folds one name at
    # a time, would hide an error of the column fold; the quoted names reach
    # that check through the record walk
    monkeypatch.setattr(dataset, "_walked_fields", walk)
    # '<n>-' keeps each key unique and each name non-blank; NUL cannot pass
    # through the csv reader of every supported Python
    names = [f"{point}-{chr(point)}" for point in range(1, 0x10000)]
    for start in range(0, len(names), 4096):
        chunk = names[start:start + 4096]
        out = io.StringIO()
        rows = [("name", "a")] + [(name, "1") for name in chunk]
        csv.writer(out, quoting=csv.QUOTE_ALL).writerows(rows)
        table = parse_table(out.getvalue(), unit=Unit.HOURS)
        assert list(table._index) == [oracle_fold(n) for n in chunk]
        assert table.candidates == tuple(oracle_normalize(n) for n in chunk)


@pytest.mark.parametrize("raw", ["ıbiza x", "IBIZA X", "Fuencollana", " fuenllana ", "cozar",
                                 "x", "Puerto  Nuevo", "río peña 0007", "Ångström", "ǆemal",
                                 "straße", "ΣΊΣΥΦΟΣ"])
def test_table_keys_are_the_fold_of_the_normalized_name(raw):
    table = DistanceTable(Unit.HOURS, ("a",), [(raw, (1.0,))])
    assert table._index == {fold_name(normalize_name(raw)): 0}
    assert table.candidates == (normalize_name(raw),)


@given(st.text(min_size=1, max_size=8))
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
def test_one_fold_gives_the_key_of_the_normalized_name(raw):
    assert fold_name(raw) == oracle_fold(raw)
    if raw.split():
        assert dataset._named(raw) == (oracle_normalize(raw),
                                        oracle_fold(oracle_normalize(raw)))
