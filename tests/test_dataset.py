import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.core import Unit
from lpmatch.dataset import (
    REFERENCES,
    DistanceTable,
    builtin_table,
    normalize_name,
    parse_table,
    serialize_table,
    subset_references,
)
from lpmatch.errors import (
    DuplicateCandidate,
    EmptyInput,
    EmptyName,
    EmptySelection,
    InvalidValue,
    ParseError,
    ReferenceNotFound,
)


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
        row = builtin_table("km").row("Carrizosa")
        assert row.unit is Unit.KILOMETERS
        assert row.names == REFERENCES
        assert row.values == (70.44, 72.28, 77.20, 52.52)

    def test_unknown_candidate(self):
        with pytest.raises(KeyError):
            builtin_table("km").row("El Dorado")


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
        with pytest.raises(EmptyName):
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

    @pytest.mark.parametrize("text", ["", "   \n  \n", "name;a;b\n"])
    def test_empty_input(self, text):
        with pytest.raises(EmptyInput):
            parse_table(text, unit=Unit.KILOMETERS)

    def test_duplicate_candidate_after_normalization(self):
        text = "name;a\nFuenllana;1,0\nFuencollana;2,0\n"
        with pytest.raises(DuplicateCandidate):
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


class TestSerializeRoundTrip:
    def test_builtin_km_round_trips_exactly(self):
        km = builtin_table("km")
        assert parse_table(serialize_table(km), unit=Unit.KILOMETERS) == km

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
        with pytest.raises(ReferenceNotFound):
            subset_references(builtin_table("km"), ["El Dorado"])

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            subset_references(builtin_table("km"), [])

    def test_original_table_unchanged(self):
        km = builtin_table("km")
        subset_references(km, REFERENCES[:2])
        assert km.references == REFERENCES

    def test_commutes_with_row_access(self):
        km = builtin_table("km")
        sub = subset_references(km, ("Puerto Lápice", "Munera"))
        for name in km.candidates:
            full = km.row(name).as_dict()
            assert sub.row_values(name) == (full["Puerto Lápice"], full["Munera"])

    def test_alias_lookups_still_work(self):
        sub = subset_references(builtin_table("km"), ("el toboso", "VENTA DE CARDENAS"))
        assert sub.row_values("Fuencollana") == sub.row_values("fuenllana") == (71.56, 87.00)
        assert sub.row(" FUENCOLLANA ").names == ("Venta de Cárdenas", "El Toboso")
        with pytest.raises(KeyError):
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


class TestDistanceTableValidation:
    def test_wrong_arity(self):
        with pytest.raises(InvalidValue):
            DistanceTable(Unit.KILOMETERS, ("a", "b"), [("X", (1.0,))])

    def test_duplicate_reference(self):
        with pytest.raises(InvalidValue):
            DistanceTable(Unit.KILOMETERS, ("a", "A "), [("X", (1.0, 2.0))])

    def test_no_rows(self):
        with pytest.raises(EmptyInput):
            DistanceTable(Unit.KILOMETERS, ("a",), [])

    def test_duplicate_candidate(self):
        with pytest.raises(DuplicateCandidate):
            DistanceTable(Unit.KILOMETERS, ("a",), [("X", (1.0,)), (" x ", (2.0,))])


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
        assert sub.row(name) == fresh.row(name)
