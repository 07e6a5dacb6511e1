import csv
import decimal
import hashlib
import io
import json
import math
import random
import struct
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch import paper
from lpmatch.analysis import CLASSIC_SOLUTION, REFINED_SOLUTION, rank_candidates, target_profile
from lpmatch.core import MetricSpec, Unit
from lpmatch.dataset import REFERENCES, builtin_table, subset_references
from lpmatch.errors import InvalidValue
from lpmatch.paper import (
    build_error_table,
    build_gap_table,
    build_summary_table,
    run_builtin_grid,
    summarize_conclusions,
    write_document_set,
)
from lpmatch.report import TARGET_LABEL, RenderedTable, build_ranking_table, format_2dp


# two decimals of the largest finite double take 311 significant digits
DECIMAL_ORACLE = decimal.Context(prec=320, rounding=ROUND_HALF_UP)


def decimal_2dp(value: float) -> str:
    """The text format_2dp gives, computed with the decimal module."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), context=DECIMAL_ORACLE))


PARITY_VALUES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 2.675,
                 1.005, -0.001, 0.005, 9.995, -999.995, 1e16, 1e22, 1.5e-07, 0.995, -0.995,
                 99.999, 1e-4, 9.999999999999998e15, 1.2345678901234567e16, 123456789012345.67]


class TestFormat2dp:
    @pytest.mark.parametrize("value", PARITY_VALUES)
    def test_matches_decimal_rounding_on_edge_values(self, value):
        assert format_2dp(value) == decimal_2dp(value)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    def test_matches_decimal_rounding_on_finite_floats(self, value):
        assert format_2dp(value) == decimal_2dp(value)

    def test_matches_decimal_rounding_on_random_bit_patterns(self):
        rng = random.Random(2008)
        values = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
                  for _ in range(20000)]
        finite = [v for v in values if math.isfinite(v)]
        assert len(finite) > 19000
        assert [format_2dp(v) for v in finite] == [decimal_2dp(v) for v in finite]

    def test_matches_decimal_rounding_on_three_decimal_ties(self):
        # n / 1000 for n an odd multiple of 5 has a third decimal of 5 in its
        # repr, a tie or just beside one; 0.995 -> 1.00 and the other carries
        # into the whole part are among them
        values = [sign * n / 1000 for n in range(5, 200000, 10) for sign in (1, -1)]
        assert [format_2dp(v) for v in values] == [decimal_2dp(v) for v in values]

    @pytest.mark.parametrize(
        "value,expected",
        [
            (9.14, "9.14"),
            (9.145, "9.15"),       # ties away from zero
            (2.675, "2.68"),
            (-2.675, "-2.68"),
            (1.0, "1.00"),
            (0.0, "0.00"),
            (77.5, "77.50"),
            (10.675, "10.68"),
        ],
    )
    def test_rounding(self, value, expected):
        assert format_2dp(value) == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "inf", "nan", None, "x",
                                       "1_0", 1j, (1.0,), b"inf", 10**400])
    def test_a_non_finite_or_non_real_value_is_invalid(self, value):
        with pytest.raises(InvalidValue, match="^a value to format must be") as caught:
            format_2dp(value)
        assert str(caught.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("value, text", [("2.675", "2.68"), (b" 1.005 ", "1.01"),
                                             (True, "1.00"), (-0.0, "-0.00"), (7, "7.00")])
    def test_real_values_and_their_text_are_formatted(self, value, text):
        assert format_2dp(value) == text

    @pytest.mark.parametrize("value", [1e26, -3.5e30, 1.7e308, -1.7976931348623157e308])
    def test_large_finite_values_print_every_integer_digit(self, value):
        text = format_2dp(value)
        assert text.endswith(".00")
        assert Decimal(text) == Decimal(repr(value))

    @pytest.mark.parametrize("fmt", ["md", "csv", "jsonl"])
    def test_the_callers_decimal_context_changes_nothing(self, tmp_path, fmt):
        digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                             .read_text(encoding="utf-8"))["reproduce"][fmt]
        with decimal.localcontext() as hostile:
            hostile.traps[decimal.Inexact] = True
            hostile.traps[decimal.Rounded] = True
            hostile.Emax = 20
            hostile.prec = 5
            assert format_2dp(9.145) == "9.15"
            assert format_2dp(1e26) == "100000000000000000000000000.00"
            written = write_document_set(tmp_path, fmt)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written} == digests


class TestRenderedTable:
    def test_rows_must_match_header(self):
        with pytest.raises(InvalidValue):
            RenderedTable("t", ("a", "b"), (("only",),))

    def test_unknown_format(self):
        with pytest.raises(InvalidValue, match=r"^unknown format 'xml'$"):
            RenderedTable("t", ("a",), ()).text("xml")

    def test_markdown_layout(self):
        table = RenderedTable("Title", ("a", "b"), (("1", "2"),))
        lines = table.text("md").splitlines()
        assert table.text() == table.text("md")
        assert lines[0] == "# Title"
        assert lines[2] == "| a | b |"
        assert lines[4] == "| 1 | 2 |"

    def test_csv_layout(self):
        table = RenderedTable("Title", ("a", "b"), (("x", "1.50"),))
        rows = list(csv.reader(io.StringIO(table.text("csv"))))
        assert rows == [["a", "b"], ["x", "1.50"]]

    def test_jsonl_records(self):
        table = RenderedTable("Title", ("name", "value"), (("x", "1.50"),))
        meta, record = [json.loads(line) for line in table.text("jsonl").splitlines()]
        assert meta == {"title": "Title", "columns": ["name", "value"]}
        assert record == {"name": "x", "value": 1.5}

    @pytest.mark.parametrize("cell, value", [
        ("12", 12.0), ("-1.50", -1.5), ("0.00", 0.0), ("007", 7.0),
        ("nan", "nan"), ("-Infinity", "-Infinity"), ("1e5", "1e5"), ("1_0", "1_0"),
        (" 1", " 1"), ("1.", "1."), (".5", ".5"), ("+1", "+1"), ("\u0661", "\u0661"),
    ])
    def test_jsonl_numbers_only_for_plain_decimal_literals(self, cell, value):
        table = RenderedTable("Title", ("cell",), ((cell,),))
        record = json.loads(table.text("jsonl").splitlines()[1])
        assert record == {"cell": value}
        assert type(record["cell"]) is type(value)


@pytest.fixture(scope="module")
def grid():
    return run_builtin_grid()


class TestRankingTable:
    def test_target_row_comes_first(self):
        km = builtin_table("km")
        target = target_profile(CLASSIC_SOLUTION, Unit.KILOMETERS)
        metric = MetricSpec.infinity()
        doc = build_ranking_table(km, target, rank_candidates(km, target, metric), metric,
                                  title="T")
        assert doc.rows[0][0] == TARGET_LABEL
        assert doc.rows[0][-1] == "0.00"
        assert doc.rows[1][0] == "Alcubillas"
        assert doc.rows[1][-1] == "9.14"
        assert len(doc.rows) == 6  # target + top five

    def test_refined_hours_three_refs_golden_order(self):
        table = subset_references(builtin_table("hours"), REFERENCES[:3])
        target = target_profile(REFINED_SOLUTION, Unit.HOURS, REFERENCES[:3])
        metric = MetricSpec.infinity()
        doc = build_ranking_table(table, target, rank_candidates(table, target, metric), metric,
                                  title="T")
        names = [row[0] for row in doc.rows[1:]]
        distances = [row[-1] for row in doc.rows[1:]]
        assert names == ["Villanueva de los Infantes", "Alcubillas",
                         "Torres de Montiel", "Cózar", "Fuenllana"]
        assert distances == ["1.37", "2.66", "2.86", "2.88", "3.08"]

    def test_target_with_a_reference_the_table_lacks_is_refused(self):
        table = subset_references(builtin_table("km"), REFERENCES[:3])
        target = target_profile(CLASSIC_SOLUTION, Unit.KILOMETERS)  # all four references
        metric = MetricSpec.ln(2)
        ranking = rank_candidates(builtin_table("km"), target, metric)
        with pytest.raises(InvalidValue, match=r"\(unmatched: munera\)$"):
            build_ranking_table(table, target, ranking, metric, title="T")

    def test_k1_renders_two_rows(self):
        km = builtin_table("km")
        target = target_profile(CLASSIC_SOLUTION, Unit.KILOMETERS)
        metric = MetricSpec.ln(2)
        doc = build_ranking_table(km, target, rank_candidates(km, target, metric), metric, k=1,
                                  title="T")
        assert len(doc.rows) == 2

    def test_csv_round_trip_within_rounding(self):
        km = builtin_table("km")
        target = target_profile(CLASSIC_SOLUTION, Unit.KILOMETERS)
        metric = MetricSpec.ln(1)
        doc = build_ranking_table(
            km, target, rank_candidates(km, target, metric), metric, title="T"
        )
        rows = list(csv.reader(io.StringIO(doc.text("csv"))))
        parsed = {row[0]: [float(cell) for cell in row[1:]] for row in rows[1:]}
        for name, values in parsed.items():
            if name == TARGET_LABEL:
                continue
            for got, want in zip(values, km.row_values(name)):
                assert abs(got - want) <= 0.005


class TestErrorTable:
    def test_external_rows_come_first_verbatim(self, grid):
        doc = build_error_table(grid)
        assert doc.rows[0][:3] == ("[7]", "Alcubillas", "8.30")
        assert doc.rows[0][5:] == ("", "")  # only two localities for this source
        assert doc.rows[1][0] == "[3] con L_inf"
        assert doc.rows[2][:1] == ("[3] con L_1",)

    def test_has_4_external_plus_24_computed_rows(self, grid):
        doc = build_error_table(grid)
        assert len(doc.rows) == 28

    def test_refined_hours_3ref_l1_golden(self, grid):
        doc = build_error_table(grid)
        row = next(r for r in doc.rows if r[0] == "refined hours 3-ref L_1")
        assert row[1] == "Villanueva de los Infantes"
        assert float(row[2]) == pytest.approx(3.59, abs=0.02)
        assert row[3] == "Fuenllana"
        assert float(row[4]) == pytest.approx(4.94, abs=0.02)
        assert row[5] == "Alcubillas"
        assert float(row[6]) == pytest.approx(6.48, abs=0.02)


class TestGapTable:
    def test_external_gap_rows(self, grid):
        doc = build_gap_table(grid)
        assert doc.rows[0] == ("[7]", "2.08", "")
        by_label = {row[0]: row for row in doc.rows}
        assert by_label["[3] con L_1"][1] == "2.37"
        assert by_label["[3] con L_1"][2] == "1.10"

    def test_classic_hours_3ref_mean_golden(self, grid):
        doc = build_gap_table(grid)
        row = next(r for r in doc.rows if r[0] == "classic hours 3-ref L_1")
        assert float(row[2]) == pytest.approx(1.79, abs=0.02)

    def test_28_rows(self, grid):
        # 4 external + 8 families x 3 metrics
        assert len(build_gap_table(grid).rows) == 28


class TestSummaryTable:
    def test_contains_headline_facts(self, grid):
        doc = build_summary_table(summarize_conclusions(grid))
        facts = dict(doc.rows)
        assert facts["top candidate: classic km 3-ref L_1"] == "Carrizosa"
        assert facts["family with the largest mean gap"] == "refined km 3-ref"
        assert facts["family with the smallest mean gap"] == "refined hours 4-ref"
        assert facts["family with the smallest relative errors"].startswith("refined")
        assert facts["km and hours runs agree on every top-5 name set"] == "yes"

    def test_lists_the_pairs_whose_units_disagree(self, grid):
        summary = summarize_conclusions(grid)._replace(
            unit_pairs_agree=False, disagreeing_pairs=(("classic", 4, "l1"),))
        assert build_summary_table(summary).rows[-2:] == (
            ("km and hours runs agree on every top-5 name set", "no"),
            ("top-5 name sets differ between units", "classic 4-ref l1"),
        )


EXPECTED_FILES = (
    ["table_01", "table_05"]
    + [f"table_{n:02d}" for n in range(2, 27) if n != 5]
    + ["table_27", "table_28", "summary"]
)


class TestWriteDocumentSet:
    def test_writes_the_full_set(self, tmp_path):
        written = write_document_set(tmp_path / "docs")
        names = sorted(p.name for p in written)
        assert names == sorted(f"{stem}.md" for stem in EXPECTED_FILES)

    def test_byte_stable_across_runs(self, tmp_path):
        first = write_document_set(tmp_path / "a")
        second = write_document_set(tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_other_formats(self, tmp_path, fmt):
        written = write_document_set(tmp_path / fmt, fmt=fmt)
        assert len(written) == len(EXPECTED_FILES)
        assert all(p.suffix == f".{fmt}" for p in written)
        if fmt == "jsonl":
            for path in written:
                for line in path.read_text(encoding="utf-8").splitlines():
                    json.loads(line)

    def test_table_24_golden_content(self, tmp_path):
        write_document_set(tmp_path / "docs")
        text = (tmp_path / "docs" / "table_24.md").read_text(encoding="utf-8")
        lines = [l for l in text.splitlines() if l.startswith("|")]
        # header, separator, target row, then the five closest
        assert "Villanueva de los Infantes" in lines[3]
        assert "1.37" in lines[3]
        assert "Fuenllana" in lines[7]

    def test_no_environment_data_embedded(self, tmp_path):
        import re

        for path in write_document_set(tmp_path / "docs"):
            text = path.read_text(encoding="utf-8")
            assert str(tmp_path) not in text
            assert not re.search(r"\b20\d\d-\d\d-\d\d\b", text)  # no dates

    def test_rejects_unknown_format(self, tmp_path):
        outdir = tmp_path / "docs"
        with pytest.raises(InvalidValue, match=r"^unknown format 'pdf'$"):
            write_document_set(outdir, fmt="pdf")
        assert not outdir.exists()

    def test_partial_grid_is_refused_without_asserts(self, tmp_path, monkeypatch):
        # a real check, which python -O keeps
        partial = dict(list(run_builtin_grid().items())[:21])
        monkeypatch.setattr(paper, "run_builtin_grid", lambda rates: partial)
        with pytest.raises(InvalidValue, match="24 configurations"):
            write_document_set(tmp_path)
