import math
import re

import pytest

from lpmatch.core import (
    DEFAULT_RATES,
    ConversionRates,
    MetricSpec,
    Profile,
    Unit,
    convert,
    fold_name,
    magnitude,
    metric_distance,
)
from lpmatch.errors import InvalidValue

REFS = ("Venta de Cárdenas", "Puerto Lápice", "El Toboso", "Munera")
TARGET_KM = Profile(REFS, (62.0, 73.47, 77.5, 62.0), Unit.KILOMETERS)
ALCUBILLAS_KM = Profile(REFS, (55.88, 66.76, 86.64, 67.08), Unit.KILOMETERS)
VILLANUEVA_KM = Profile(REFS, (66.24, 71.48, 87.04, 61.00), Unit.KILOMETERS)

# Direct-formula oracle value for L3 of Villanueva vs the km target,
# computed ahead of the implementation: (4.24^3+1.99^3+9.54^3+1.00^3)^(1/3).
VILLANUEVA_L3 = 9.842038924521995



def zeroed(profile):
    """The all-zero profile over ``profile``'s references."""
    return Profile(profile.names, (0.0,) * len(profile.values), profile.unit)

class TestUnit:
    def test_parse_accepts_short_and_long_forms(self):
        assert Unit.parse("km") is Unit.KILOMETERS
        assert Unit.parse("kilometers") is Unit.KILOMETERS
        assert Unit.parse(" Hours ") is Unit.HOURS
        assert Unit.parse("jornadas") is Unit.JORNADAS

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidValue):
            Unit.parse("miles")

    def test_short_forms(self):
        assert Unit.KILOMETERS.short == "km"
        assert Unit.HOURS.short == "hours"


class TestFoldName:
    def test_folds_case_space_and_diacritics(self):
        assert fold_name("  Venta  de CÁRDENAS ") == "venta de cardenas"

    def test_idempotent(self):
        once = fold_name("Puebla del Príncipe")
        assert fold_name(once) == once


class TestConversionRates:
    def test_defaults(self):
        assert DEFAULT_RATES.km_per_jornada == 31.0
        assert DEFAULT_RATES.hours_per_jornada == 10.0

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(InvalidValue):
            ConversionRates(km_per_jornada=bad)
        with pytest.raises(InvalidValue):
            ConversionRates(hours_per_jornada=bad)


class TestProfile:
    def test_requires_at_least_one_entry(self):
        with pytest.raises(InvalidValue):
            Profile((), (), Unit.KILOMETERS)

    def test_requires_one_value_per_name(self):
        with pytest.raises(InvalidValue):
            Profile(("a", "b"), (1.0,), Unit.KILOMETERS)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(InvalidValue):
            Profile(("a",), (bad,), Unit.KILOMETERS)

    def test_rejects_blank_and_colliding_names(self):
        with pytest.raises(InvalidValue):
            Profile(("  ",), (1.0,), Unit.KILOMETERS)
        with pytest.raises(InvalidValue):
            Profile(("Cózar", "cozar"), (1.0, 2.0), Unit.KILOMETERS)

    @pytest.mark.parametrize("text", ["2.5", " 3 ", "1e3", "1_0", "1 0", "x", "", "inf", "١٢"])
    def test_text_values_as_str_or_bytes_are_read_alike(self, text):
        def outcome(value):
            try:
                return Profile(("a",), (value,), Unit.KILOMETERS).values
            except InvalidValue:
                return "invalid"

        data = text.encode("utf-8")
        expected = outcome(text)
        assert [outcome(v) for v in (data, bytearray(data), memoryview(data))] == [expected] * 3
        if text in ("1_0", "١٢"):
            assert expected == "invalid"

    @pytest.mark.parametrize("values", ["12", b"12", bytearray(b"12"), memoryview(b"12")],
                             ids=["str", "bytes", "bytearray", "memoryview"])
    def test_text_in_place_of_the_values_is_not_read_as_characters(self, values):
        message = f"^profile distances must be real numbers, got {re.escape(repr(values))}$"
        with pytest.raises(InvalidValue, match=message):
            Profile(("a", "b"), values, Unit.KILOMETERS)

    @pytest.mark.parametrize("names", [("munera", "EL TOBOSO"),
                                       (n for n in ["munera", "EL TOBOSO"])],
                             ids=["tuple", "generator"])
    def test_select_matches_by_folded_name_in_given_order(self, names):
        sub = TARGET_KM.select(names)
        assert sub.names == ("munera", "EL TOBOSO")
        assert sub.values == (62.0, 77.5)

    def test_select_unknown_reference(self):
        with pytest.raises(InvalidValue, match="profile has no reference named 'El Dorado'"):
            TARGET_KM.select(("El Dorado",))


class TestMetricSpec:
    def test_parse(self):
        assert MetricSpec.parse("linf").order is None
        assert MetricSpec.parse("L1").order == 1
        assert MetricSpec.parse("l17").order == 17

    @pytest.mark.parametrize("bad", ["l0", "l-1", "l1.5", "manhattan", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidValue):
            MetricSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["l²", "l1²", "l" + "9" * 5000])
    def test_parse_rejects_what_int_cannot_read(self, bad):
        # '²' passes str.isdigit; 5,000 digits exceed the int-string limit
        with pytest.raises(InvalidValue):
            MetricSpec.parse(bad)

    def test_order_must_be_positive_integer(self):
        with pytest.raises(InvalidValue):
            MetricSpec.ln(0)
        with pytest.raises(InvalidValue):
            MetricSpec(2.5)

    def test_labels(self):
        assert MetricSpec.infinity().label == "L_inf"
        assert MetricSpec.ln(2).column == "d_2"
        assert MetricSpec.infinity().token == "linf"


class TestMetricDistance:
    def test_linf_golden(self):
        d = metric_distance(MetricSpec.infinity(), ALCUBILLAS_KM, TARGET_KM)
        assert d == pytest.approx(9.14, abs=0.005)

    def test_l1_golden(self):
        d = metric_distance(MetricSpec.ln(1), VILLANUEVA_KM, TARGET_KM)
        assert d == pytest.approx(16.77, abs=0.005)

    def test_l2_golden(self):
        d = metric_distance(MetricSpec.ln(2), VILLANUEVA_KM, TARGET_KM)
        assert d == pytest.approx(10.67, abs=0.005)

    def test_l3_matches_direct_formula_oracle(self):
        d = metric_distance(MetricSpec.ln(3), VILLANUEVA_KM, TARGET_KM)
        assert d == pytest.approx(VILLANUEVA_L3, rel=1e-12)

    @pytest.mark.parametrize("spec", [MetricSpec.infinity(), MetricSpec.ln(1),
                                      MetricSpec.ln(2), MetricSpec.ln(7)])
    def test_identity(self, spec):
        assert metric_distance(spec, TARGET_KM, TARGET_KM) == 0.0

    def test_alignment_is_by_name_not_position(self):
        shuffled = Profile(
            ("Munera", "El Toboso", "Venta de Cárdenas", "Puerto Lápice"),
            (67.08, 86.64, 55.88, 66.76),
            Unit.KILOMETERS,
        )
        for spec in (MetricSpec.infinity(), MetricSpec.ln(1), MetricSpec.ln(2)):
            assert metric_distance(spec, shuffled, TARGET_KM) == \
                metric_distance(spec, ALCUBILLAS_KM, TARGET_KM)

    def test_unit_mismatch(self):
        hours = Profile(REFS, (20.0, 23.7, 25.0, 20.0), Unit.HOURS)
        with pytest.raises(InvalidValue,
                           match="cannot compare a kilometers profile with a hours one"):
            metric_distance(MetricSpec.ln(2), TARGET_KM, hours)

    def test_reference_mismatch(self):
        other = Profile(("a", "b", "c", "d"), (1.0, 2.0, 3.0, 4.0), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match="profiles do not cover the same references"):
            metric_distance(MetricSpec.ln(2), TARGET_KM, other)

    def test_large_order_does_not_overflow(self):
        big = Profile(("a", "b"), (1e150, 2e150), Unit.KILOMETERS)
        zero = zeroed(big)
        d = metric_distance(MetricSpec.ln(64), big, zero)
        assert math.isfinite(d)
        assert d >= 2e150

    @pytest.mark.parametrize("order", [2**64, 2**64 + 1, 10**30, int("9" * 400)])
    def test_huge_order_is_the_peak_difference(self, order):
        # every ratio below 1 vanishes and the tie count's root rounds to 1
        x = Profile(("a", "b", "c"), (1.0, 5.0, 2.5), Unit.KILOMETERS)
        y = Profile(("c", "a", "b"), (0.5, 3.0, 1.0), Unit.KILOMETERS)
        assert metric_distance(MetricSpec.ln(order), x, y) == 4.0
        assert magnitude(MetricSpec.ln(order), x) == 5.0

    @pytest.mark.parametrize("spec", [MetricSpec.ln(1), MetricSpec.ln(2), MetricSpec.ln(3)])
    def test_distance_beyond_the_largest_double_is_invalid(self, spec):
        big = Profile(("a", "b"), (1.7e308, 1.7e308), Unit.KILOMETERS)
        with pytest.raises(InvalidValue, match="exceeds the largest double"):
            metric_distance(spec, big, zeroed(big))
        with pytest.raises(InvalidValue, match="exceeds the largest double"):
            magnitude(spec, big)

    def test_linf_of_the_largest_values_is_finite(self):
        big = Profile(("a", "b"), (1.7e308, 1.6e308), Unit.KILOMETERS)
        assert metric_distance(MetricSpec.infinity(), big, zeroed(big)) == 1.7e308


class TestConvert:
    def test_classic_to_km(self):
        jor = Profile(REFS, (2.0, 2.37, 2.5, 2.0), Unit.JORNADAS)
        km = convert(jor, Unit.KILOMETERS)
        assert km.unit is Unit.KILOMETERS
        assert km.values == pytest.approx((62.0, 73.47, 77.5, 62.0), abs=1e-9)

    def test_refined_to_km(self):
        jor = Profile(REFS, (2.0, 2.42, 2.8, 2.23), Unit.JORNADAS)
        km = convert(jor, Unit.KILOMETERS)
        assert km.values == pytest.approx((62.0, 75.02, 86.80, 69.13), abs=1e-9)

    def test_refined_to_hours(self):
        jor = Profile(REFS, (2.0, 2.42, 2.8, 2.23), Unit.JORNADAS)
        hours = convert(jor, Unit.HOURS)
        assert hours.values == pytest.approx((20.0, 24.20, 28.00, 22.30), abs=1e-9)

    def test_jornadas_to_jornadas_is_identity(self):
        jor = Profile(REFS, (2.0, 2.37, 2.5, 2.0), Unit.JORNADAS)
        assert convert(jor, Unit.JORNADAS) is jor

    @pytest.mark.parametrize("unit", [Unit.KILOMETERS, Unit.HOURS])
    def test_rejects_conversion_not_from_jornadas(self, unit):
        p = Profile(("a",), (5.0,), unit)
        for target in Unit:
            with pytest.raises(InvalidValue, match="profiles can only be converted out of "
                                                   f"jornadas, not from {unit.value}"):
                convert(p, target)

    def test_custom_rates(self):
        jor = Profile(("a",), (2.0,), Unit.JORNADAS)
        rates = ConversionRates(km_per_jornada=34.0, hours_per_jornada=8.0)
        assert convert(jor, Unit.KILOMETERS, rates).values == (68.0,)
        assert convert(jor, Unit.HOURS, rates).values == (16.0,)

    def test_zero_profile_converts_to_zero(self):
        zero = Profile(REFS, (0.0, 0.0, 0.0, 0.0), Unit.JORNADAS)
        assert convert(zero, Unit.KILOMETERS).values == (0.0, 0.0, 0.0, 0.0)


class TestMagnitude:
    def test_l1_golden(self):
        assert magnitude(MetricSpec.ln(1), TARGET_KM) == pytest.approx(274.97, abs=1e-9)

    def test_linf_golden(self):
        assert magnitude(MetricSpec.infinity(), TARGET_KM) == 77.5

    @pytest.mark.parametrize("spec", [MetricSpec.infinity(), MetricSpec.ln(1),
                                      MetricSpec.ln(2), MetricSpec.ln(5)])
    def test_zero_profile(self, spec):
        zero = Profile(("a", "b"), (0.0, 0.0), Unit.HOURS)
        assert magnitude(spec, zero) == 0.0
