"""Unit-tagged distance profiles and the Minkowski (Lp) metric family.

A profile is an ordered mapping from reference-point names to non-negative
distances, tagged with the unit the distances are expressed in.  All profile
comparisons align entries by reference name, never by position, so two
profiles listing the same references in different orders are equivalent.

Distances are computed in double precision; rounding happens only at display
time.  Every metric is bit-exact under permutation of the input entries:
L_inf takes a maximum, L1 and the inner sum of Ln use the correctly rounded
``math.fsum``, and L2, whose ``math.dist`` (the ``math.hypot`` of the
differences) may depend on input order, takes the coordinates in ascending
order of their references' folded keys, an order set by the references
alone, which the batch kernel takes from the keys it is given.  That
kernel, ``_norms``, measures whole columns of values against a goal: L2
hands each row and the goal to ``math.dist``; L_inf keeps each row's
running peak of |v - g|, one column at a time, which for finite
differences >= 0 is the same double as ``max`` over the row; only L1 and Ln
build the columns of differences, and Ln scales them by that same peak.
Aligning by name is separate from that reduction, so a ranking aligns its
table with the target once and hands the kernel the table's own columns.
The L2 that breaks a ranking's distance ties goes through the same kernel,
given the columns of the tied rows only; the rankings are unchanged by
that (see ``analysis``).  ``metric_distance`` and ``magnitude`` (against
an all-zero goal) are its one-row case.  A distance that is not a finite
double (finite inputs whose L1, L2 or Ln total exceeds the largest double)
raises InvalidValue.

Every value a public constructor or function is given is converted through
one helper, ``_coerce``: a value of the wrong type (a string, None, a
complex number, a nested tuple) or out of the conversion's range (nan or an
infinite order, an int too large for a double) raises InvalidValue naming
the field, never a bare TypeError or ValueError.  A number given as text is
read by ``_number``, the rule for data files too, which refuses '1_0' and
non-ASCII digits; bytes-like text is read the same way.  Every operand that
is not converted, one of the package's objects, a name or a cell, is checked
on entry by the other helper, ``_check_kind``, whose InvalidValue has the
same shape: "table must be a DistanceTable, got None".  Every such message,
"<requirement>, got <value>", is built by ``_require``, which ``_check_kind``
and each range check call; ``_coerce`` builds it only for a conversion that
fails.  The elements of a container operand are checked one by one, by
``_elements``; a named-tuple result is trusted by kind, its fields unchecked.
An operand handed on unchanged to another public function or checked record
is checked there.

Every list of names a caller gives is read by ``_names``.  Each lookup folds
its whole list to ``fold_name`` keys at once: the names, whitespace collapsed,
are joined by newlines (``_lines``), case-folded and NFKD-decomposed once, and
each distinct combining mark in them is deleted with one ``str.replace``.
"""

from __future__ import annotations

import math
import unicodedata
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import repeat
from operator import mul, truediv

from .errors import InvalidValue

__all__ = [
    "Unit",
    "ConversionRates",
    "DEFAULT_RATES",
    "Profile",
    "MetricSpec",
    "fold_name",
    "metric_distance",
    "convert",
    "magnitude",
]


class Unit(Enum):
    """Measurement unit of a distance profile."""

    JORNADAS = "jornadas"  # one day of travel, the native unit of the targets
    HOURS = "hours"
    KILOMETERS = "kilometers"

    @property
    def short(self) -> str:
        return "km" if self is Unit.KILOMETERS else self.value

    @classmethod
    def parse(cls, token: str) -> "Unit":
        key = _coerce(str.strip, token, "a unit must be a string").lower()
        for unit in cls:
            if key in (unit.value, unit.short):
                return unit
        raise InvalidValue(f"unknown unit {token!r}")


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, or a stand-in where the repr
    itself fails (an int beyond the interpreter's int-to-string limit)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to show>"


def _coerce(convert, value, requirement: str):
    """``convert(value)``, or InvalidValue "<requirement>, got <value>".

    ``requirement`` names the field and what it must be, as in "k must be an
    integer".  Every public constructor and function converts the values it
    is given through here, so a value of the wrong type or out of range of
    the conversion gives a library caller an LpmatchError, never a
    TypeError, ValueError or OverflowError.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidValue(f"{requirement}, got {_shown(value)}") from None


def _require(ok, value, requirement: str) -> None:
    """InvalidValue "<requirement>, got <value>" unless ``ok``.

    ``requirement`` names the field and what it must be, as in "k must be
    >= 1"; it is a constant or an already built string, so a check that
    passes builds no message.
    """
    if not ok:
        raise InvalidValue(f"{requirement}, got {_shown(value)}")


def _check_kind(value, kind, requirement: str) -> None:
    """``_require`` of ``isinstance(value, kind)``, ``kind`` a type or a
    tuple of types.

    ``requirement`` names the operand and its kind, as in "table must be a
    DistanceTable".  This is the one kind rule of the package: an operand of
    the wrong kind gives a library caller an LpmatchError, never the
    AttributeError or TypeError of its first use.
    """
    _require(isinstance(value, kind), value, requirement)


def _number(text: str, comma: bool = False, kind=float):
    """A number given as text, read with ``kind``, ``float`` or ``int``,
    ``comma`` making ',' the decimal point; raises ValueError, as for '1_0'
    or '١٢', unless it is ASCII without ``_``."""
    raw = text.strip()
    if comma:
        raw = raw.replace(",", ".")
    if not raw.isascii() or "_" in raw:
        raise ValueError(raw)
    return kind(raw)


def _real(value: object) -> float:
    """``float(value)``, with text, as str or as bytes-like ASCII, read by
    ``_number``."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        value = str(value, "ascii")  # a non-ASCII byte fails, as in float()
    return _number(value) if isinstance(value, str) else float(value)


def _floats(values: Iterable[float]) -> tuple[float, ...]:
    """The values as floats; one given as text is read by ``_number``.  Text
    in place of the container, which would iterate as its characters or
    byte codes, raises TypeError as a non-iterable does."""
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise TypeError("text is not a container of values")
    return tuple(map(_real, values))


def _elements(values: Iterable, kind, requirement: str, element_requirement: str) -> tuple:
    """``values``, a container operand, as a tuple whose every element is
    checked to be a ``kind``; ``requirement`` is that of the container."""
    values = _coerce(tuple, values, requirement)
    for value in values:
        _check_kind(value, kind, element_requirement)
    return values


def _names(names: Iterable[str], requirement: str) -> tuple[str, ...]:
    """``names`` as a tuple of strings.  A bare string, which would iterate
    as one-letter names, raises InvalidValue as a non-iterable does."""
    _require(not isinstance(names, str), names, requirement)
    return _elements(names, str, requirement, "a name must be a string")


_ASCII = bytes(range(128))

# folded alternate spelling -> folded name: "Fuencollana" is an accepted
# alternate spelling of the locality Fuenllana
_ALIASES = {"fuencollana": "fuenllana"}


def _folded(text: str) -> str:
    """``text`` case-folded, NFKD-decomposed and stripped of combining marks.

    Case folding, NFKD decomposition and the mark strip map each character
    on its own; NFKD's reordering of marks stops at a starter such as
    '\\n', and no character folds to a '\\n'.  So folding names joined by
    '\\n' gives their folds joined by '\\n'.  The strip makes one
    ``str.replace`` per distinct non-ASCII character that it changes, so its
    Python-level cost is paid per distinct character, not per character or
    per name.
    """
    if text.isascii():  # NFKD leaves ASCII as it is, and casefold is lower
        return text.lower()
    text = unicodedata.normalize("NFKD", text.casefold())
    # the distinct characters left once the ASCII bytes of its UTF-8 are
    # deleted; "surrogatepass" carries a lone surrogate through
    for char in set(text.encode("utf-8", "surrogatepass").translate(None, _ASCII)
                    .decode("utf-8", "surrogatepass")):
        # "i" for the dotless ı, as its title case I folds, nothing for a
        # combining mark, the character itself otherwise
        kept = "i" if char == "ı" else "" if unicodedata.combining(char) else char
        if kept != char:
            text = text.replace(char, kept)
    return text


def _lines(names: Iterable[str]) -> str:
    """``names``, whitespace collapsed, joined by '\\n', which none then holds."""
    return "\n".join(map(" ".join, map(str.split, names)))


def _keys(lines: str) -> list[str]:
    """``fold_name`` of each name of ``lines``, from ``_lines``, in one fold."""
    keys = _folded(lines).split("\n")
    return list(map(_ALIASES.get, keys, keys))


def fold_name(name: str) -> str:
    """Comparison key for reference and candidate names.

    Trims, collapses internal whitespace runs, case-folds and strips
    diacritics, so that e.g. ' venta  de cardenas' matches 'Venta de
    Cárdenas'.  The dotless ı folds to i, and the alternate spelling
    'Fuencollana' to 'fuenllana'.  This is the one-name case of ``_keys``,
    which alone decides name equality.
    """
    return _keys(_lines(_names((name,), "a name must be a string")))[0]


class _Checked(tuple):
    """Base of the immutable records whose fields are checked.

    Each such record is a ``collections.namedtuple`` subclass listing this
    class first.  Construction runs the record's ``__post_init__`` exactly
    once, after its ``__new__`` has coerced the fields; ``_make``, and with
    it ``_replace``, goes through the constructor, so no route builds an
    unchecked record.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ConversionRates(_Checked, namedtuple("ConversionRates", "km_per_jornada hours_per_jornada",
                                           defaults=(31.0, 10.0))):
    """Travel-speed constants used to leave the jornada unit."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for label, rate in (("km_per_jornada", self.km_per_jornada),
                            ("hours_per_jornada", self.hours_per_jornada)):
            requirement = f"{label} must be finite and > 0"
            _require(_coerce(math.isfinite, rate, requirement) and rate > 0.0, rate, requirement)


DEFAULT_RATES = ConversionRates()


class Profile(_Checked, namedtuple("Profile", "names values unit")):
    """An ordered, reference-keyed vector of non-negative distances."""

    __slots__ = ()

    def __new__(cls, names: Iterable[str], values: Iterable[float], unit: Unit) -> "Profile":
        values = _coerce(_floats, values, "profile distances must be real numbers")
        # + 0.0 stores a -0.0 as 0.0, so that it never prints as "-0.00"
        return super().__new__(cls, _names(names, "profile names must be strings"),
                               tuple(v + 0.0 for v in values), unit)

    def __post_init__(self) -> None:
        _check_kind(self.unit, Unit, "profile unit must be a Unit")
        if not self.names:
            raise InvalidValue("a profile needs at least one entry")
        if len(self.names) != len(self.values):
            raise InvalidValue("a profile needs exactly one value per reference name")
        for name, value in zip(self.names, self.values):
            if not name.strip():
                raise InvalidValue("blank reference name in profile")
            if not math.isfinite(value) or value < 0.0:
                raise InvalidValue(
                    f"distance for {name!r} must be finite and >= 0, got {value!r}"
                )
        if len(set(_keys(_lines(self.names)))) != len(self.names):
            raise InvalidValue("reference names must be unique after normalization")

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.names, self.values)

    def select(self, names: Sequence[str]) -> "Profile":
        """Profile restricted to ``names`` (matched by folded key), in that order."""
        names = _names(names, "selected references must be an iterable of names")
        keys = _keys(_lines(self.names + names))  # this profile's keys, then the selection's
        by_key = dict(zip(keys, self.values))
        values = tuple(map(by_key.get, keys[len(self.names):]))
        if None in values:
            raise InvalidValue(f"profile has no reference named {names[values.index(None)]!r}")
        return Profile(names, values, self.unit)

    def aligned_values(self, keys: Sequence[str]) -> tuple[float, ...]:
        """Values in the order of the folded reference ``keys``.

        Raises InvalidValue unless the profile covers exactly those
        references.
        """
        keys = _names(keys, "reference keys must be an iterable of names")
        by_key = dict(zip(_keys(_lines(self.names)), self.values))
        if len(keys) != len(by_key) or not all(k in by_key for k in keys):
            odd = sorted(set(keys) ^ set(by_key))
            raise InvalidValue(
                "profiles do not cover the same references (unmatched: " + ", ".join(odd) + ")"
            )
        return tuple(by_key[k] for k in keys)


class MetricSpec(_Checked, namedtuple("MetricSpec", "order", defaults=(None,))):
    """Selects a member of the Lp family.

    ``order=None`` selects the maximum (L-infinity) metric; an integer
    ``order=n >= 1`` selects Ln.  L-infinity is an exact variant, not an
    approximation by a large n.
    """

    __slots__ = ()

    def __new__(cls, order: int | None = None) -> "MetricSpec":
        self = super().__new__(cls, order)  # checks the order as given
        if order is None or type(order) is int:
            return self
        return tuple.__new__(cls, (int(order),))  # an integral float, bool, ...

    def __post_init__(self) -> None:
        if self.order is not None:
            requirement = "metric order must be an integer >= 1"
            order = _coerce(int, self.order, requirement)
            _require(order == self.order and order >= 1, self.order, requirement)

    @classmethod
    def infinity(cls) -> "MetricSpec":
        return cls(None)

    @classmethod
    def ln(cls, n: int) -> "MetricSpec":
        return cls(n)

    @classmethod
    def parse(cls, token: str) -> "MetricSpec":
        """Accepts 'linf' (or 'l∞') and 'l<n>' for integer n >= 1.

        Raises InvalidValue for any other token.
        """
        key = _coerce(str.strip, token, "a metric must be a string").lower()
        if key in ("linf", "l∞", "linfinity"):
            return cls.infinity()
        digits = key[1:]
        # ASCII, as ``_number`` reads numbers; isdigit also admits '²'
        if key.startswith("l") and digits.isascii() and digits.isdecimal():
            try:
                order = int(digits)
            except ValueError:  # more digits than the interpreter's int-string limit
                raise InvalidValue(
                    f"metric order has too many digits ({len(digits)})"
                ) from None
            if order >= 1:
                return cls.ln(order)
        raise InvalidValue(f"unknown metric {token!r}")

    @property
    def token(self) -> str:
        return "linf" if self.order is None else f"l{self.order}"

    @property
    def label(self) -> str:
        return "L_inf" if self.order is None else f"L_{self.order}"

    @property
    def column(self) -> str:
        """Header label for a distance column under this metric."""
        return "d_inf" if self.order is None else f"d_{self.order}"


# Above this order every ratio d/peak < 1 raised to the order underflows to
# 0.0 and the count of tied peaks raised to 1/order rounds to 1.0, so Ln
# evaluated at this order is the same double as at any larger exact order.
_HUGE_ORDER = 2**64


# Stands in for a zero peak as a divisor: it is at most any positive double,
# so it leaves every other row's peak unchanged.
_TINY = 5e-324


def _norms(spec: MetricSpec, columns: Sequence[Sequence[float]], goal: Sequence[float],
           keys: Sequence[str]) -> list[float]:
    """Lp distance of each row of ``columns`` to ``goal``.

    ``columns`` holds one equal-length sequence of finite values >= 0 per
    reference, and ``goal`` and ``keys`` each reference's goal value and
    folded key, in the same order.  L2 alone puts the references in
    ascending key order and hands each row and the goal to ``math.dist`` in
    that order, set by the references alone; the other norms reduce the
    columns as given and do not depend on their order.  L_inf keeps each
    row's running peak of |v - g| one column at a time; only L1 and Ln
    build the |v - g| columns, and those stay local to the call.  Whole
    columns are reduced with C-level builtins or one comprehension per
    column, so no Python function is called per row.  Raises InvalidValue
    when a distance is not a finite double.
    """
    n = spec.order
    if n is None:
        # a comprehension's float comparison, which CPython 3.11 specializes,
        # is cheaper than a max() call per row; ties keep the earlier value,
        # as max does, and differences are never nan.  ``for d in [x]`` is
        # compiled as an assignment
        g = goal[0]
        peaks = [abs(v - g) for v in columns[0]]
        for column, g in zip(columns[1:], goal[1:]):
            peaks = [p if p >= d else d for p, v in zip(peaks, column) for d in [abs(v - g)]]
        return peaks
    try:
        if n == 2:
            # the keys are unique, so sorting compares no column; dist takes
            # fabs(v - g) of each coordinate, as abs does, and reduces them
            # as hypot does
            _, columns, goal = zip(*sorted(zip(keys, columns, goal)))
            norms = list(map(math.dist, zip(*columns), repeat(goal)))
        else:
            diffs = [[abs(v - g) for v in column] for column, g in zip(columns, goal)]
            if n == 1:
                norms = list(map(math.fsum, zip(*diffs)))  # fsum does not depend on order
            else:
                # each row's largest difference, one column at a time, as for L_inf
                peaks = diffs[0]
                for column in diffs[1:]:
                    peaks = [p if p >= d else d for p, d in zip(peaks, column)]
                n = min(n, _HUGE_ORDER)
                # an all-zero row has ratios 0.0 and norm 0.0 * 0.0 == 0.0
                divisors = list(map(max, peaks, repeat(_TINY))) if 0.0 in peaks else peaks
                exponent = float(n)  # what d ** n converts n to
                powers = (map(pow, map(truediv, column, divisors), repeat(exponent))
                          for column in diffs)
                sums = map(math.fsum, zip(*powers))
                norms = list(map(mul, peaks, map(pow, sums, repeat(1.0 / n))))
    except OverflowError:  # an L1 total beyond the largest double
        norms = [math.inf]
    if math.inf in norms:
        raise InvalidValue(f"the {spec.token} distance exceeds the largest double")
    return norms


def _norm(spec: MetricSpec, row: Sequence[float], goal: Sequence[float],
          keys: Sequence[str]) -> float:
    """Lp distance of one row of values to ``goal``, one value of each per
    folded key of ``keys`` in the same order (see ``_norms``)."""
    return _norms(spec, [(v,) for v in row], goal, keys)[0]


def metric_distance(spec: MetricSpec, x: Profile, y: Profile) -> float:
    """Lp (or L-infinity) distance between two profiles.

    Entries are aligned by folded reference name, so entry order never
    matters.  Ln for n >= 3 is evaluated as ``M * (sum((d/M)**n))**(1/n)``
    with M the largest difference, which cannot overflow for large n.
    Raises InvalidValue when the distance is not a finite double.
    """
    _check_kind(spec, MetricSpec, "spec must be a MetricSpec")
    _check_kind(x, Profile, "x must be a Profile")
    _check_kind(y, Profile, "y must be a Profile")
    if x.unit is not y.unit:
        raise InvalidValue(f"cannot compare a {x.unit.value} profile with a {y.unit.value} one")
    keys = _keys(_lines(x.names))
    return _norm(spec, x.values, y.aligned_values(keys), keys)


def convert(p: Profile, target: Unit, rates: ConversionRates = DEFAULT_RATES) -> Profile:
    """Convert a jornada profile entrywise to kilometers or hours.

    Only conversion out of jornadas is supported: kilometers and hours are
    measurements of different quantities and are never converted into each
    other.  ``target=Unit.JORNADAS`` returns ``p`` unchanged.  Raises
    InvalidValue where a converted value exceeds the largest double.
    """
    _check_kind(p, Profile, "p must be a Profile")
    _check_kind(target, Unit, "target must be a Unit")
    _check_kind(rates, ConversionRates, "rates must be a ConversionRates")
    if p.unit is not Unit.JORNADAS:
        raise InvalidValue(
            f"profiles can only be converted out of jornadas, not from {p.unit.value}"
        )
    if target is Unit.JORNADAS:
        return p
    rate = rates.km_per_jornada if target is Unit.KILOMETERS else rates.hours_per_jornada
    values = tuple(v * rate for v in p.values)
    if math.inf in values:  # a finite value times a finite rate
        i = values.index(math.inf)
        raise InvalidValue(
            f"distance for {p.names[i]!r} exceeds the largest double in {target.value} "
            f"({p.values[i]!r} jornadas at {float(rate)!r} per jornada)"
        )
    return Profile(p.names, values, target)


def magnitude(spec: MetricSpec, p: Profile) -> float:
    """Distance from ``p`` to the all-zero profile over the same references."""
    _check_kind(spec, MetricSpec, "spec must be a MetricSpec")
    _check_kind(p, Profile, "p must be a Profile")
    return _norm(spec, p.values, (0.0,) * len(p.values), _keys(_lines(p.names)))
