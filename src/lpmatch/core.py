"""Unit-tagged distance profiles and the Minkowski (Lp) metric family.

A profile is an ordered mapping from reference-point names to non-negative
distances, tagged with the unit the distances are expressed in.  All profile
comparisons align entries by reference name, never by position, so two
profiles listing the same references in different orders are equivalent.

Distances are computed in double precision; rounding happens only at display
time.  Every metric is bit-exact under permutation of the input entries:
L_inf takes a maximum, L1 and the inner sum of Ln use the correctly rounded
``math.fsum``, and L2, whose ``math.hypot`` depends on input order, reduces
each row's differences in canonical (descending) order.  Aligning by name is
separate from that reduction, so a ranking aligns its table with the target
once and reduces whole columns of differences at a time.  The L2 that breaks
a ranking's distance ties goes through the same batch reducer, given the
columns of the tied rows only; the rankings are unchanged by that (see
``analysis``).  A distance that is not a finite double (finite inputs whose
L1, L2 or Ln total exceeds the largest double) raises InvalidValue.

Every value a public constructor or function is given is converted through
one helper, ``_coerce``: a value of the wrong type (a string, None, a
complex number, a nested tuple) or out of the conversion's range (nan or an
infinite order, an int too large for a double) raises InvalidValue naming
the field, never a bare TypeError or ValueError.  A number given as text is
read by ``_number``, the rule for data files too, which refuses '1_0' and
non-ASCII digits; bytes-like text is read the same way.

Names are matched by one key, ``fold_name``.  A parsed table folds its whole
name column in one pass (``_fold_names``): the names, whitespace collapsed,
are joined by newlines, case-folded and NFKD-decomposed once, and each
distinct combining mark in them is deleted with one ``str.replace``.
"""

from __future__ import annotations

import math
import unicodedata
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from functools import lru_cache
from itertools import repeat, starmap
from operator import mul, neg, truediv

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


def _number(text: str, comma: bool = False) -> float:
    """A number given as text, read with ``float``, ``comma`` making ',' the
    decimal point; raises ValueError, as for '1_0' or '١٢', unless it is ASCII
    without ``_``."""
    raw = text.strip()
    if comma:
        raw = raw.replace(",", ".")
    if not raw.isascii() or "_" in raw:
        raise ValueError(raw)
    return float(raw)


def _real(value: object) -> float:
    """``float(value)``, with text, as str or as bytes-like ASCII, read by
    ``_number``."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        value = str(value, "ascii")  # a non-ASCII byte fails, as in float()
    return _number(value) if isinstance(value, str) else float(value)


def _floats(values: Iterable[float]) -> tuple[float, ...]:
    """The values as floats; one given as text is read by ``_number``."""
    return tuple(map(_real, values))


def _strings(values: Iterable[object]) -> tuple[str, ...]:
    return tuple(map(str, values))


def _names(names: Iterable[str], requirement: str) -> tuple:
    """``names`` as a tuple, through ``_coerce``; a bare string, which would
    iterate as one-letter names, raises InvalidValue as a non-iterable does."""
    if isinstance(names, str):
        raise InvalidValue(f"{requirement}, got {_shown(names)}")
    return _coerce(tuple, names, requirement)


@lru_cache(maxsize=4096)
def _unmarked(char: str) -> str:
    """What a non-ASCII character of a folded key becomes: "i" for the
    dotless ı, as its title case I folds, nothing for a combining mark, the
    character itself otherwise."""
    if char == "ı":
        return "i"
    return "" if unicodedata.combining(char) else char


_ASCII = frozenset(map(chr, range(128)))

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
    for char in set(text) - _ASCII:
        kept = _unmarked(char)
        if kept != char:
            text = text.replace(char, kept)
    return text


def fold_name(name: str) -> str:
    """Comparison key for reference and candidate names.

    Trims, collapses internal whitespace runs, case-folds and strips
    diacritics, so that e.g. ' venta  de cardenas' matches 'Venta de
    Cárdenas'.  The dotless ı folds to i, and the alternate spelling
    'Fuencollana' to 'fuenllana'.  No other code decides name equality:
    ``_fold_names`` folds a column of names by this same rule.
    """
    key = _folded(" ".join(_coerce(str.split, name, "a name must be a string")))
    return _ALIASES.get(key, key)


def _fold_names(collapsed: Sequence[str]) -> list[str]:
    """``fold_name`` of each of ``collapsed``, one or more names whose
    whitespace is already collapsed, from one fold of the names joined by
    '\\n'."""
    keys = _folded("\n".join(collapsed)).split("\n")
    return list(map(_ALIASES.get, keys, keys))


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
            if not _coerce(math.isfinite, rate, requirement) or rate <= 0.0:
                raise InvalidValue(f"{requirement}, got {_shown(rate)}")


DEFAULT_RATES = ConversionRates()


class Profile(_Checked, namedtuple("Profile", "names values unit")):
    """An ordered, reference-keyed vector of non-negative distances."""

    __slots__ = ()

    def __new__(cls, names: Iterable[str], values: Iterable[float], unit: Unit) -> "Profile":
        return super().__new__(
            cls,
            _coerce(_strings, names, "profile names must be strings"),
            _coerce(_floats, values, "profile distances must be real numbers"),
            unit,
        )

    def __post_init__(self) -> None:
        if not isinstance(self.unit, Unit):
            raise InvalidValue(f"profile unit must be a Unit, got {_shown(self.unit)}")
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
        keys = {fold_name(n) for n in self.names}
        if len(keys) != len(self.names):
            raise InvalidValue("reference names must be unique after normalization")

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.names, self.values)

    def select(self, names: Sequence[str]) -> "Profile":
        """Profile restricted to ``names`` (matched by folded key), in that order."""
        names = _names(names, "selected references must be an iterable of names")
        by_key = {fold_name(n): v for n, v in self.items()}
        values = []
        for name in names:
            key = fold_name(name)
            if key not in by_key:
                raise InvalidValue(f"profile has no reference named {name!r}")
            values.append(by_key[key])
        return Profile(names, tuple(values), self.unit)

    def aligned_values(self, keys: Sequence[str]) -> tuple[float, ...]:
        """Values in the order of the folded reference ``keys``.

        Raises InvalidValue unless the profile covers exactly those
        references.
        """
        by_key = {fold_name(n): v for n, v in self.items()}
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
            if order != self.order or order < 1:
                raise InvalidValue(f"{requirement}, got {_shown(self.order)}")

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
        if key.startswith("l") and digits.isdecimal():  # isdigit also admits '²'
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


def _norms(spec: MetricSpec, columns: Sequence[Sequence[float]]) -> list[float]:
    """Lp norm of each row of ``columns``.

    ``columns`` holds one equal-length sequence of non-negative differences
    per reference.  Whole columns are reduced with C-level builtins, so the
    interpreter's cost is paid per column, not per row.  Raises InvalidValue
    when a norm is not a finite double.
    """
    n = spec.order
    if n is None or n > 2:
        peaks = list(map(max, *columns)) if len(columns) > 1 else list(columns[0])
        if n is None:
            return peaks
    try:
        if n == 1:
            norms = list(map(math.fsum, zip(*columns)))  # fsum needs no canonical order
        elif n == 2:
            # hypot depends on input order and ignores signs: sorting the
            # negated differences ascending puts each row in descending order
            rows = zip(*(map(neg, column) for column in columns))
            norms = list(starmap(math.hypot, map(sorted, rows)))
        else:
            n = min(n, _HUGE_ORDER)
            # an all-zero row has ratios 0.0 and norm 0.0 * 0.0 == 0.0
            divisors = list(map(max, peaks, repeat(_TINY))) if 0.0 in peaks else peaks
            exponent = float(n)  # what d ** n converts n to
            powers = (map(pow, map(truediv, column, divisors), repeat(exponent))
                      for column in columns)
            sums = map(math.fsum, zip(*powers))
            norms = list(map(mul, peaks, map(pow, sums, repeat(1.0 / n))))
    except OverflowError:  # an L1 total beyond the largest double
        norms = [math.inf]
    if math.inf in norms:
        raise InvalidValue(f"the {spec.token} distance exceeds the largest double")
    return norms


def _norm(spec: MetricSpec, diffs: Iterable[float]) -> float:
    """Lp norm of one row of non-negative differences (see ``_norms``)."""
    return _norms(spec, [(d,) for d in diffs])[0]


def metric_distance(spec: MetricSpec, x: Profile, y: Profile) -> float:
    """Lp (or L-infinity) distance between two profiles.

    Entries are aligned by folded reference name, so entry order never
    matters.  Ln for n >= 3 is evaluated as ``M * (sum((d/M)**n))**(1/n)``
    with M the largest difference, which cannot overflow for large n.
    Raises InvalidValue when the distance is not a finite double.
    """
    if x.unit is not y.unit:
        raise InvalidValue(f"cannot compare a {x.unit.value} profile with a {y.unit.value} one")
    theirs = y.aligned_values(tuple(fold_name(n) for n in x.names))
    return _norm(spec, (abs(a - b) for a, b in zip(x.values, theirs)))


def convert(p: Profile, target: Unit, rates: ConversionRates = DEFAULT_RATES) -> Profile:
    """Convert a jornada profile entrywise to kilometers or hours.

    Only conversion out of jornadas is supported: kilometers and hours are
    measurements of different quantities and are never converted into each
    other.  ``target=Unit.JORNADAS`` returns ``p`` unchanged.
    """
    if p.unit is not Unit.JORNADAS:
        raise InvalidValue(
            f"profiles can only be converted out of jornadas, not from {p.unit.value}"
        )
    if target is Unit.JORNADAS:
        return p
    rate = rates.km_per_jornada if target is Unit.KILOMETERS else rates.hours_per_jornada
    return Profile(p.names, tuple(v * rate for v in p.values), target)


def magnitude(spec: MetricSpec, p: Profile) -> float:
    """Distance from ``p`` to the all-zero profile over the same references."""
    return _norm(spec, map(abs, p.values))
