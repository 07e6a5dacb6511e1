"""Reference answers for the benchmark's correctness checks.

Shares no code with lpmatch.  Distances are recomputed from the generated
numbers with inline formulas (differences put in descending order before the
reduction, as the metric contract documents) and rankings are re-sorted from
scratch.  Comparisons allow a relative band of ``TOL`` so that a later change
to the order of floating-point operations, which moves only the last bits, is
not mistaken for a wrong answer: a displayed 2-decimal cell may be the
rounding of any value inside the band, and two candidates whose keys agree
inside the band may appear in either order.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Decimal

TOL = 1e-9
# Above this order every ratio d/peak < 1 raised to the order underflows to
# zero and the count of tied maxima raised to 1/order rounds to 1, so the
# exact Ln distance rounds to the largest difference.
HUGE_ORDER = 10**20

KM_PER_JORNADA = 31.0


def lp(order: int | None, values) -> float:
    """Lp norm of non-negative ``values``; ``order=None`` is L-infinity."""
    ds = sorted(values, reverse=True)
    if order is None:
        return ds[0]
    if order == 1:
        return math.fsum(ds)
    if order == 2:
        return math.hypot(*ds)
    peak = ds[0]
    if peak == 0.0:
        return 0.0
    if order > HUGE_ORDER:
        return peak
    return peak * math.fsum((d / peak) ** order for d in ds) ** (1.0 / order)


def distance(order: int | None, row, target) -> float:
    return lp(order, [abs(a - b) for a, b in zip(row, target)])


def display_name(raw: str) -> str:
    """How an unknown candidate or reference name is displayed."""
    return " ".join(raw.split()).title()


def two_dp(x: float) -> str:
    return str(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def cell_ok(cell: str, value: float) -> bool:
    """Is ``cell`` the 2-decimal display of a value within the band of ``value``?"""
    band = TOL * max(1.0, abs(value))
    return cell in {two_dp(value - band), two_dp(value), two_dp(value + band)}


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Ranking:
    """Every candidate keyed by (distance, L2 tie-break, name), sorted."""

    def __init__(self, order: int | None, rows: dict[str, tuple], target) -> None:
        self.keys = {
            name: (distance(order, vals, target), distance(2, vals, target), name)
            for name, vals in rows.items()
        }
        self.sorted = sorted(self.keys.values())

    def names_ok(self, shown: list[str], k: int) -> bool:
        """``shown`` is the top ``k`` of the ranking, up to near-ties."""
        if len(shown) != min(k, len(self.sorted)) or len(set(shown)) != len(shown):
            return False
        for name, expected in zip(shown, self.sorted):
            key = self.keys.get(name)
            if key is None:
                return False
            if name != expected[2] and not (_near(key[0], expected[0])
                                            and _near(key[1], expected[1])):
                return False
        return True

    def distance_of(self, name: str) -> float:
        return self.keys[name][0]


def relative_error(order: int | None, dist: float, target) -> float:
    return 100.0 * dist / lp(order, target)
