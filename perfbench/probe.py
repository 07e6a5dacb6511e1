"""Host-speed probe that scales wall times to a reference speed.

On a shared host the speed of this code swings by up to 2x within tens of
seconds, and every wall time swings with it, so a run's median moves with
the host rather than with the program.  A fixed pure-Python kernel doing
what lpmatch's hot path does (fold names, count in a dict, sort and reduce
floats) is timed right before and after each op.  The op's time multiplied
by ``REFERENCE_S / probe time`` is its time on a host where the kernel takes
1 ms; measured against the raw times, the scaled ones vary by a few percent
where the raw ones double.
"""

from __future__ import annotations

import math
import statistics
import time
import unicodedata

REFERENCE_S = 0.001
_WORDS = [f"Peña  Río {i}" for i in range(40)] + ["Cañada Águila", "Tórtola  Mesón"]


def _kernel() -> float:
    counts: dict[str, int] = {}
    total = 0.0
    for rep in range(12):
        for word in _WORDS:
            folded = unicodedata.normalize("NFKD", " ".join(word.split()).casefold())
            key = "".join(ch for ch in folded if not unicodedata.combining(ch))
            counts[key] = counts.get(key, 0) + 1
        values = sorted((abs(i * 0.37 - rep) for i in range(40)), reverse=True)
        total += math.fsum(values) + math.hypot(*values)
        total += sum((v / values[0]) ** 3 for v in values)
    return total


def probe() -> float:
    """Seconds the kernel takes now: the median of three timings."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scaled(seconds: float, *probes: float) -> float:
    """``seconds`` at the reference speed, given the probes around it."""
    return seconds * REFERENCE_S / statistics.mean(probes)


def timed(ops: list, call, after=None) -> dict:
    """Run ``call(op)`` for each op, timing it between two probes.

    ``after(op, result)`` runs outside the timing.  Returns the raw and the
    scaled seconds and the results, one per op."""
    out: dict[str, list] = {"times": [], "scaled": [], "results": []}
    before = probe()
    for op in ops:
        start = time.perf_counter()
        result = call(op)
        seconds = time.perf_counter() - start
        if after is not None:
            after(op, result)
        now = probe()
        out["times"].append(seconds)
        out["scaled"].append(scaled(seconds, before, now))
        out["results"].append(result)
        before = now
    return out
