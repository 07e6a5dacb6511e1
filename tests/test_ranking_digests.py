"""Rankings and gap reports of a seeded corpus, hashed.

A corpus of tables is drawn from ``random.Random`` alone, every value an
integer step scaled to a float, so that no draw depends on the Python
version.  It covers four shapes: tie-heavy (a handful of quarter steps),
2-decimal, uniform (53-bit steps) and near the largest double, with 1-5
references and 1-12 rows, one-row tables included.  Each table is ranked
under L_inf, L1, L2, L3 and L40, and given to ``gap_report``.  One SHA-256
per operation covers the candidate names, the ranks, the ``float.hex`` of
every distance and relative error, and the message of every error.

Running this file as a script prints the digests of the tree it runs on.
The stored ones change only with a change that means to alter a ranking, a
tie order, a relative error or an error message.  L3 and L40 go
through libm's ``pow``, so their digests may differ on another platform:
there pin only names and ranks for those orders, and never re-seed the
corpus to hide a difference.
"""

import hashlib
import random

import pytest

from lpmatch.analysis import gap_report, rank_candidates
from lpmatch.core import MetricSpec, Profile, Unit
from lpmatch.dataset import DistanceTable
from lpmatch.errors import InvalidValue

SEED = 2026
TABLES = 3000
NAMES = [a + b for a in "abcDE" for b in "xyZ"]  # a table shows them title-cased
REFS = ("r1", "R2", "r3", "R4", "r5")

# value(rng) for each shape; a target value may also be 0.0
SHAPES = {
    "tie-heavy": lambda rng: rng.randrange(1, 5) / 4,
    "2-decimal": lambda rng: rng.randrange(1, 20_001) / 100,
    "uniform": lambda rng: rng.randrange(1, 2**53) * 2.0**-46,
    "near-max": lambda rng: rng.randrange(2**52, 2**53) * 2.0**971,
}

DIGESTS = {
    "linf": "7df5ac6b93accf4b20b7439b35e68f3a85aa62bb755082ce597f1c9376dadc59",
    "l1": "d53f2ad48664e4d71106d4fe9bab6876565a0e73457d093c5310b82bf706c675",
    "l2": "61aa2d61ba8dab72189d26db183d9a31e7ffd6b7f40d1bc4897b334d2360f1ca",
    "l3": "bc992edb2e594521ba7678773ee2ac3605ddea05d4d0ca95cab188c7f4a2b343",
    "l40": "a11ae8cb1384848cdd27d8e3b78e392de4ef91e9aaa7ca9dee1f7da086858883",
    "gap_report": "8c5a8f2e7505ce1557fc1f7f50c810f8f362830568196d65cd4fd4fb5f251dce",
}


def corpus():
    """(table, target) pairs; the target lists its references in another order."""
    rng = random.Random(SEED)
    shapes = sorted(SHAPES)
    pairs = []
    for _ in range(TABLES):
        value = SHAPES[shapes[rng.randrange(len(shapes))]]
        refs = REFS[:rng.randrange(1, 6)]
        rows = [(name, tuple(value(rng) for _ in refs))
                for name in rng.sample(NAMES, rng.randrange(1, 13))]
        table = DistanceTable(Unit.HOURS, refs, rows)
        order = rng.sample(refs, len(refs))
        goal = tuple(0.0 if rng.randrange(8) == 0 else value(rng) for _ in order)
        pairs.append((table, Profile(order, goal, Unit.HOURS)))
    return pairs


def ranking_lines(table, target, metric):
    try:
        ranking = rank_candidates(table, target, metric)
    except InvalidValue as exc:
        return [f"error: {exc}"]
    return [f"{e.rank} {e.candidate} {e.distance.hex()}" for e in ranking]


def gap_lines(table, target):
    try:
        report = gap_report(table, target)
    except InvalidValue as exc:
        return [f"error: {exc}"]
    lines = [f"{r.metric.token} {r.first} {r.first_error.hex()} {r.second} "
             f"{r.second_error.hex()} {r.gap.hex()}" for r in report.records]
    return lines + [f"mean {report.mean_gap.hex()}"]


def digest(lines_of_each_table):
    sha = hashlib.sha256()
    for lines in lines_of_each_table:
        sha.update(("\n".join(lines) + "\n\n").encode("utf-8"))
    return sha.hexdigest()


def compute(operation, pairs):
    if operation == "gap_report":
        return digest(gap_lines(table, target) for table, target in pairs)
    metric = MetricSpec.parse(operation)
    return digest(ranking_lines(table, target, metric) for table, target in pairs)


@pytest.fixture(scope="module")
def pairs():
    return corpus()


@pytest.mark.parametrize("operation", sorted(DIGESTS))
def test_corpus_digest(pairs, operation):
    assert compute(operation, pairs) == DIGESTS[operation]


if __name__ == "__main__":  # prints the digests of this tree
    drawn = corpus()
    for name in DIGESTS:
        print(f'    "{name}": "{compute(name, drawn)}",')
