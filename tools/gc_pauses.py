"""Garbage-collector work per session-narrow op.

    python tools/gc_pauses.py [--src DIR] [--seed N] [--ops N]

Builds perfbench's session-narrow table (2,000 candidates by 4 references)
from its seed in a temporary directory, parses it once and runs the first
``--ops`` ops of the workload in one process, as perfbench's worker does,
with a ``gc.callbacks`` hook that times every collection.  ``--src`` is the
directory that holds the ``lpmatch`` package (default: ``src`` of this
checkout).  Prints one JSON line: for each generation, the collections and
the pause in microseconds per op, and the median op time in milliseconds,
all unscaled wall time.  Run it from the root of a checkout, so that it
finds ``perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=1024)
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import lpmatch
    from workloads import SessionNarrow

    with tempfile.TemporaryDirectory() as work:
        workload = SessionNarrow(args.seed, Path(work))
        text = Path(workload.tables["session"]).read_text(encoding="utf-8")
    table = lpmatch.parse_table(text, unit=lpmatch.Unit.KILOMETERS)
    ops = [workload.op(i, "") for i in range(args.ops)]

    def run(op: dict) -> None:
        subset = table if op["keep"] is None else lpmatch.subset_references(table, op["keep"])
        target = lpmatch.Profile(tuple(op["target_names"]), tuple(op["target_values"]),
                                 lpmatch.Unit.KILOMETERS)
        metric = lpmatch.MetricSpec.parse(op["metric"])
        for entry in lpmatch.top_k(lpmatch.rank_candidates(subset, target, metric), 3):
            lpmatch.relative_error_percent(entry.distance, target, metric)

    collections = [0, 0, 0]
    pauses = [0.0, 0.0, 0.0]
    started = [0.0]

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            collections[info["generation"]] += 1
            pauses[info["generation"]] += time.perf_counter() - started[0]

    run(ops[0])  # warm-up, as the worker's
    gc.collect()
    gc.callbacks.append(hook)
    times = []
    for op in ops:
        start = time.perf_counter()
        run(op)
        times.append(time.perf_counter() - start)
    gc.callbacks.remove(hook)
    n = len(ops)
    print(json.dumps({
        "python": sys.version.split()[0],
        "seed": args.seed,
        "ops": n,
        "op_median_ms": round(statistics.median(times) * 1e3, 4),
        "collections_per_op": [round(c / n, 4) for c in collections],
        "pause_us_per_op": [round(p / n * 1e6, 2) for p in pauses],
    }))


if __name__ == "__main__":
    main()
