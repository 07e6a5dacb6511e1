"""Runs lpmatch in a fresh interpreter for one benchmark phase.

    python3 perfbench/worker.py <setup|loop|trace> <src dir> <plan.json> <result.json>

``setup`` times import, table loading and one warm-up op.  ``loop`` runs the
session workload's ops as a closed loop for the planned seconds, making each
op from the seed as it goes.  ``trace`` runs the trace window, untraced if the
plan asks, then with the wrappers of tracer.py installed, and writes the
spans next to the result.

``lpmatch`` is imported first, so that the standard modules it needs load as
part of its import.  The worker's own imports and reading the plan are not
part of the set-up time.
"""

import sys
import time

T0 = time.perf_counter()
MODE, SRC, PLAN, RESULT = sys.argv[1:5]
sys.path.insert(0, SRC)
# calls go through the package namespace, where the tracer installs its wrappers
import lpmatch  # noqa: E402
from lpmatch import Unit, cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import probe, timed  # noqa: E402
from workloads import collect_files, session_op, stop_after  # noqa: E402

RESULT = Path(RESULT)
plan = json.loads(Path(PLAN).read_text(encoding="utf-8"))


def load_tables() -> dict:
    tables = {}
    for name, source in plan["tables"].items():
        if source.startswith("builtin:"):
            tables[name] = lpmatch.builtin_table(source[len("builtin:"):])
        else:
            text = Path(source).read_text(encoding="utf-8")
            tables[name] = lpmatch.parse_table(text, unit=Unit.KILOMETERS)
    return tables


def run_cli(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is what a traceback would show
            traceback.print_exc()
            rc = 1
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def run_session(table, op: dict) -> dict:
    if op["keep"] is not None:
        table = lpmatch.subset_references(table, op["keep"])
    target = lpmatch.Profile(tuple(op["target_names"]), tuple(op["target_values"]),
                             Unit.KILOMETERS)
    metric = lpmatch.MetricSpec.parse(op["metric"])
    top = lpmatch.top_k(lpmatch.rank_candidates(table, target, metric), 3)
    return {
        "names": [e.candidate for e in top],
        "distances": [e.distance for e in top],
        "errors": [lpmatch.relative_error_percent(e.distance, target, metric) for e in top],
    }


def run_op(tables: dict, op: dict) -> dict:
    if "argv" in op:
        return run_cli(op["argv"])
    try:
        return run_session(tables["session"], op)
    except Exception:
        return {"rc": 1, "out": "", "err": traceback.format_exc()}


def main() -> None:
    start = time.perf_counter()
    tables = load_tables()
    warm = run_op(tables, plan["warmup"])
    report = {"setup_s": IMPORT_S + time.perf_counter() - start}
    collect_files(plan["warmup"], warm)
    report["probe"] = probe()
    if MODE == "loop":
        size, cycles = plan["cycle"], 0
        report.update(times=[], scaled=[], results=[])
        start = time.perf_counter()
        while True:
            cycle = [session_op(plan["seed"], cycles * size + k, plan["refs"])
                     for k in range(size)]
            part = timed(cycle, lambda op: run_op(tables, op), collect_files)
            for key, values in part.items():
                report[key] += values
            cycles += 1
            report["loop_s"] = time.perf_counter() - start
            if (stop_after(report["loop_s"], cycles, plan["seconds"])
                    or cycles * size >= plan["max_ops"]):
                break
    elif MODE == "trace":
        from tracer import MODULES, install

        window = plan["ops"]
        if plan["untraced"]:
            report["untraced"] = timed(window, lambda op: run_op(tables, op), collect_files)
        tracer = install({name: sys.modules[name] for name in MODULES})
        traced_op = tracer.span("op", run_op)
        report["traced"] = timed(window, lambda op: traced_op(tables, op), collect_files)
        tracer.write(RESULT.with_suffix(".spans"))
        report.update(counts=dict(tracer.counts), docset_counts=dict(tracer.docset_counts),
                      distinct={k: len(v) for k, v in tracer.distinct.items()})
    RESULT.write_text(json.dumps(report), encoding="utf-8")


main()
