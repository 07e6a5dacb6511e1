"""Layered benchmark of lpmatch.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; lpmatch is imported from ``src/``.
With ``--trace 0`` the workload runs as a closed loop with one client for
about ``--seconds`` (whole cycles of its op sequence) and the end-to-end
metrics are printed.  With ``--trace 1`` the workload's trace window runs in
two fresh interpreters with spans and counts around every public lpmatch
function (the first also runs it untraced, for the tracing overhead), and
the per-layer metrics are printed.
Times are scaled to a reference host speed measured by probe.py around each
op; the detail line also gives them as plain wall time.  Every op's output
is checked; the last line of stdout is one JSON object.  See README.md for
the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from probe import probe, scaled, timed
from workloads import WORKLOADS, SessionNarrow, collect_files, judge, stop_after

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
STARTUP_RUNS = 7
OP_TIMEOUT = 60
# Calls made by one write_document_set at the seed commit, builtin tables cached.
SEED_ANCHORS = {"core.metric_distance": 2928, "core.fold_name": 36036,
                "analysis.rank_candidates": 48, "dataset.subset_references": 32,
                "report.format_2dp": 992}
END_TO_END = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
              "success_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per traced op, except the startup probes, ratios and trace figures.
PER_LAYER = {
    "core.metric_distance.calls": "count", "core.metric_distance.self_ms": "ms",
    "core.fold_name.calls": "count", "core.Profile.built": "count",
    "core.magnitude.calls": "count",
    "dataset.parse_table.rows": "rows", "dataset.DistanceTable.built": "count",
    "dataset.DistanceTable.self_ms": "ms", "dataset.normalize_name.calls": "count",
    "dataset.subset_references.calls": "count", "dataset.subset_references.self_ms": "ms",
    "analysis.rank_candidates.calls": "count", "analysis.rank_candidates.rows": "rows",
    "analysis.rank_candidates.self_ms": "ms", "analysis.gap_report.calls": "count",
    "analysis.relative_error_percent.calls": "count",
    "report.build.calls": "count", "report.text.bytes": "bytes",
    "report.format_2dp.calls": "count", "report.write_document_set.bytes": "bytes",
    "cli.startup_ms": "ms", "python.startup_ms": "ms",
    "analysis.kernel_calls_per_row": "ratio", "core.fold_per_kernel_call": "ratio",
    "analysis.rankings_per_distinct": "ratio", "dataset.subsets_per_distinct": "ratio",
    "trace.overhead_ms": "ms", "trace.count_mismatches": "count",
}
UNITS = {**END_TO_END, **PER_LAYER}
# Children compile lpmatch from source every time, whatever the caller's
# environment says, so start-up costs the same everywhere and nothing is
# written into the checkout's src/.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8",
                 PYTHONDONTWRITEBYTECODE="1")


def environment(workload: str, seed: int) -> dict:
    revision = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        revision = (git / "HEAD").read_text().strip()
        if revision.startswith("ref: "):
            ref = revision[5:]
            packed = git / "packed-refs"
            lines = packed.read_text().splitlines() if packed.is_file() else []
            if (git / ref).is_file():
                lines = [(git / ref).read_text().strip() + " " + ref]
            revision = next((line.split()[0] for line in lines if line.endswith(" " + ref)),
                            revision)
    source = hashlib.sha256()
    for path in sorted((SRC / "lpmatch").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "lpmatch_revision": revision,
            "lpmatch_source_sha256": source.hexdigest()}


def run_worker(mode: str, plan: dict, work: Path, tag: str, timeout: float) -> dict:
    plan_path, result = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(SRC), str(plan_path),
                    str(result)], env=CHILD_ENV, cwd=ROOT, timeout=timeout, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


def run_cli(argv: list) -> dict:
    try:
        proc = subprocess.run([sys.executable, "-m", "lpmatch", *argv], capture_output=True,
                              env=CHILD_ENV, cwd=ROOT, timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "out": "", "err": f"timed out after {OP_TIMEOUT} s"}
    return {"rc": proc.returncode, "out": proc.stdout.decode("utf-8", "replace"),
            "err": proc.stderr.decode("utf-8", "replace")}


def op_p50(times: list, ops: list) -> float:
    """Median op time of the mix: per-kind medians weighted by kind share.

    The op kinds of a workload differ in cost, so the pooled median would
    fall into the gap between kinds and jump with noise."""
    by_kind = defaultdict(list)
    for t, op in zip(times, ops):
        by_kind[op["kind"]].append(t)
    return sum(len(ts) * statistics.median(ts) for ts in by_kind.values()) / len(times)


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10
    samples beyond it, or of the maximum when there are too few samples."""
    ordered = sorted(times)
    index = max(0, len(ordered) - 11)
    beyond = len(ordered) - 1 - index
    return ordered[index], 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def judge_all(workload, ops: list, results: list) -> tuple[int, bool, list]:
    failed, correct, reasons = 0, True, []
    for op, res in zip(ops, results):
        passed, wrong, reason = judge(op, res, workload.verify)
        if not passed:
            failed += 1
            correct = correct and not wrong
            reasons.append(f"{op['kind']}: {reason}")
    return failed, correct, reasons


def setup_seconds(workload, work: Path) -> tuple[list, list]:
    """Raw and scaled set-up times of fresh interpreters."""
    raw, scaled_s = [], []
    for k in range(SETUP_RUNS):
        before = probe()
        report = run_worker("setup", {"tables": workload.tables,
                                      "warmup": workload.op(0, f"setup{k}")},
                            work, f"setup{k}", 60)
        raw.append(report["setup_s"])
        scaled_s.append(scaled(report["setup_s"], before, report["probe"]))
    return raw, scaled_s


def timed_loop(workload, seconds: float, work: Path) -> tuple[dict, list]:
    """Whole cycles of the workload's ops for about ``seconds``."""
    if isinstance(workload, SessionNarrow):
        run = run_worker("loop", {"tables": workload.tables, "warmup": workload.op(0, "w"),
                                  "seed": workload.seed, "refs": workload.ref_display,
                                  "cycle": workload.cycle, "max_ops": workload.max_ops,
                                  "seconds": seconds},
                         work, "loop", seconds + 90)
        return run, [workload.op(i, "") for i in range(len(run["times"]))]
    run, ops = {"times": [], "scaled": [], "results": []}, []
    start = time.perf_counter()
    while True:
        cycle = [workload.op(len(ops) + k, "loop") for k in range(workload.cycle)]
        part = timed(cycle, lambda op: run_cli(op["argv"]), collect_files)
        for key, values in part.items():
            run[key] += values
        ops += cycle
        run["loop_s"] = time.perf_counter() - start
        if stop_after(run["loop_s"], len(ops) // workload.cycle, seconds):
            return run, ops


def end_to_end(workload, seconds: float, work: Path) -> tuple[dict, dict, list, list]:
    # the timed loop spawns the first children, so RUSAGE_CHILDREN's peak
    # below is the program's own
    run, ops = timed_loop(workload, seconds, work)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups, scaled_setups = setup_seconds(workload, work)
    failed, correct, reasons = judge_all(workload, ops, run["results"])
    n, times = len(ops), run["scaled"]
    tail_s, percentile, beyond = tail(times)
    metrics = {
        "op_p50_ms": 1000 * op_p50(times, ops),
        "op_tail_ms": 1000 * tail_s,
        "ops_per_s": n / sum(times),
        "success_rate": (n - failed) / n,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    kinds = defaultdict(list)
    for t, op in zip(times, ops):
        kinds[op["kind"]].append(t)
    detail = {
        "ops": n, "cycles": n // workload.cycle, "loop_s": run["loop_s"],
        "tail_percentile": percentile, "tail_samples_beyond": beyond,
        "error_rate": failed / n,
        "kind_median_ms": {k: 1000 * statistics.median(v) for k, v in sorted(kinds.items())},
        "scaled_setup_runs_s": scaled_setups,
        # the same figures as wall time, unscaled
        "wall": {"op_p50_ms": 1000 * op_p50(run["times"], ops),
                 "op_tail_ms": 1000 * tail(run["times"])[0], "ops_per_s": n / run["loop_s"],
                 "setup_s": statistics.median(setups),
                 "host_speed": statistics.median(s / t for s, t in zip(times, run["times"]))},
    }
    return metrics, detail, [n, failed, correct], reasons


def span_times(path: Path) -> dict:
    """Total self time in ns per span name.  Self time is the span's duration
    minus the durations of its direct children (single thread: they nest)."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent = line.rstrip("\n").split("\t")
            spans.append([name, int(end) - int(start), int(parent)])
    own = [duration for _, duration, _ in spans]
    for name, duration, parent in spans:
        if parent >= 0:
            own[parent] -= duration
    totals = defaultdict(int)
    for (name, _, _), ns in zip(spans, own):
        totals[name] += ns
    return totals


def startup_ms(code: str) -> float:
    """Scaled median wall time of a fresh ``python -c <code>``."""
    run = timed([code] * STARTUP_RUNS, lambda c: subprocess.run(
        [sys.executable, "-c", c], env=CHILD_ENV, cwd=ROOT, timeout=60, check=True))
    return 1000 * statistics.median(run["scaled"])


def layer_group(name: str) -> str:
    """The build_* functions of report form one group."""
    return "report.build" if name.startswith("report.build_") else name


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced(workload, work: Path) -> tuple[dict, dict, list, list]:
    window = len(workload.window)
    passes, ops, results = [], [], []
    for tag in ("A", "B"):
        # the second pass only repeats the traced run, to check its counts
        plan = {"tables": workload.tables, "warmup": workload.op(0, f"{tag}w"),
                "ops": [workload.op(i, tag) for i in workload.window], "untraced": tag == "A"}
        report = run_worker("trace", plan, work, f"trace{tag}", 120)
        traced_run = report["traced"]
        # self times are scaled like op times, by the pass's median host speed
        speed = statistics.median(s / t for s, t in zip(traced_run["scaled"], traced_run["times"]))
        report["self_ns"] = {name: ns * speed for name, ns in
                             span_times(work / f"trace{tag}.result.spans").items()}
        passes.append(report)
        for key in ("untraced", "traced"):
            if key in report:
                ops += plan["ops"]
                results += report[key]["results"]
        report["traced_p50"] = op_p50(traced_run["scaled"], plan["ops"])
    untraced = op_p50(passes[0]["untraced"]["scaled"], plan["ops"])
    traced_p50 = statistics.mean(p["traced_p50"] for p in passes)
    failed, correct, reasons = judge_all(workload, ops, results)

    a, b = passes
    mismatches = [f"{group}.{key}: {a[group].get(key)} vs {b[group].get(key)}"
                  for group in ("counts", "docset_counts", "distinct")
                  for key in sorted(set(a[group]) | set(b[group]))
                  if a[group].get(key) != b[group].get(key)]
    calls = a["counts"]
    grouped = defaultdict(int)
    for name, count in calls.items():
        grouped[layer_group(name)] += count
    self_ms = defaultdict(float)
    for report in passes:
        for name, ns in report["self_ns"].items():
            self_ms[layer_group(name)] += ns / 1e6 / window / len(passes)
    metrics = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "built"):
            metrics[name] = grouped[base] / window
        elif kind in ("rows", "bytes"):
            metrics[name] = grouped[name] / window
        elif kind == "self_ms":
            metrics[name] = self_ms[base]
    metrics.update({
        "cli.startup_ms": startup_ms("import lpmatch.cli"),
        "python.startup_ms": startup_ms("pass"),
        "analysis.kernel_calls_per_row": ratio(grouped["core.metric_distance"],
                                               grouped["analysis.rank_candidates.rows"]),
        "core.fold_per_kernel_call": ratio(grouped["core.fold_name"],
                                           grouped["core.metric_distance"]),
        "analysis.rankings_per_distinct": ratio(grouped["analysis.rank_candidates"],
                                                a["distinct"]["rank"]),
        "dataset.subsets_per_distinct": ratio(grouped["dataset.subset_references"],
                                              a["distinct"]["subset"]),
        "trace.overhead_ms": 1000 * (traced_p50 - untraced),
        "trace.count_mismatches": len(mismatches),
    })
    # Self times of layers that some workload never reaches read exactly 0
    # there on every run, so they are reported here and not as metrics.
    layer_self_ms = {f"{name}.self_ms": self_ms[name] for name in (
        "dataset.parse_table", "analysis.gap_report", "analysis.sweep",
        "analysis.summarize_conclusions", "report.build", "report.text",
        "report.write_document_set", "cli.run")}
    docsets = grouped["report.write_document_set"]
    anchors = {key: a["docset_counts"].get(key, 0) / docsets for key in SEED_ANCHORS} \
        if docsets else {}
    detail = {
        "window_ops": window, "passes": len(passes), "layer_self_ms": layer_self_ms,
        "untraced_op_p50_ms": 1000 * untraced,
        "traced_op_p50_ms": 1000 * traced_p50,
        "trace_overhead_pct": 100 * (traced_p50 / untraced - 1),
        "count_mismatches": mismatches,
        "write_document_set_calls": anchors,
        "write_document_set_matches_seed_anchors": anchors == SEED_ANCHORS if anchors else None,
        "all_counts_per_pass": calls,
    }
    return metrics, detail, [len(ops), failed, correct], reasons


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lpmatch" / "__init__.py").is_file():
        print(f"error: no lpmatch sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            result = traced(workload, work)
        else:
            result = end_to_end(workload, args.seconds, work)
        metrics, detail, (attempted, failed, correct), reasons = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6f} {UNITS[name]}")
    for reason in sorted(set(reasons)):
        print(f"failed op {reason}  (x{reasons.count(reason)})")
    print(json.dumps({"environment": environment(args.workload, args.seed), "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": UNITS[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
