"""Spans and counts around the calls into lpmatch's public functions.

Wrappers are installed from outside the program.  ``from .core import
metric_distance`` copies the binding into the importing module, so each
wrapper replaces the original in every lpmatch module that binds it by name.
Hot leaf functions only count their calls: a span for each of them would
cost more than the function itself, so their time stays in the caller's
self time.
"""

from __future__ import annotations

import time
import types
from collections import Counter

MODULES = ("lpmatch", "lpmatch.core", "lpmatch.dataset", "lpmatch.analysis",
           "lpmatch.report", "lpmatch.cli")
COUNT_ONLY = {"core.fold_name", "dataset.normalize_name", "report.format_2dp"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self.docset_counts: Counter = Counter()  # calls made inside write_document_set
        self.distinct: dict[str, set] = {"rank": set(), "subset": set()}
        self._stack: list[int] = []

    def span(self, name: str, fn, measure=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{parent}\n")


def _table_key(table) -> tuple:
    # tables of one workload that agree on unit, references and candidates
    # hold the same values
    return (table.unit.value, table.references, table.candidates)


def _rank_measure(tracer, args, kwargs, result) -> None:
    table, target, metric = args
    tracer.counts["analysis.rank_candidates.rows"] += len(table)
    tracer.distinct["rank"].add((_table_key(table), target.names, target.values, metric.token))


def _subset_measure(tracer, args, kwargs, result) -> None:
    table, keep = args
    tracer.distinct["subset"].add((_table_key(table), tuple(keep)))


def _parse_measure(tracer, args, kwargs, result) -> None:
    tracer.counts["dataset.parse_table.rows"] += len(result)


def _text_measure(tracer, args, kwargs, result) -> None:
    tracer.counts["report.text.bytes"] += len(result.encode("utf-8"))


def _docset_measure(tracer, args, kwargs, result) -> None:
    tracer.counts["report.write_document_set.bytes"] += sum(p.stat().st_size for p in result)


MEASURES = {
    "analysis.rank_candidates": _rank_measure,
    "dataset.subset_references": _subset_measure,
    "dataset.parse_table": _parse_measure,
    "report.write_document_set": _docset_measure,
}


def _docset_scope(tracer: Tracer, fn):
    """Attribute to write_document_set every call made while it runs."""

    def wrapper(*args, **kwargs):
        before = Counter(tracer.counts)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.docset_counts.update(tracer.counts - before)

    return wrapper


def install(modules: dict[str, types.ModuleType]) -> Tracer:
    """Wrap every public function and the three constructors that matter."""
    tracer = Tracer()
    layers = {name.rpartition(".")[2]: mod for name, mod in modules.items() if name != "lpmatch"}
    originals = []
    for layer, mod in layers.items():
        for attr in getattr(mod, "__all__", ["run"]):  # cli's one public function is run
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                originals.append((f"{layer}.{attr}", obj))
    for name, fn in originals:
        if name in COUNT_ONLY:
            wrapped = tracer.counter(name, fn)
        else:
            wrapped = tracer.span(name, fn, MEASURES.get(name))
        if name == "report.write_document_set":
            wrapped = _docset_scope(tracer, wrapped)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    core, dataset, report = layers["core"], layers["dataset"], layers["report"]
    core.Profile.__post_init__ = tracer.counter("core.Profile", core.Profile.__post_init__)
    dataset.DistanceTable.__init__ = tracer.span("dataset.DistanceTable",
                                                 dataset.DistanceTable.__init__)
    report.RenderedTable.text = tracer.span("report.text", report.RenderedTable.text,
                                            _text_measure)
    return tracer
