"""The three workloads: inputs made from the seed, op sequences and checks.

Every op is a dict.  CLI ops carry ``argv`` (run as ``python -m lpmatch`` in
the timed loop and through ``cli.run`` in the traced run); session ops carry
the library call's arguments.  ``expect`` says what a passing op returns:
``result`` (verified against the oracle or the stored digests), ``error``
(exit 1 or 2 with an ``error:`` line and no traceback) or ``either``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import shutil
import unicodedata
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
METRICS = {"l1": 1, "l2": 2, "linf": None, "l3": 3}
GAP_METRICS = (None, 1, 2)
TARGET_LABEL = "LUGAR DE LA MANCHA"
WORDS = ("río", "peña", "cañada", "álamo", "olivar", "encina", "fuente", "molino",
         "cerro", "vega", "águila", "castaño", "nogal", "tórtola", "mesón", "ermita",
         "atalaya", "jabalí", "zarzal", "guijarro", "alcázar", "albúfera", "sabinar", "ñora")


def stop_after(elapsed: float, cycles: int, seconds: float) -> bool:
    """Closed loops run whole cycles; stop when one more would overshoot
    ``seconds`` by more than stopping now falls short of it."""
    return elapsed + elapsed / cycles / 2 >= seconds


def plain(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text.casefold())
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def spaced(rng: random.Random, words: list[str]) -> str:
    """Words joined by irregular runs of spaces, sometimes padded."""
    text = words[0]
    for word in words[1:]:
        text += rng.choice((" ", "  ", "   ")) + word
    return rng.choice(("", " ", "  ")) + text + rng.choice(("", " "))


def reference_names(rng: random.Random, count: int) -> list[str]:
    pairs = [(a, b) for a in WORDS for b in WORDS if a != b]
    return [spaced(rng, list(pair)) for pair in rng.sample(pairs, count)]


def candidate_names(rng: random.Random, count: int) -> list[str]:
    return [spaced(rng, [rng.choice(WORDS), rng.choice(WORDS), f"{i:04d}"])
            for i in range(count)]


def km_cents(rng: random.Random) -> int:
    return rng.randrange(2000, 20001)  # 20.00 to 200.00 km


def column(order: int | None) -> str:
    return "d_inf" if order is None else f"d_{order}"


def label(order: int | None) -> str:
    return "L_inf" if order is None else f"L_{order}"


def clean_error(res: dict) -> bool:
    return (res["rc"] in (1, 2) and "Traceback" not in res["err"]
            and any(line.startswith("error:") for line in res["err"].splitlines()))


def judge(op: dict, res: dict, verify) -> tuple[bool, bool, str]:
    """(passed, wrong answer, reason) for one op; ``verify`` checks a result."""
    expect = op["expect"]
    if expect != "result" and clean_error(res):
        return True, False, ""
    if "rc" in res and (res["rc"] != 0 or res["err"]):
        reason = "traceback" if "Traceback" in res["err"] else f"exit {res['rc']}"
        return False, expect == "result", reason
    if expect == "error":
        return False, True, "a result where only an error is right"
    try:
        problem = verify(op, res)
    except (IndexError, KeyError, ValueError) as exc:
        problem = f"unreadable output ({exc!r})"
    return not problem, bool(problem), problem


def collect_files(op: dict, result: dict) -> None:
    """Hash into ``result`` and remove the documents a reproduce op wrote."""
    outdir = Path(op.get("outdir", ""))
    if "outdir" in op and outdir.is_dir():
        result["files"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in outdir.iterdir()}
        shutil.rmtree(outdir)


class PaperGrid:
    """The paper's complete analysis, run as users run it: one CLI process per op."""

    name = "paper-grid"
    cycle = 6
    window = range(12)  # op indices of the traced run

    def __init__(self, seed: int, work: Path) -> None:
        kinds = [(cmd, fmt) for cmd in ("reproduce", "sweep") for fmt in ("md", "csv", "jsonl")]
        random.Random(f"{self.name}/{seed}").shuffle(kinds)
        self.kinds = kinds
        self.out = work / "out"
        self.digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.tables = {"km": "builtin:km", "hours": "builtin:hours"}

    def op(self, i: int, tag: str) -> dict:
        cmd, fmt = self.kinds[i % self.cycle]
        op = {"kind": f"{cmd}-{fmt}", "expect": "result", "fmt": fmt}
        if cmd == "sweep":
            op["argv"] = ["sweep", "--format", fmt]
        else:
            op["outdir"] = str(self.out / f"{tag}-{i}")
            op["argv"] = ["reproduce", "--outdir", op["outdir"], "--format", fmt]
        return op

    def verify(self, op: dict, res: dict) -> str:
        fmt = op["fmt"]
        if "outdir" not in op:
            digest = hashlib.sha256(res["out"].encode("utf-8")).hexdigest()
            return "" if digest == self.digests["sweep"][fmt] else "sweep output differs"
        expected = self.digests["reproduce"][fmt]
        listed = [str(Path(op["outdir"]) / name) for name in sorted(expected)]
        if res["out"].splitlines() != listed:
            return "reproduce listed other paths"
        if res.get("files") != expected:
            return "reproduce wrote other documents"
        return ""


class FileRankWide:
    """A user's own wide file, queried one-shot from the CLI; every op re-parses.

    A cycle is two rounds of ten ops (rank under four metrics, with and
    without one --exclude, then errors and gaps, all against the round's
    literal --solution) and two error-path ops: one ordinary mistake and one
    input that escapes as a traceback at the seed commit.  The pair alternates
    between cycles, so every whole cycle has the same share of each and two
    cycles cover all four error kinds.
    """

    name = "file-rank-wide"
    rows, refs, rounds = 1000, 16, 8
    cycle = 22
    window = [*range(10), 20, 21]  # a round and one error pair
    ERROR_PAIRS = (("err-exclude", "err-order"), ("err-row", "err-max"))

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        raw_refs = reference_names(rng, self.refs)
        raw_names = candidate_names(rng, self.rows)
        cents = [[km_cents(rng) for _ in range(self.refs)] for _ in range(self.rows)]
        self.ref_display = [oracle.display_name(r) for r in raw_refs]
        self.values = {oracle.display_name(n): tuple(c / 100 for c in row)
                       for n, row in zip(raw_names, cents)}
        self.plans = []
        tokens = list(METRICS)
        for r in range(self.rounds):
            jornadas = [rng.randrange(65, 650) / 100 for _ in range(self.refs)]
            self.plans.append({
                "solution": ",".join(f"{v:.2f}" for v in jornadas),
                "target": [v * oracle.KM_PER_JORNADA for v in jornadas],
                "exclude": rng.randrange(self.refs),
                "errors_metric": tokens[r % 4],
            })
        self.huge_order = str(rng.randrange(1, 10)) + "".join(
            str(rng.randrange(10)) for _ in range(399))
        self.missing_ref = spaced(rng, [rng.choice(WORDS), "inexistente"])

        def text(cell_rows) -> str:
            lines = [";".join(["nombre"] + raw_refs)]
            lines += [";".join([n] + row) for n, row in zip(raw_names, cell_rows)]
            return "\n".join(lines) + "\n"

        comma = [[f"{c // 100},{c % 100:02d}" for c in row] for row in cents]
        huge = [[f"{rng.randrange(600, 1700) / 1000:.3f}e308".replace(".", ",") for _ in row]
                for row in cents]
        self.files = {"wide": work / "wide.csv", "malformed": work / "malformed.csv",
                      "huge": work / "huge.csv"}
        self.files["wide"].write_text(text(comma), encoding="utf-8")
        self.files["malformed"].write_text(text(comma[:-1] + [comma[-1][:-1]]),
                                           encoding="utf-8")
        self.files["huge"].write_text(text(huge), encoding="utf-8")
        self.tables = {"wide": str(self.files["wide"])}
        self._rankings: dict = {}

    def op(self, i: int, tag: str) -> dict:
        c, j = divmod(i, self.cycle)
        if j >= 20:
            return self._error_op(self.ERROR_PAIRS[c % 2][j - 20], 2 * c % self.rounds)
        r = (2 * c + j // 10) % self.rounds
        plan = self.plans[r]
        k = j % 10
        base = ["--data", str(self.files["wide"]), "--solution", plan["solution"],
                "--format", "csv"]
        if k < 8:
            token = list(METRICS)[k % 4]
            exclude = plan["exclude"] if k >= 4 else None
            argv = ["rank"] + base + ["--metric", token]
            if exclude is not None:
                argv += ["--exclude", plain(self.ref_display[exclude])]
            kind = f"rank-{token}" + ("-x" if exclude is not None else "")
            return {"kind": kind, "expect": "result", "argv": argv, "round": r,
                    "order": METRICS[token], "exclude": exclude, "top": 5}
        if k == 8:
            token = plan["errors_metric"]
            return {"kind": "errors", "expect": "result", "round": r, "order": METRICS[token],
                    "argv": ["errors"] + base + ["--metric", token], "top": 3}
        return {"kind": "gaps", "expect": "result", "round": r, "argv": ["gaps"] + base}

    def _error_op(self, kind: str, r: int) -> dict:
        plan = self.plans[r]
        data, metric, expect, extra = "wide", "l2", "error", []
        if kind == "err-exclude":
            extra = ["--exclude", self.missing_ref]
        elif kind == "err-order":
            metric, expect = "l" + self.huge_order, "either"
        elif kind == "err-row":
            data = "malformed"
        else:
            data, metric = "huge", "l1"
        argv = (["rank", "--data", str(self.files[data]), "--solution", plan["solution"],
                 "--metric", metric, "--format", "csv"] + extra)
        return {"kind": kind, "expect": expect, "argv": argv, "round": r,
                "order": int(metric[1:]), "exclude": None, "top": 5}

    def ranking(self, r: int, order: int | None, exclude: int | None) -> oracle.Ranking:
        key = (r, order, exclude)
        if key not in self._rankings:
            keep = [j for j in range(self.refs) if j != exclude]
            target = [self.plans[r]["target"][j] for j in keep]
            rows = {n: tuple(v[j] for j in keep) for n, v in self.values.items()}
            self._rankings[key] = oracle.Ranking(order, rows, target)
        return self._rankings[key]

    def verify(self, op: dict, res: dict) -> str:
        rows = list(csv.reader(io.StringIO(res["out"])))
        if not rows:
            return "no output"
        kind = op["kind"]
        if kind == "gaps":
            return self._verify_gaps(op, rows)
        target = self.plans[op["round"]]["target"]
        order = op["order"]
        ranking = self.ranking(op["round"], order, op.get("exclude"))
        body = rows[1:]
        if kind == "errors":
            if rows[0] != ["rank", "locality", column(order), "relative error (%)"]:
                return "errors header"
            if not ranking.names_ok([row[1] for row in body], op["top"]):
                return "errors names"
            for pos, (rank, name, dcell, ecell) in enumerate(body, start=1):
                dist = ranking.distance_of(name)
                if (rank != str(pos) or not oracle.cell_ok(dcell, dist)
                        or not oracle.cell_ok(ecell, oracle.relative_error(order, dist, target))):
                    return f"errors row {pos}"
            return ""
        keep = [j for j in range(self.refs) if j != op["exclude"]]
        header = (["locality"] + [f"{self.ref_display[j]} (km)" for j in keep]
                  + [column(order)])
        if rows[0] != header:
            return "rank header"
        if body[0][0] != TARGET_LABEL or body[0][-1] != "0.00" or not all(
                oracle.cell_ok(cell, target[j]) for cell, j in zip(body[0][1:-1], keep)):
            return "rank target row"
        body = body[1:]
        if not ranking.names_ok([row[0] for row in body], op["top"]):
            return "rank names"
        for row in body:
            values = self.values[row[0]]
            if row[1:-1] != [oracle.two_dp(values[j]) for j in keep]:
                return f"rank values of {row[0]}"
            if not oracle.cell_ok(row[-1], ranking.distance_of(row[0])):
                return f"rank distance of {row[0]}"
        return ""

    def _verify_gaps(self, op: dict, rows: list) -> str:
        if rows[0] != ["metric", "first", "error 1 (%)", "second", "error 2 (%)", "gap (%)"]:
            return "gaps header"
        target = self.plans[op["round"]]["target"]
        gaps = []
        for order, row in zip(GAP_METRICS, rows[1:4]):
            ranking = self.ranking(op["round"], order, None)
            name, e1, second, e2, gap = row[1:]
            if row[0] != label(order) or not ranking.names_ok([name, second], 2):
                return f"gaps {label(order)} names"
            errors = [oracle.relative_error(order, ranking.distance_of(n), target)
                      for n in (name, second)]
            gaps.append(errors[1] - errors[0])
            if not (oracle.cell_ok(e1, errors[0]) and oracle.cell_ok(e2, errors[1])
                    and oracle.cell_ok(gap, gaps[-1])):
                return f"gaps {label(order)} cells"
        mean = sum(gaps) / 3
        if len(rows) != 5 or rows[4][:5] != ["mean", "", "", "", ""] or \
                not oracle.cell_ok(rows[4][5], mean):
            return "gaps mean"
        return ""


def session_op(seed: int, i: int, ref_display: list[str]) -> dict:
    """Op ``i`` of session-narrow.

    The metric and the subset pattern repeat every 16 ops; the target and
    the kept references are fresh for every op, so no two ops ask the same
    question and only what is keyed on the table can be reused."""
    rng = random.Random(f"{SessionNarrow.name}/{seed}/{i}")
    j = i % SessionNarrow.cycle
    token = list(METRICS)[j % 4]
    subset = j % 4 == (j // 4) % 4
    # subsets keep 3 and 2 references in turn, whatever the seed
    keep = sorted(rng.sample(range(len(ref_display)), 3 - j % 2)) if subset \
        else list(range(len(ref_display)))
    target = [km_cents(rng) / 100 for _ in keep]
    spelled = [rng.choice((n, n.upper(), plain(n))) for n in (ref_display[k] for k in keep)]
    order = list(range(len(keep)))
    rng.shuffle(order)
    return {
        "kind": token + ("-subset" if subset else ""),
        "expect": "result",
        "metric": token,
        "keep": [plain(ref_display[k]) for k in keep] if subset else None,
        "target_names": [spelled[k] for k in order],
        "target_values": [target[k] for k in order],
        "check": {"keep": keep, "target": target, "order": METRICS[token]},
    }


class SessionNarrow:
    """Library use against a table parsed once and held in memory.

    Each op ranks the whole table against a seeded target under one metric,
    takes the top 3 and their relative errors.  One op in four first
    restricts the table to 3 or 2 of its 4 references.  The target names the
    references in other spellings and another order, so every call aligns
    by folded name.
    """

    name = "session-narrow"
    rows, refs = 2000, 4
    cycle = 16
    window = range(16)
    # every op needs its own oracle ranking; this bounds the checking time
    # of a run once the program is many times faster than at the seed
    max_ops = 1024

    def __init__(self, seed: int, work: Path) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        raw_refs = reference_names(rng, self.refs)
        raw_names = candidate_names(rng, self.rows)
        cents = [[km_cents(rng) for _ in range(self.refs)] for _ in range(self.rows)]
        self.seed = seed
        self.ref_display = [oracle.display_name(r) for r in raw_refs]
        self.values = {oracle.display_name(n): tuple(c / 100 for c in row)
                       for n, row in zip(raw_names, cents)}
        lines = [",".join(["name"] + raw_refs)]
        lines += [",".join([n] + [f"{c / 100:.2f}" for c in row])
                  for n, row in zip(raw_names, cents)]
        path = work / "session.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.tables = {"session": str(path)}

    def op(self, i: int, tag: str) -> dict:
        return session_op(self.seed, i, self.ref_display)

    def verify(self, op: dict, res: dict) -> str:
        spec = op["check"]
        rows = {n: tuple(v[k] for k in spec["keep"]) for n, v in self.values.items()}
        ranking = oracle.Ranking(spec["order"], rows, spec["target"])
        if not ranking.names_ok(res["names"], 3):
            return "top-3 names"
        for name, dist, error in zip(res["names"], res["distances"], res["errors"]):
            expected = ranking.distance_of(name)
            if not oracle.cell_ok(oracle.two_dp(dist), expected):
                return f"distance of {name}"
            rel = oracle.relative_error(spec["order"], expected, spec["target"])
            if not oracle.cell_ok(oracle.two_dp(error), rel):
                return f"relative error of {name}"
        return ""


WORKLOADS = {w.name: w for w in (PaperGrid, FileRankWide, SessionNarrow)}
