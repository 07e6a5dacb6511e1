"""Seeded fuzzing of the command line: every input ends in a result or a clean error.

Data files are random bytes, or delimiter-separated text with quotes, a BOM,
blank lines, ragged rows and numeric edge tokens.  They are combined with
random ``--metric/--solution/--exclude/--top/--unit/--decimal/--format``
values.  Half the cases draw only well-formed files and valid flags, so that
many get as far as a ranking; the other half mix in the odd tokens.
``run`` must return 0 with output, or 1 or 2 with an ``error:`` line on
stderr and no output.  Usage errors that argparse itself detects leave
``run`` as ``SystemExit(2)`` after an ``error:`` line, which is the same
exit to a shell.  Seeded (``derandomize``) and bounded, so every run checks
the same cases.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.cli import run
from lpmatch.dataset import REFERENCES

TEXT = st.text(max_size=8)
EDGE_NUMBERS = st.one_of(
    st.sampled_from(["nan", "1e400", "1_0", "-0", "0", "-1", "1e308", "1,5", "2.5", "١٢",
                     " 7 ", "", "inf", "0x10", "1e-400"]),
    st.floats().map(repr),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    TEXT,
)


def mostly(usual, rare):
    """``usual`` seven times in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else usual)


def chooser(clean: bool):
    """``mostly``, or only the usual values in a clean case."""
    return (lambda usual, rare: usual) if clean else mostly


def plain_number(comma: bool):
    def spell(hundredths: int) -> str:
        text = f"{hundredths / 100:.2f}"
        return text.replace(".", ",") if comma else text

    return st.integers(min_value=1, max_value=10**6).map(spell)


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def delimited_text(draw, clean: bool):
    """(file bytes, reference names of the header)."""
    pick = chooser(clean)
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    number = pick(plain_number(comma=delimiter != ","), EDGE_NUMBERS)
    refs = draw(st.lists(pick(st.sampled_from(REFERENCES), TEXT),
                         min_size=1, max_size=4, unique=True))
    rows = [["name", *refs]]
    for i in range(draw(pick(st.integers(min_value=2, max_value=6), st.just(0)))):
        width = draw(pick(st.just(len(refs)), st.integers(min_value=0, max_value=5)))
        rows.append([draw(pick(st.just(f"c{i}"), TEXT))] + [draw(number) for _ in range(width)])
    lines = []
    for row in rows:
        # a quoted cell with a decimal comma stays one field under any delimiter
        lines.append(delimiter.join(
            quoted(cell) if draw(st.integers(0, 5)) == 0 else cell for cell in row
        ))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", delimiter * len(refs)])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8"), refs


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [f"--{name}={value}"]))


@st.composite
def invocations(draw):
    """(command, file bytes, flags)."""
    clean = draw(st.booleans())
    pick = chooser(clean)
    command = draw(st.sampled_from(["rank", "rank", "errors", "gaps"]))
    data, refs = draw(pick(delimited_text(clean),
                           st.tuples(st.binary(max_size=64), st.just([]))))
    literal = st.lists(pick(st.sampled_from(["1", "2", "2.37", "2.5"]), EDGE_NUMBERS),
                       min_size=len(refs), max_size=len(refs)).map(",".join)
    solutions = st.one_of(st.sampled_from(["classic", "refined"]), literal)
    excludes = pick(st.sampled_from(refs), TEXT) if refs else TEXT
    flags = [
        draw(option("metric", pick(st.sampled_from(["l1", "l2", "linf", "l3", "l7"]),
                                   st.sampled_from(["l0", "l²", "l" + "9" * 400]) | TEXT))),
        draw(option("solution", pick(solutions, EDGE_NUMBERS))),
        *draw(st.lists(option("exclude", excludes), max_size=2)),
        draw(option("unit", pick(st.sampled_from(["km", "hours", "jornadas"]), TEXT))),
        draw(option("decimal", pick(st.sampled_from(["auto", "dot", "comma"]), TEXT))),
        draw(option("format", st.sampled_from(["md", "csv", "jsonl"]))),
    ]
    if command != "gaps":
        flags.append(draw(option("top", pick(st.integers(1, 30).map(str), EDGE_NUMBERS))))
    return command, data, sum(flags, [])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(invocation=invocations())
def test_every_input_gives_a_result_or_an_error_line(tmp_path_factory, invocation):
    command, data, flags = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([command, f"--data={path}", *flags])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    if code == 0:
        assert out.getvalue()
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
