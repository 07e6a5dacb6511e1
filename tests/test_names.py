"""One name key: every spelling that a table accepts finds its name.

A table keys each reference and candidate by ``fold_name`` of the spelling
it was given, and every lookup (``subset_references``, a ranking profile,
``row_values``, the CLI's ``--exclude``) folds the spelling it is given with
the same function.  So any re-spelling of a name (upper case, accents
stripped, extra spaces, the dotless ı, the alternate spelling Fuencollana)
finds it.
"""

import contextlib
import io
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmatch.analysis import rank_candidates
from lpmatch.cli import run
from lpmatch.core import MetricSpec, Profile, Unit, fold_name
from lpmatch.dataset import DistanceTable, subset_references
from lpmatch.errors import InvalidValue

ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
ACCENTED = "áéíóúñçüÁÉÍÓÚÑÇÜ"
KNOWN = ["Fuencollana", "Fuenllana", "ıbiza", "Kırıkkale", "Venta de Cárdenas",
         "Puerto Lápice", "El Toboso", "Munera", "Cózar"]

names = st.one_of(
    st.text(st.sampled_from(ASCII + " "), min_size=1, max_size=10),
    st.text(st.sampled_from(ASCII + ACCENTED + "ı "), min_size=1, max_size=10),
    st.sampled_from(KNOWN),
).filter(str.strip)


def respellings(name):
    """``name`` as given, upper-cased, without accents and with extra spaces."""
    unmarked = "".join(ch for ch in unicodedata.normalize("NFKD", name)
                       if not unicodedata.combining(ch))
    return [name, name.upper(), unmarked, "  " + "   ".join(name.split()) + " "]


def cli_exit(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(list(argv))


@given(st.lists(names, min_size=2, max_size=4, unique_by=fold_name),
       st.lists(names, min_size=1, max_size=4, unique_by=fold_name))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_every_spelling_a_table_accepts_finds_its_name(tmp_path_factory, refs, candidates):
    rows = [(name, [float(i + j + 1) for j in range(len(refs))])
            for i, name in enumerate(candidates)]
    table = DistanceTable(Unit.HOURS, refs, rows)
    assert table._keys == tuple(map(fold_name, refs))
    assert tuple(table._index) == tuple(map(fold_name, candidates))

    for name, values in rows:
        for spelling in respellings(name):
            assert table.row_values(spelling) == tuple(values)

    path = tmp_path_factory.mktemp("names") / "table.csv"
    lines = [["name"] + refs] + [[name] + list(map(repr, values)) for name, values in rows]
    path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    solution = ",".join(["1"] * len(refs))
    for i, ref in enumerate(refs):
        for spelling in respellings(ref):
            assert subset_references(table, [spelling]).references == (table.references[i],)
            assert cli_exit("rank", "--data", str(path), "--unit", "hours",
                            "--solution", solution, "--exclude", spelling) == 0

    for k in range(4):
        spelled = [respellings(ref)[k] for ref in reversed(refs)]
        target = Profile(spelled, [1.0] * len(refs), Unit.HOURS)
        ranking = rank_candidates(table, target, MetricSpec(1))
        assert sorted(entry.candidate for entry in ranking) == sorted(table.candidates)


@pytest.mark.parametrize("ref", ["Fuencollana", "ıbiza"])
def test_a_header_spelling_finds_its_reference(tmp_path, ref):
    table = DistanceTable(Unit.HOURS, (ref, "b"), [("X", (1.0, 2.0)), ("Y", (2.0, 1.0))])
    assert subset_references(table, [ref]).references == (table.references[0],)
    ranking = rank_candidates(table, Profile((ref, "b"), (1.0, 2.0), Unit.HOURS), MetricSpec(2))
    assert [entry.candidate for entry in ranking] == ["X", "Y"]
    path = tmp_path / "f.csv"
    path.write_text(f"name,{ref},b\nX,1,2\nY,2,1\n", encoding="utf-8")
    assert cli_exit("rank", "--data", str(path), "--solution", "1,1", "--exclude", ref) == 0


def test_dotless_i_and_the_alternate_spelling_fold_to_one_key():
    assert fold_name("ı") == fold_name("I") == "i"
    assert fold_name(" FUENCOLLANA ") == fold_name("Fuenllana") == "fuenllana"
    with pytest.raises(InvalidValue, match="unique"):
        Profile(("Xıb", "Xib"), (1.0, 2.0), Unit.HOURS)
    with pytest.raises(InvalidValue, match="duplicate reference"):
        DistanceTable(Unit.HOURS, ("Xıb", "Xib"), [("X", (1.0, 2.0))])
