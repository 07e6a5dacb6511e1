"""Importing the library or the CLI loads only what its commands need.

``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``), ``json``, ``typing``, ``pathlib``, ``decimal`` and ``csv`` cost
start-up time in every ``lpmatch`` process.  The records are
``collections.namedtuple`` classes, ``format_2dp`` rounds in integer
arithmetic, and ``json``, ``pathlib`` and ``csv`` are imported by the code
that needs them, so a fresh interpreter that imports ``lpmatch.cli`` or
``lpmatch.paper`` loads none of them, no command ever loads ``decimal``, and
parsing a table without quotes leaves ``csv`` unloaded.  Nor does
``import lpmatch`` or ``import lpmatch.cli`` load ``lpmatch.paper``, the
paper's grid and documents: the package resolves those names on first use.
Both interpreters of a comparison run with ``-S``, so modules that a
``site`` hook of the host preloads can hide nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
START_UP_ONLY = {"dataclasses", "inspect", "json", "lpmatch.paper", "typing", "pathlib",
                 "decimal", "csv"}

# every name the package exported before the paper grid moved to lpmatch.paper
EXPORTED = (
    "BUILTIN_SOLUTIONS CLASSIC_SOLUTION REFINED_SOLUTION STANDARD_METRICS Configuration "
    "FamilyStats GapRecord GapReport GridSummary RankingEntry SolutionProfile SweepResult "
    "gap_report rank_candidates relative_error_percent run_builtin_grid summarize_conclusions "
    "sweep target_profile top_k DEFAULT_RATES ConversionRates MetricSpec Profile Unit convert "
    "fold_name magnitude metric_distance REFERENCES DistanceTable builtin_table normalize_name "
    "parse_table serialize_table subset_references InvalidValue LpmatchError ParseError "
    "EXTERNAL_ERROR_ROWS FORMATS TARGET_LABEL ExternalResultRow RenderedTable build_error_table "
    "build_gap_table build_ranking_table build_summary_table format_2dp write_document_set "
    "__version__"
).split()


def run_clean(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def loaded_modules(statement: str) -> set[str]:
    return set(run_clean(f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))").split())


def test_cli_import_loads_no_start_up_only_module():
    bare = loaded_modules("pass")
    cli = loaded_modules("import lpmatch.cli")
    assert "lpmatch.cli" in cli
    assert sorted((cli - bare) & START_UP_ONLY) == []


def test_paper_import_loads_no_typing_pathlib_decimal_or_csv():
    bare = loaded_modules("pass")
    paper = loaded_modules("import lpmatch.paper")
    assert "lpmatch.paper" in paper
    assert sorted((paper - bare) & {"typing", "pathlib", "decimal", "csv"}) == []


def test_a_quote_free_table_parses_without_csv():
    code = ("import sys\n"
            "from lpmatch import Unit, parse_table, dataset\n"
            "text = 'name;a;b\\nX;1,5;2\\nY;3;4\\n'\n"
            "table = parse_table(text, unit=Unit.HOURS)\n"
            "print(len(table), 'csv' in sys.modules)\n"
            "quoted = parse_table('name;a\\n\"X;Y\";1\\n', unit=Unit.HOURS)\n"
            "import csv\n"
            "print(quoted.candidates, 'csv' in sys.modules,\n"
            "      csv.field_size_limit() == dataset._FIELD_SIZE_LIMIT)")
    assert run_clean(code).split("\n")[:2] == ["2 False", "('X;Y',) True True"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--format", "md"], ["sweep", "--format", "csv"], ["sweep", "--format", "jsonl"],
    ["reproduce", "--format", "md"], ["reproduce", "--format", "csv"],
    ["reproduce", "--format", "jsonl"], ["rank"], ["errors"], ["gaps"],
], ids=" ".join)
def test_no_command_loads_decimal(argv, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("name,a,b\nX,31.5,62\nY,40,50.25\nZ,12.125,90\n", encoding="utf-8")
    if argv[0] == "reproduce":
        argv = argv + ["--outdir", str(tmp_path / "docs")]
    elif argv[0] != "sweep":
        argv = argv + ["--data", str(data), "--solution", "1,2"]
    code = ("import sys\n"
            "from lpmatch.cli import run\n"
            f"code = run({argv!r})\n"
            "print()\n"
            "print(code, 'decimal' in sys.modules)")
    assert run_clean(code).splitlines()[-1] == "0 False"


def test_package_import_loads_no_paper():
    loaded = loaded_modules("import lpmatch")
    assert "lpmatch" in loaded
    assert "lpmatch.paper" not in loaded


def test_every_exported_name_still_resolves():
    code = ("import sys, lpmatch\n"
            f"missing = [n for n in {EXPORTED!r} if not hasattr(lpmatch, n)]\n"
            "from lpmatch import cli, sweep\n"
            "print(missing, 'lpmatch.paper' in sys.modules, sweep is lpmatch.paper.sweep)")
    assert run_clean(code).split("\n")[0] == "[] True True"


def test_lazy_names_are_the_public_names_of_paper():
    import lpmatch
    from lpmatch import paper

    assert lpmatch._PAPER_NAMES == set(paper.__all__)
    assert all(getattr(lpmatch, name) is getattr(paper, name) for name in paper.__all__)
    with pytest.raises(AttributeError, match="^module 'lpmatch' has no attribute 'no_such_name'$"):
        lpmatch.no_such_name


def test_the_package_exports_each_module_all_and_five_report_names():
    code = ("import lpmatch\n"
            "from lpmatch import analysis, core, dataset, errors\n"
            "names = {n for m in (analysis, core, dataset, errors) for n in m.__all__}\n"
            "names |= {'FORMATS', 'TARGET_LABEL', 'RenderedTable', 'build_ranking_table',\n"
            "          'format_2dp', 'analysis', 'core', 'dataset', 'errors', 'report'}\n"
            "public = {n for n in vars(lpmatch) if not n.startswith('_')}\n"
            "print(sorted(public ^ names))")
    assert run_clean(code) == "[]\n"


def test_importing_names_and_the_cli_from_the_package_loads_no_paper():
    # the worker's import: 'cli' is no package name, so it reaches __getattr__
    loaded = loaded_modules("from lpmatch import Unit, cli")
    assert "lpmatch.cli" in loaded
    assert "lpmatch.paper" not in loaded
