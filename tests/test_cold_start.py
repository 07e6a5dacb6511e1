"""Importing the library or the CLI loads only what its commands need.

``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) and ``json`` cost start-up time in every ``lpmatch`` process.
The records are named tuples and ``json`` is imported by the jsonl writer
itself, so a fresh interpreter that imports ``lpmatch.cli`` loads neither.
Nor does ``import lpmatch`` or ``import lpmatch.cli`` load ``lpmatch.paper``,
the paper's grid and documents: the package resolves those names on first
use.  Both interpreters of a comparison run with ``-S``, so modules that a
``site`` hook of the host preloads can hide nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
START_UP_ONLY = {"dataclasses", "inspect", "json", "lpmatch.paper"}

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


def test_cli_import_loads_no_dataclasses_inspect_json_or_paper():
    bare = loaded_modules("pass")
    cli = loaded_modules("import lpmatch.cli")
    assert "lpmatch.cli" in cli
    assert sorted((cli - bare) & START_UP_ONLY) == []


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
