"""Importing the CLI loads only what its commands need.

``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) and ``json`` cost start-up time in every ``lpmatch`` process.
The records are named tuples and ``json`` is imported by the jsonl writer
itself, so a fresh interpreter that imports ``lpmatch.cli`` loads neither.
The check compares with a bare interpreter in the same environment, so
modules that ``site`` loads on its own do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
START_UP_ONLY = {"dataclasses", "inspect", "json"}


def loaded_modules(statement: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    bare = loaded_modules("pass")
    cli = loaded_modules("import lpmatch.cli")
    assert "lpmatch.cli" in cli
    assert sorted((cli - bare) & START_UP_ONLY) == []
