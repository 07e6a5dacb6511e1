"""Count the code lines of Python modules.

    python tools/code_lines.py [paths]

A code line holds at least one token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER; a token that spans several lines, such as a
triple-quoted string, makes each of them a code line.  The docstrings of
modules, classes and functions are left out, so blank, comment and
docstring lines are not counted.  Each path is a module or a directory,
searched recursively for ``*.py``; the default is ``src/lpmatch`` of this
checkout.  Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# ENCODING is tokenize's own marker before line 1, not a token of the text
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the module at ``path``."""
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def _modules(paths: list[Path]) -> list[Path]:
    return [module for path in paths
            for module in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src" / "lpmatch"]
    total = 0
    for module in _modules(paths):
        count = code_lines(module)
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
