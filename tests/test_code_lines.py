"""``tools/code_lines.py`` counts code lines, leaving out blank, comment and
docstring lines; a directory's total is the sum of its modules."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# tools/ is not a package, so the script is loaded from its file
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# every line's comment says whether it is a code line
MODULE = textwrap.dedent('''\
    """A module docstring,
    over two lines."""

    # a comment-only line
    import os  # code

    TEXT = """a string that is not a docstring,
    over two lines"""  # code, both lines


    class Thing:  # code
        """A class docstring."""

        def method(self):  # code
            """A function docstring,
            over two lines."""
            # a comment-only line in a body
            total = 1 + \\
                2  # code, both lines of the continuation
            """A string after the docstring is code."""
            return os.sep, total  # code
    ''')


def test_a_module_counts_its_code_lines_only(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(MODULE, encoding="utf-8")
    assert code_lines.code_lines(module) == 9


def test_a_directory_total_is_the_sum_of_its_modules(tmp_path, capsys):
    (tmp_path / "inner").mkdir()
    modules = [tmp_path / "a.py", tmp_path / "inner" / "b.py", tmp_path / "c.py"]
    modules[0].write_text(MODULE, encoding="utf-8")
    modules[1].write_text("x = 1\n\ny = (\n    2)\n", encoding="utf-8")
    modules[2].write_text('"""Only a docstring."""\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not = python\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = [line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()]
    counts = {Path(path): int(count) for count, path in lines[:-1]}
    assert counts == dict(zip(modules, (9, 3, 0)))
    assert counts == {module: code_lines.code_lines(module) for module in modules}
    assert lines[-1] == ["12", "total"]
