import errno
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from lpmatch.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_km_classic_l1_matches_golden_table(self, capsys):
        code, out, err = invoke(
            capsys, "rank", "--data", "builtin:km", "--solution", "classic",
            "--metric", "l1", "--top", "5",
        )
        assert code == 0
        assert err == ""
        names = [line.split("|")[1].strip() for line in out.splitlines()
                 if line.startswith("|")][2:]
        assert names == [
            "LUGAR DE LA MANCHA",
            "Villanueva de los Infantes",
            "Carrizosa",
            "Alcubillas",
            "Fuenllana",
            "Cózar",
        ]
        assert "| 16.77 |" in out

    def test_hours_refined_linf_exclude_munera(self, capsys):
        code, out, _ = invoke(
            capsys, "rank", "--data", "builtin:hours", "--solution", "refined",
            "--metric", "linf", "--exclude", "Munera",
        )
        assert code == 0
        first_candidate = [l for l in out.splitlines() if l.startswith("|")][3]
        assert "Villanueva de los Infantes" in first_candidate
        assert "1.37" in first_candidate
        assert "Munera" not in out

    def test_l3_matches_precomputed_oracle(self, capsys):
        # direct-formula oracle over all 24 rows, computed ahead of the build
        code, out, _ = invoke(capsys, "rank", "--metric", "l3", "--top", "2")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert "Villanueva de los Infantes" in rows[3]
        assert "9.84" in rows[3]
        assert "Alcubillas" in rows[4]
        assert "11.26" in rows[4]

    def test_identical_invocations_are_byte_identical(self, capsys):
        args = ("rank", "--data", "builtin:hours", "--metric", "l2")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--metric", "l2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("locality,")

    def test_a_negative_zero_target_prints_as_zero(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--solution=-0,2.37,2.5,2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "LUGAR DE LA MANCHA,0.00,73.47,77.50,62.00,0.00"

    def test_jsonl_format(self, capsys):
        code, out, _ = invoke(capsys, "rank", "--metric", "l2", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["columns"][0] == "locality"
        assert records[1]["locality"] == "LUGAR DE LA MANCHA"

    def test_jsonl_is_strict_json_and_names_stay_strings(self, capsys, tmp_path):
        # every one of these names is a token that float() accepts
        path = tmp_path / "odd.csv"
        path.write_text("name,a,b\nnan,1,2\nInfinity,2,1\n1e5,1.5,1\n1_0,3,3\n",
                        encoding="utf-8")
        argv = ("rank", "--data", str(path), "--solution", "1,1")

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        code, out, _ = invoke(capsys, *argv, "--format", "jsonl")
        assert code == 0
        records = [json.loads(line, parse_constant=refuse) for line in out.splitlines()]
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        csv_names = [line.split(",")[0] for line in out.splitlines()[1:]]
        names = [record["locality"] for record in records[1:]]
        assert names == csv_names
        assert sorted(names[1:]) == ["1E5", "1_0", "Infinity", "Nan"]
        assert all(type(record["d_2"]) is float for record in records[1:])

    @pytest.mark.parametrize("command", ["rank", "errors"])
    def test_jsonl_names_made_of_digits_stay_strings(self, capsys, tmp_path, command):
        path = tmp_path / "digits.csv"
        path.write_text("name,a,b\n007,1,2\n2024,2,1\n", encoding="utf-8")
        code, out, _ = invoke(capsys, command, "--data", str(path), "--solution", "1,1",
                              "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert sorted(record["locality"] for record in records
                      if record["locality"] != "LUGAR DE LA MANCHA") == ["007", "2024"]
        for record in records:
            figures = [value for column, value in record.items() if column != "locality"]
            assert figures and all(type(value) is float for value in figures)
        if command == "errors":
            assert records[0]["rank"] == 1.0

    def test_a_bar_in_a_name_or_a_reference_keeps_the_columns(self, capsys, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("name;a|x;b\nA|B;1;2\nC;2;1\n", encoding="utf-8")
        code, out, _ = invoke(capsys, "rank", "--data", str(path), "--solution", "1,1")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("|")]
        assert r"| A\|B | 1.00 | 2.00 | 41.73 |" in rows
        assert {len(re.findall(r"(?<!\\)\|", row)) for row in rows} == {5}


class TestUsageErrors:
    def test_unknown_metric_exits_2_naming_token(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["rank", "--metric", "l0"])
        assert info.value.code == 2
        assert "l0" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["l²", "l" + "9" * 5000])
    def test_metric_int_cannot_read_exits_2_with_an_error_line(self, capsys, token):
        with pytest.raises(SystemExit) as info:
            run(["rank", "--metric", token])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --metric: unknown metric" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token, message", [
        ("0", "'0' must be >= 1"),
        ("x", "'x' is not an integer"),
        ("1_0", "'1_0' is not an integer"),
        ("٣", "'٣' is not an integer"),
        ("３", "'３' is not an integer"),
    ])
    def test_top_must_be_a_positive_integer(self, capsys, token, message):
        with pytest.raises(SystemExit) as info:
            run(["rank", "--top", token])
        assert info.value.code == 2
        assert f"error: argument --top: {message}\n" in capsys.readouterr().err

    def test_unknown_exclude_reference(self, capsys):
        code, _, err = invoke(capsys, "rank", "--exclude", "El Dorado")
        assert code == 2
        assert "El Dorado" in err

    def test_excluding_every_reference(self, capsys):
        code, _, err = invoke(
            capsys, "rank",
            "--exclude", "Munera", "--exclude", "El Toboso",
            "--exclude", "Puerto Lápice", "--exclude", "Venta de Cárdenas",
        )
        assert code == 2
        assert "exclude" in err

    def test_unknown_builtin_source(self, capsys):
        code, _, err = invoke(capsys, "rank", "--data", "builtin:miles")
        assert code == 2
        assert "builtin:miles" in err

    def test_unreadable_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        code, _, err = invoke(capsys, "rank", "--data", str(missing))
        assert code == 2
        assert "nope.csv" in err

    def test_an_empty_data_path_exits_2_with_an_error_line(self, capsys):
        code, out, err = invoke(capsys, "rank", "--data", "")
        assert (code, out) == (2, "")
        assert err == "error: cannot read data file '': No such file or directory\n"

    def test_non_utf8_file_exits_2_with_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"name;a\nX;1,0\n\xff;2,0\n")
        code, out, err = invoke(capsys, "rank", "--data", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read data file") and "latin1.csv" in err
        assert "Traceback" not in err

    def test_bad_literal_solution(self, capsys):
        code, _, err = invoke(capsys, "rank", "--solution", "fastest")
        assert code == 2
        assert "fastest" in err

    @pytest.mark.parametrize("token", ["2,2.37,2_5,2", "2,2.37,٢,2"])
    def test_literal_solution_values_are_plain_ascii_decimals(self, capsys, token):
        code, out, err = invoke(capsys, "rank", "--solution", token)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown solution {token!r}")

    def test_literal_solution_arity_mismatch(self, capsys):
        code, _, err = invoke(capsys, "rank", "--solution", "2,2.37")
        assert code == 2
        assert "2,2.37" in err


class TestLiteralSolutionWithExclusion:
    def test_binds_to_full_reference_order_before_exclusion(self, capsys):
        code, out, _ = invoke(
            capsys, "rank", "--data", "builtin:hours",
            "--solution", "2,2.42,2.8,2.23", "--metric", "linf",
            "--exclude", "Munera", "--top", "1",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert "Villanueva de los Infantes" in rows[3]
        assert "1.37" in rows[3]
        assert "Munera" not in out


class TestFileData:
    def write_sample(self, tmp_path):
        path = tmp_path / "places.csv"
        path.write_text(
            "name;north;south\nNearby;10,0;20,0\nFaraway;100,0;200,0\n",
            encoding="utf-8",
        )
        return path

    def test_rank_from_file_with_literal_solution(self, capsys, tmp_path):
        path = self.write_sample(tmp_path)
        code, out, _ = invoke(
            capsys, "rank", "--data", str(path), "--unit", "jornadas",
            "--solution", "11,19", "--metric", "l1",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert "Nearby" in rows[3]
        assert "Faraway" in rows[4]

    def test_an_unknown_unit_exits_2_with_an_error_line(self, capsys, tmp_path):
        path = self.write_sample(tmp_path)
        code, out, err = invoke(capsys, "rank", "--data", str(path), "--unit", "miles")
        assert (code, out) == (2, "")
        assert err == "error: unknown unit 'miles'\n"

    def test_malformed_file_content_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name;a;b\nX;1,0\n", encoding="utf-8")
        code, _, err = invoke(capsys, "rank", "--data", str(path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("cell", ["1_0", "١٢"])
    def test_a_cell_that_only_float_reads_exits_1(self, capsys, tmp_path, cell):
        path = tmp_path / "digits.csv"
        path.write_text(f"name,a\nX,1\nY,{cell}\n", encoding="utf-8")
        code, out, err = invoke(capsys, "rank", "--data", str(path), "--solution", "2")
        assert (code, out) == (1, "")
        assert err == f"error: line 3, column 2: {cell!r} is not a number\n"

    def test_field_over_the_csv_size_limit_exits_1(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("name,a\nX,1\nY," + "1" * 200_000 + "\n", encoding="utf-8")
        code, out, err = invoke(capsys, "rank", "--data", str(path), "--solution", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: field larger than field limit")

    def test_builtin_solution_against_mismatched_file_exits_1(self, capsys, tmp_path):
        path = self.write_sample(tmp_path)
        code, _, err = invoke(
            capsys, "rank", "--data", str(path), "--unit", "km", "--solution", "classic"
        )
        assert code == 1
        assert "error:" in err


class TestFileShapes:
    """One table spelt four ways that csv reads alike: '\\n' and '\\r\\n'
    line ends, every name quoted, and a trailing blank line."""

    LINES = ("name,north,south", "Nearby,10,20", "Faraway,40,30", "Midway,20,25")

    def shapes(self, tmp_path, lines):
        quoted = [lines[0]] + ['"{}",{}'.format(*line.split(",", 1)) for line in lines[1:]]
        texts = {"lf": "\n".join(lines) + "\n", "crlf": "\r\n".join(lines) + "\r\n",
                 "quoted": "\n".join(quoted) + "\n", "blank": "\n".join(lines) + "\n\n"}
        for name, text in texts.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode("utf-8"))  # no newline translation
            yield path

    @pytest.mark.parametrize("command", ["rank", "gaps"])
    def test_every_shape_prints_the_same_csv(self, capsys, tmp_path, command):
        printed = set()
        for path in self.shapes(tmp_path, self.LINES):
            code, out, err = invoke(capsys, command, "--data", str(path), "--unit", "jornadas",
                                    "--solution", "11,19", "--format", "csv")
            assert (code, err) == (0, "")
            printed.add(out)
        (out,) = printed
        assert "Nearby" in out and "Midway" in out

    def test_a_short_last_row_exits_1_in_every_shape(self, capsys, tmp_path):
        lines = self.LINES[:-1] + (self.LINES[-1].rsplit(",", 1)[0],)
        for path in self.shapes(tmp_path, lines):
            code, out, err = invoke(capsys, "rank", "--data", str(path), "--unit", "jornadas",
                                    "--solution", "11,19", "--format", "csv")
            assert (code, out) == (1, "")
            assert err == "error: line 4: expected 3 fields, found 2\n"


class TestErrorsCommand:
    def test_classic_km_l1_golden(self, capsys):
        code, out, _ = invoke(capsys, "errors", "--metric", "l1")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert len(rows) == 2 + 3  # header + separator + top 3
        assert "Villanueva de los Infantes" in rows[2]
        assert "6.10" in rows[2]

    def test_top_flag(self, capsys):
        code, out, _ = invoke(capsys, "errors", "--metric", "l2", "--top", "1")
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        assert len(rows) == 3


class TestGapsCommand:
    def test_refined_km_no_munera_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "gaps", "--data", "builtin:km", "--solution", "refined",
            "--exclude", "Munera",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("|")]
        mean_row = rows[-1]
        assert "mean" in mean_row
        mean = float(mean_row.rstrip("|").rsplit("|", 1)[-1])
        assert mean == pytest.approx(3.06, abs=0.02)

    def test_metric_flag_is_accepted_but_family_fixed(self, capsys):
        code, out, _ = invoke(capsys, "gaps", "--metric", "l7")
        assert code == 0
        assert "L_inf" in out and "L_1" in out and "L_2" in out
        assert "L_7" not in out


class TestSweepCommand:
    def test_runs_and_is_deterministic(self, capsys):
        code, first, _ = invoke(capsys, "sweep")
        assert code == 0
        assert first.count("# L_") == 24  # one ranking document per configuration
        code, second, _ = invoke(capsys, "sweep")
        assert first == second

    def test_contains_summary(self, capsys):
        _, out, _ = invoke(capsys, "sweep")
        assert "Analysis summary" in out

    def test_jsonl_sweep_is_a_pure_record_stream(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--format", "jsonl")
        assert code == 0
        for line in out.splitlines():
            json.loads(line)


class TestReproduceCommand:
    def test_writes_documents_and_lists_them(self, capsys, tmp_path):
        outdir = tmp_path / "docs"
        code, out, _ = invoke(capsys, "reproduce", "--outdir", str(outdir))
        assert code == 0
        listed = [line for line in out.splitlines() if line]
        assert len(listed) == 29
        assert (outdir / "table_27.md").exists()
        assert (outdir / "summary.md").exists()

    def test_jsonl_format(self, capsys, tmp_path):
        outdir = tmp_path / "docs"
        code, _, _ = invoke(capsys, "reproduce", "--outdir", str(outdir), "--format", "jsonl")
        assert code == 0
        assert (outdir / "table_28.jsonl").exists()

    def test_a_non_utf8_outdir_is_listed_under_a_strict_stdout(self, tmp_path):
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-m", "lpmatch", "reproduce", "--outdir",
                               os.fsdecode(b"\xfe")], cwd=tmp_path, env=env,
                              capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[0] == b"\xfe/summary.md"
        assert len(os.listdir(tmp_path / os.fsdecode(b"\xfe"))) == 29

    def test_a_closed_stdout_still_gets_the_usage_error(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        done = subprocess.run(["/bin/sh", "-c", 'exec "$0" -m lpmatch rank --metric x 1>&-',
                               sys.executable], env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.endswith("error: argument --metric: unknown metric 'x'\n")

    def test_unwritable_outdir_exits_1(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code, _, err = invoke(capsys, "reproduce", "--outdir", str(blocker / "sub"))
        assert code == 1
        assert "error:" in err

    def test_an_empty_outdir_exits_1_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # Path("") is the current directory, which must not receive the documents
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, "reproduce", "--outdir", "")
        assert code == 1
        assert out == ""
        assert err == "error: outdir must be a non-empty path without NUL, got ''\n"
        assert list(tmp_path.iterdir()) == []


class TestUnwritableStdout:
    """Output that stdout cannot take ends in an error line and exit 1.

    Each run has a buffered stdout, as under a plain shell, unless a case sets
    PYTHONUNBUFFERED: output smaller than the buffer only fails when it is
    flushed.
    """

    @staticmethod
    def environment(**env):
        base = dict(os.environ)
        base.pop("PYTHONUNBUFFERED", None)
        env = dict(base, **env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        return env

    def run_shell(self, command, **env):
        return subprocess.run(["/bin/sh", "-c", command, sys.executable],
                              env=self.environment(**env), capture_output=True, text=True)

    def test_a_name_the_stdout_encoding_lacks(self):
        # the ranking of the built-in table shows accented names, such as 'Cózar'
        done = self.run_shell('exec "$0" -m lpmatch rank', PYTHONIOENCODING="ascii")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: cannot write the output: 'ascii' codec")
        assert done.stderr.count("\n") == 1

    def test_a_closed_stdout(self):
        done = self.run_shell('exec "$0" -m lpmatch rank 1>&-')
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: cannot write the output: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command, env", [("rank", {}), ("--help", {}),
                                              ("--help", {"PYTHONUNBUFFERED": "1"})],
                             ids=["rank", "--help", "--help-unbuffered"])
    def test_a_full_device(self, command, env):
        done = self.run_shell(f'exec "$0" -m lpmatch {command} >/dev/full', **env)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("command, env", [("rank", {}), ("sweep", {}), ("--help", {}),
                                              ("--help", {"PYTHONUNBUFFERED": "1"})],
                             ids=["rank", "sweep", "--help", "--help-unbuffered"])
    def test_a_pipe_whose_reader_is_gone(self, command, env):
        # rank's output and the help fit in the buffer, sweep's does not
        reader, writer = os.pipe()
        os.close(reader)
        try:
            done = subprocess.run([sys.executable, "-m", "lpmatch", command],
                                  env=self.environment(**env), stdout=writer,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")

    def test_a_stdout_without_a_file_descriptor(self, capsys, monkeypatch):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStream())
        assert run(["rank"]) == 1
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUnwritableStderr:
    """An error with stderr closed or full keeps its exit code and leaves stdout empty."""

    def run_shell(self, redirect, *argv):
        return subprocess.run(["/bin/sh", "-c", f'exec "$0" -m lpmatch "$@" {redirect}',
                               sys.executable, *argv],
                              env=TestUnwritableStdout.environment(), capture_output=True,
                              text=True)

    @pytest.mark.parametrize("redirect", [
        "2>&-",
        pytest.param("2>/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ])
    @pytest.mark.parametrize("argv, code", [
        (("rank", "--data", "missing.csv"), 2),
        (("rank", "--bogus"), 2),
        (("rank", "--solution", "1e308,2.37,2.5,2"), 1),
    ], ids=["missing-data", "unknown-option", "overflowing-solution"])
    def test_an_error_keeps_its_exit_code(self, tmp_path, redirect, argv, code):
        argv = [str(tmp_path / part) if part == "missing.csv" else part for part in argv]
        done = self.run_shell(redirect, *argv)
        assert (done.returncode, done.stdout) == (code, "")

    def test_a_closed_stderr_leaves_the_result_whole(self):
        plain = self.run_shell("", "rank")
        done = self.run_shell("2>&-", "rank")
        assert (done.returncode, done.stdout) == (0, plain.stdout)
        assert plain.stdout.startswith("#")

    def test_no_stderr_in_process(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stderr", None)
        assert run(["rank", "--data", str(tmp_path / "missing.csv")]) == 2
        assert capsys.readouterr().out == ""

    def test_no_stderr_in_process_for_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as info:
            run(["rank", "--bogus"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


class TestOverflowInputs:
    """Finite inputs beyond what a double holds end in a result or a clean error."""

    def write(self, tmp_path, *rows):
        path = tmp_path / "huge.csv"
        path.write_text("name;a;b;c\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8")
        return path

    def test_huge_order_ranks_by_the_peak_difference(self, capsys):
        huge = "l" + "7" * 400
        code, out, err = invoke(capsys, "rank", "--metric", huge, "--format", "csv", "--top", "24")
        assert (code, err) == (0, "")
        _, linf, _ = invoke(capsys, "rank", "--metric", "linf", "--format", "csv", "--top", "24")
        # the exact Ln distance of so large an order rounds to the largest difference
        assert out.splitlines()[1:] == linf.splitlines()[1:]
        assert out.splitlines()[0].endswith(",d_" + huge[1:])

    @pytest.mark.parametrize("command,metric", [
        ("rank", "l1"), ("rank", "l2"), ("rank", "l3"), ("rank", "linf"),
        ("errors", "l1"), ("gaps", "l1"),
    ])
    def test_distances_beyond_the_largest_double_exit_1(self, capsys, tmp_path, command, metric):
        path = self.write(tmp_path, "x;1,7e308;1,7e308;1,7e308", "y;1,6e308;1,7e308;1,5e308")
        code, out, err = invoke(capsys, command, "--data", str(path), "--solution", "1,2,3",
                                "--metric", metric)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "exceeds the largest double" in err

    def test_a_target_that_converts_past_the_largest_double_exits_1(self, capsys):
        code, out, err = invoke(capsys, "rank", "--solution", "1e308,2.37,2.5,2")
        assert (code, out) == (1, "")
        assert err == ("error: distance for 'Venta de Cárdenas' exceeds the largest double "
                       "in kilometers (1e+308 jornadas at 31.0 per jornada)\n")

    def test_large_finite_cells_render_in_full(self, capsys, tmp_path):
        path = self.write(tmp_path, "x;1e300;2e300;3e300", "y;1,5e300;1e300;1e300")
        code, out, err = invoke(capsys, "rank", "--data", str(path), "--solution", "1,2,3",
                                "--metric", "linf", "--format", "csv")
        assert (code, err) == (0, "")
        cells = [f"{int(Decimal(v))}.00" for v in ("1.5e300", "1e300", "1e300", "1.5e300")]
        assert out.splitlines()[2] == ",".join(["Y"] + cells)


# --help of lpmatch and of each subcommand at 80 columns, byte for byte; the
# text is the same under Python 3.10 to 3.13
HELP = {
    "": """\
usage: lpmatch [-h] {rank,errors,gaps,sweep,reproduce} ...

Rank candidates by Minkowski-metric closeness of their distance profiles to a
target profile.

positional arguments:
  {rank,errors,gaps,sweep,reproduce}
    rank                rank candidates by distance to the target
    errors              relative errors of the closest candidates
    gaps                second-minus-first gap analysis
    sweep               run the full built-in analysis grid
    reproduce           write the complete document set

options:
  -h, --help            show this help message and exit
""",
    "rank": """\
usage: lpmatch rank [-h] [--data DATA] [--unit UNIT]
                    [--decimal {auto,dot,comma}] [--solution SOLUTION]
                    [--exclude REFERENCE] [--top TOP]
                    [--format {md,csv,jsonl}] [--metric METRIC]

options:
  -h, --help            show this help message and exit
  --data DATA           data source: builtin:km, builtin:hours, or a path to a
                        delimiter-separated file (default: builtin:km)
  --unit UNIT           unit of a file data source: km, hours or jornadas
                        (default: km); ignored for builtin sources
  --decimal {auto,dot,comma}
                        decimal separator of a file data source (default:
                        auto)
  --solution SOLUTION   target profile: 'classic', 'refined', or a comma-
                        separated list of jornada values bound positionally to
                        the data's reference order (default: classic)
  --exclude REFERENCE   drop a reference point from both the data and the
                        solution; repeatable
  --top TOP             number of candidates to show (default: 5)
  --format {md,csv,jsonl}
                        output format (default: md)
  --metric METRIC       l1, l2, linf or l<n> (default: l2)
""",
    "errors": """\
usage: lpmatch errors [-h] [--data DATA] [--unit UNIT]
                      [--decimal {auto,dot,comma}] [--solution SOLUTION]
                      [--exclude REFERENCE] [--top TOP]
                      [--format {md,csv,jsonl}] [--metric METRIC]

options:
  -h, --help            show this help message and exit
  --data DATA           data source: builtin:km, builtin:hours, or a path to a
                        delimiter-separated file (default: builtin:km)
  --unit UNIT           unit of a file data source: km, hours or jornadas
                        (default: km); ignored for builtin sources
  --decimal {auto,dot,comma}
                        decimal separator of a file data source (default:
                        auto)
  --solution SOLUTION   target profile: 'classic', 'refined', or a comma-
                        separated list of jornada values bound positionally to
                        the data's reference order (default: classic)
  --exclude REFERENCE   drop a reference point from both the data and the
                        solution; repeatable
  --top TOP             number of candidates to show (default: 3)
  --format {md,csv,jsonl}
                        output format (default: md)
  --metric METRIC       l1, l2, linf or l<n> (default: l2)
""",
    "gaps": """\
usage: lpmatch gaps [-h] [--data DATA] [--unit UNIT]
                    [--decimal {auto,dot,comma}] [--solution SOLUTION]
                    [--exclude REFERENCE] [--format {md,csv,jsonl}]
                    [--metric METRIC]

options:
  -h, --help            show this help message and exit
  --data DATA           data source: builtin:km, builtin:hours, or a path to a
                        delimiter-separated file (default: builtin:km)
  --unit UNIT           unit of a file data source: km, hours or jornadas
                        (default: km); ignored for builtin sources
  --decimal {auto,dot,comma}
                        decimal separator of a file data source (default:
                        auto)
  --solution SOLUTION   target profile: 'classic', 'refined', or a comma-
                        separated list of jornada values bound positionally to
                        the data's reference order (default: classic)
  --exclude REFERENCE   drop a reference point from both the data and the
                        solution; repeatable
  --format {md,csv,jsonl}
                        output format (default: md)
  --metric METRIC       accepted for interface symmetry; gaps always evaluate
                        the L_inf, L_1, L_2 family
""",
    "sweep": """\
usage: lpmatch sweep [-h] [--format {md,csv,jsonl}]

options:
  -h, --help            show this help message and exit
  --format {md,csv,jsonl}
                        output format (default: md)
""",
    "reproduce": """\
usage: lpmatch reproduce [-h] --outdir OUTDIR [--format {md,csv,jsonl}]

options:
  -h, --help            show this help message and exit
  --outdir OUTDIR       output directory
  --format {md,csv,jsonl}
                        document format (default: md)
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(HELP), ids=lambda command: command or "lpmatch")
    def test_help_text_is_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            run([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr() == (HELP[command], "")

    def test_gaps_takes_no_top(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["gaps", "--top", "3"])
        assert info.value.code == 2
        assert capsys.readouterr() == ("", (
            "usage: lpmatch [-h] {rank,errors,gaps,sweep,reproduce} ...\n"
            "lpmatch: error: unrecognized arguments: --top 3\n"))
