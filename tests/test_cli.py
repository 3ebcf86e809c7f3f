"""Command-line interface: commands, output modes, exit codes."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import promisekit
from promisekit import cli, corpus
from promisekit.cli import entry, main
from promisekit.dsl import parse

from loaders import run_cli

CLEAN = str(corpus.path("web.pml"))
GEOMETRY = str(corpus.path("geometry.pml"))
BANK = str(corpus.path("bank.pml"))
#: A model that resolves with one W-AUTONOMY-001 warning, at 4:1.
WARNING_MODEL = "agent a, b;\ntype w: num;\nflag f;\na -> b: give w = 1 if f;\n"
ACCENTED_MODEL = "agent \u00e9, b;\ntype w: num;\n\u00e9 -> b: give w = 1;\n"


def run_module(argv: list, **env: str) -> subprocess.CompletedProcess:
    """``python -m promisekit ARGV`` in a new process, output as bytes."""
    src = str(Path(promisekit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "promisekit", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath, **env},
    )


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.pml"
    path.write_text("agent a\nagent a {\n")
    return str(path)


@pytest.fixture
def overlap_file(tmp_path):
    path = tmp_path / "overlap.pml"
    path.write_text(
        corpus.read("bank.pml") + "\naccount -> person: use priv_update;\n"
    )
    return str(path)


class TestExitCodes:
    def test_clean_check_exits_zero(self, capsys):
        assert main(["check", CLEAN]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_policy_violation_exits_one(self, overlap_file, capsys):
        assert main(["check", overlap_file]) == 1
        out = capsys.readouterr().out
        assert "channel-overlap" in out

    def test_parse_error_exits_two(self, broken_file, capsys):
        assert main(["check", broken_file]) == 2
        out = capsys.readouterr().out
        assert "E-PARSE" in out

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.pml")
        assert main(["check", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pml"
        path.write_bytes(b"agent a\xff;\n")
        for command in ("check", "roles", "classes", "dot"):
            assert main([command, str(path)]) == 2
            assert f"pml: cannot read {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "roles", "classes", "isa", "dot"])
    @pytest.mark.parametrize(
        "case, content",
        [
            ("missing", None),
            ("non-utf8", b"agent a\xff;\n"),
            ("parse", b"agent a\nagent a {\n"),
            ("resolve", b"agent a;\na -> b: give width;\n"),
        ],
    )
    def test_unusable_input_contract(self, command, case, content, tmp_path, capsys):
        """Every command on one file it cannot use: exit 2; a read failure
        goes to stderr with no report; diagnostics come as a report on
        stdout, except for dot, which prints them on stderr and no graph."""
        path = tmp_path / f"{case}.pml"
        if content is not None:
            path.write_bytes(content)
        argv = [command, str(path)] + (["Child", "Parent"] if command == "isa" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        if case in ("missing", "non-utf8"):
            reason = {
                "missing": "No such file or directory",
                "non-utf8": "'utf-8' codec can't decode byte 0xff in position 7: "
                "invalid start byte",
            }[case]
            assert (captured.out, captured.err) == ("", f"pml: cannot read {path}: {reason}\n")
            return
        diagnostics = {
            "parse": f"{path}:2:1: error[E-PARSE-001]: expected ';', found keyword 'agent'\n"
            f"{path}:2:9: error[E-PARSE-001]: expected ';', found '{{'\n",
            "resolve": f"{path}:2:6: error[E-RESOLVE-001]: unknown agent 'b'\n"
            f"{path}:2:14: error[E-RESOLVE-002]: unknown type or flag 'width'\n",
        }[case]
        if command == "dot":
            assert (captured.out, captured.err) == ("", diagnostics)
        else:
            assert (captured.out, captured.err) == (diagnostics + "no findings\n", "")

    # dot prints input errors on stderr and writes no file, so it has no
    # "broken" case.
    @pytest.mark.parametrize(
        "command, source",
        [(c, "model") for c in ("check", "roles", "classes", "isa", "dot")]
        + [(c, "broken") for c in ("check", "roles", "classes", "isa")],
    )
    @pytest.mark.parametrize(
        "target, reason",
        [("missing-dir", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_unwritable_output_path(
        self, command, source, target, reason, broken_file, tmp_path, capsys
    ):
        """An -o path that cannot be opened: exit 2, nothing on stdout and one
        line on stderr, also when the report only lists input errors."""
        output = tmp_path / "missing" / "out.txt" if target == "missing-dir" else tmp_path
        path = GEOMETRY if source == "model" else broken_file
        argv = [command, path] + (["Square", "Rectangle"] if command == "isa" else [])
        assert main(argv + ["-o", str(output)]) == 2
        assert capsys.readouterr() == ("", f"pml: cannot write {output}: {reason}\n")

    def test_output_file_keeps_the_bytes_of_an_undecodable_name(self, tmp_path, capsys):
        """A path byte that is not UTF-8 reaches the -o file as that byte."""
        path = tmp_path / os.fsdecode(b"m\xff.pml")
        path.write_text(WARNING_MODEL)
        target = tmp_path / "out.txt"
        assert main(["check", str(path), "-o", str(target)]) == 0
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes().startswith(
            os.fsencode(f"{path}:4:1: warning[W-AUTONOMY-001]: ")
        )

    def test_json_writes_an_undecodable_name_as_the_replacement_character(
        self, tmp_path, capsys
    ):
        """Every string of a JSON report is valid Unicode: the path, and the
        path prefix of each finding when several files are checked."""
        paths = []
        for name in (b"m\xff.pml", b"n\xfe.pml"):
            path = tmp_path / os.fsdecode(name)
            path.write_text(WARNING_MODEL + "a -> b: give w = 1;\na -> b: give w = 2;\n")
            paths.append(str(path))
        assert main(["check", *paths, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        # Strict UTF-8 raises on a lone surrogate in any string of the report.
        json.dumps(data, ensure_ascii=False).encode("utf-8")
        assert [f["path"] for f in data["files"]] == [
            str(tmp_path / "m\ufffd.pml"), str(tmp_path / "n\ufffd.pml")
        ]
        assert data["findings"] and all(
            f["message"].startswith(str(tmp_path / "m\ufffd.pml: "))
            or f["message"].startswith(str(tmp_path / "n\ufffd.pml: "))
            for f in data["findings"]
        )

    @pytest.mark.parametrize("case", ["dot-warning", "cannot-read", "cannot-write", "isa"])
    def test_stderr_keeps_the_bytes_of_an_undecodable_name(self, case, tmp_path):
        """A path byte that is not UTF-8 reaches stderr as that byte, as it
        reaches the -o file, not as the text \\udcff."""
        path = tmp_path / os.fsdecode(b"m\xff.pml")
        if case != "cannot-read":
            path.write_text(WARNING_MODEL)
        raw = os.fsencode(path)
        argv, expected = {
            "dot-warning": (["dot", raw], raw + b":4:1: warning[W-AUTONOMY-001]: "),
            "cannot-read": (["check", raw], b"pml: cannot read " + raw + b": No such"),
            "cannot-write": (
                ["check", CLEAN, "-o", raw + b"/out.txt"],
                b"pml: cannot write " + raw + b"/out.txt: Not a directory",
            ),
            "isa": (["isa", raw, "A", "B"], b"pml isa: unknown bundle A, B; " + raw),
        }[case]
        proc = run_module(argv, PYTHONIOENCODING="utf-8")
        assert proc.stderr.startswith(expected), proc.stderr
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize(
        "encoding, name, model, command",
        [
            ("utf-8", b"m\xff.pml", WARNING_MODEL, "check"),
            ("ascii", b"e.pml", ACCENTED_MODEL, "check"),
            ("ascii", b"e.pml", ACCENTED_MODEL, "dot"),
        ],
        ids=["undecodable-name", "ascii-check", "ascii-dot"],
    )
    def test_stdout_that_cannot_encode_the_text_exits_two(
        self, encoding, name, model, command, tmp_path
    ):
        """Exit 2, one line on stderr and nothing on stdout."""
        path = tmp_path / os.fsdecode(name)
        path.write_text(model)
        proc = run_module([command, os.fsencode(path)], PYTHONIOENCODING=encoding)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"pml: cannot write stdout: ")
        assert proc.stderr.count(b"\n") == 1

    def test_superscript_digit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "superscript.pml"
        path.write_text(
            "agent a;\ntype width: num;\na -> a: give width = \u00b2;\n",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 2
        assert "error[E-LEX-001]: unexpected character '\u00b2'" in capsys.readouterr().out

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        """A corpus model saved with a UTF-8 byte-order mark gives ``check``
        and ``dot`` the exit code, stdout and stderr of the file without
        one; a mark anywhere else is still an unexpected character."""
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        for name in corpus.names():
            text = corpus.read(name)
            (plain / name).write_text(text, encoding="utf-8")
            (marked / name).write_text("\ufeff" + text, encoding="utf-8")
            for argv in (["check", name], ["check", name, "--json"], ["dot", name]):
                assert run_cli(marked, argv) == run_cli(plain, argv)
        (marked / "twice.pml").write_text("\ufeff\ufeffagent a;\n", encoding="utf-8")
        (marked / "later.pml").write_text("\ufeffagent a;\n\ufeff", encoding="utf-8")
        for name, where in (("twice.pml", "1:1"), ("later.pml", "2:1")):
            run = run_cli(marked, ["check", name])
            assert run["exit"] == 2
            assert f"{where}: error[E-LEX-001]: unexpected character '\\ufeff'" in run["stdout"]

    def test_a_stderr_line_its_encoding_cannot_hold_is_escaped(self, tmp_path):
        """``cannot read`` goes through stderr's text stream when stderr's
        encoding has no form for a character of the path, and that stream
        escapes it."""
        path = tmp_path / "\u00e9.pml"
        proc = run_module(["check", str(path)], PYTHONIOENCODING="ascii")
        assert proc.returncode == 2
        expected = f"pml: cannot read {tmp_path}/\\xe9.pml: No such file or directory\n"
        assert proc.stderr == expected.encode("ascii")

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 3
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate", CLEAN]) == 3

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["check", "--frobnicate", CLEAN]) == 3

    def test_missing_operand_is_a_usage_error(self, capsys):
        assert main(["isa", GEOMETRY, "Square"]) == 3

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_help_names_every_exit_cause(self, capsys):
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for cause in (
            "0 clean",
            "1 findings at policy-violation severity or worse",
            "2 parse/resolve failure, unreadable input, or an output that cannot take "
            "the text",
            "3 usage error",
            "pml isa exits 3 for an unknown bundle name",
            "2 for a bundle that is unsatisfiable on its own",
        ):
            assert cause in text
        assert "``" not in text

    def test_empty_model_is_clean(self, tmp_path, capsys):
        path = tmp_path / "empty.pml"
        path.write_text("")
        assert main(["check", str(path)]) == 0

    def test_entry_raises_systemexit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["pml", "roles", CLEAN])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def reference_parser() -> argparse.ArgumentParser:
    """pml's parser built whole: every command with all of its arguments."""
    parser = _ReferenceParser(prog="pml", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    check = sub.add_parser("check", help="resolve models and detect conflicts")
    check.add_argument("files", nargs="+", metavar="FILE")
    roles = sub.add_parser("roles", help="partition agents into roles")
    classes = sub.add_parser("classes", help="derive the class hierarchy")
    isa = sub.add_parser("isa", help="test whether CHILD can stand in for PARENT")
    dot = sub.add_parser("dot", help="export the promise graph as DOT")
    for p in (roles, classes, isa, dot):
        p.add_argument("file", metavar="FILE")
    isa.add_argument("child", metavar="CHILD")
    isa.add_argument("parent", metavar="PARENT")
    for p in (check, roles, classes, isa, dot):
        p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH")
        if p is not dot:
            p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


#: Each argv that ends in argparse: help, or a usage error.
PARSER_EXITS = [
    (["--help"], 0),
    (["-h", "roles"], 0),
    *[([command, "--help"], 0) for command in ("check", "roles", "classes", "isa", "dot")],
    ([], 3),
    (["frobnicate", "f"], 3),
    (["check"], 3),
    (["roles", "a", "b"], 3),
    (["-1", "check", "f"], 3),
    (["--", "roles", "f"], 3),
    (["--json", "check", "f"], 3),
    (["check", "--frobnicate", "f"], 3),
    (["isa", "f", "Child"], 3),
    (["dot", "f", "--json"], 3),
]


class TestParser:
    @pytest.mark.parametrize(
        "argv, code", PARSER_EXITS, ids=[" ".join(a) or "none" for a, _ in PARSER_EXITS]
    )
    def test_help_and_usage_errors_keep_their_text(self, argv, code, monkeypatch, capsys):
        """stdout, stderr and exit code are those of the parser built whole."""
        monkeypatch.setenv("COLUMNS", "80")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                reference_parser().parse_args(argv)
        assert (exc.value.code or 0) == code
        assert main(argv) == code
        assert capsys.readouterr() == (out.getvalue(), err.getvalue())

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["check", GEOMETRY], 5),
            (["roles", GEOMETRY], 5),
            (["classes", GEOMETRY], 5),
            (["isa", GEOMETRY, "Square", "Rectangle"], 7),
            (["dot", GEOMETRY], 4),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_a_run_builds_only_the_command_it_runs(self, argv, calls, monkeypatch, capsys):
        """One ``-h`` for pml, and the named command's ``-h``, positionals,
        ``-o`` and ``--json``: no other command's arguments."""
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(argv) in (0, 1)
        assert len(added) == calls, added


class TestCheck:
    def test_multiple_files_prefix_findings_with_their_path(
        self, overlap_file, capsys
    ):
        assert main(["check", CLEAN, overlap_file]) == 1
        out = capsys.readouterr().out
        assert f"{overlap_file}: " in out

    def test_one_broken_file_fails_the_whole_run(self, broken_file, capsys):
        assert main(["check", CLEAN, broken_file]) == 2

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_no_file_read_writes_no_report(self, mode, tmp_path, capsys):
        """With no file read there is nothing to report, not even to ``-o``;
        with one read, that one is reported."""
        missing = [str(tmp_path / "nope.pml"), str(tmp_path / "gone.pml")]
        target = tmp_path / "out.txt"
        assert main(["check", *missing, *mode]) == 2
        assert capsys.readouterr().out == ""
        assert main(["check", *missing, *mode, "-o", str(target)]) == 2
        assert not target.exists()
        assert main(["check", missing[0], CLEAN, *mode]) == 2
        out = capsys.readouterr().out
        assert CLEAN in out if mode else out.endswith("no findings\n")

    def test_json_mode_emits_the_schema(self, capsys):
        assert main(["check", BANK, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["files"][0]["path"] == BANK
        assert data["findings"] == []
        assert len(data["roles"]) == 2

    def test_warnings_do_not_fail_the_run(self, tmp_path, capsys):
        path = tmp_path / "warn.pml"
        path.write_text(
            "agent a; agent b; flag f; type s: service;\na -> b: use s if f;\n"
        )
        assert main(["check", str(path)]) == 0
        assert "W-AUTONOMY-001" in capsys.readouterr().out

    def test_a_dotted_type_can_be_named(self, tmp_path, capsys):
        path = tmp_path / "dotted.pml"
        path.write_text("agent a, b;\ntype x.y: num;\na -> b: give x.y = 1;\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.endswith("gives:x.y: a\nno findings\n")

    def test_output_file_instead_of_stdout(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["check", BANK, "--json", "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["findings"] == []

    def test_positions_are_the_librarys_on_carriage_returns(self, tmp_path, capsys):
        content = b"agent a;\r\nagent b;\rx @\r\n"
        path = tmp_path / "line_ends.pml"
        path.write_bytes(content)
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{path}:2:12: error[E-LEX-001]")
        parsed = parse(content.decode("utf-8"), str(path))
        assert out.startswith("".join(f"{d.formatted()}\n" for d in parsed.diagnostics))

    @pytest.mark.parametrize("name", corpus.names())
    def test_lone_carriage_returns_end_comments_like_newlines(
        self, name, tmp_path, capsys
    ):
        def check(line_end: str) -> tuple:
            path = tmp_path / line_end.encode().hex() / name
            path.parent.mkdir()
            path.write_bytes(corpus.read(name).replace("\n", line_end).encode("utf-8"))
            code = main(["check", "--json", str(path)])
            data = json.loads(capsys.readouterr().out)
            diagnostics = [
                (d["code"], d["message"]) for f in data["files"] for d in f["diagnostics"]
            ]
            return code, data["findings"], data["roles"], diagnostics

        lf = check("\n")
        assert lf[2], "the model has roles"
        assert check("\r") == lf

    @pytest.mark.parametrize("second", ["$v", "$w"])
    def test_scopes_do_not_depend_on_string_constants(self, second, tmp_path, capsys):
        def check(constant: str) -> tuple:
            path = tmp_path / f"{constant.replace(':', '_')}.pml"
            path.write_text(
                "agent a, b;\nflag f;\nb -> a: give f;\n"
                f'a -> b: give $w = "{constant}";\n'
                f'a -> b: give {second} = "{constant}" if f;\n'
            )
            code = main(["check", "--json", str(path)])
            data = json.loads(capsys.readouterr().out)
            return code, [f["code"] for f in data["findings"]]

        assert check("p::q") == check("pq") == (1, ["channel-restricted"])


class TestRoles:
    def test_text_listing(self, capsys):
        assert main(["roles", BANK]) == 0
        out = capsys.readouterr().out
        assert "gives:cash_payment+customer+employee+name: person" in out

    def test_json_listing(self, capsys):
        assert main(["roles", GEOMETRY, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        members = {tuple(r["members"]) for r in data["roles"]}
        assert ("rect", "square") in members

    def test_parse_error_path(self, broken_file, capsys):
        assert main(["roles", broken_file]) == 2


class TestClasses:
    def test_bank_classes_render(self, capsys):
        assert main(["classes", BANK]) == 0
        out = capsys.readouterr().out
        assert "U(use_account)" in out
        assert "name == owner and not employee" in out

    def test_json_contains_hierarchy(self, capsys):
        assert main(["classes", BANK, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["hierarchy"]["classes"]) == 2


class TestIsA:
    def test_restriction_exits_one_with_the_expected_severity(self, capsys):
        assert main(["isa", GEOMETRY, "Square", "Rectangle"]) == 1
        out = capsys.readouterr().out
        assert "[Restricted] isa-restricted" in out
        assert "width" in out and "height" in out

    def test_json_verdict(self, capsys):
        assert main(["isa", GEOMETRY, "Square", "Rectangle", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["findings"][0]["severity"] == "Restricted"

    def test_accepted_verdict_exits_zero(self, capsys):
        assert main(["isa", GEOMETRY, "Rectangle", "Rectangle"]) == 0
        assert "Rectangle is a Rectangle" in capsys.readouterr().out

    def test_unknown_bundle_is_a_usage_error(self, capsys):
        assert main(["isa", GEOMETRY, "Circle", "Rectangle"]) == 3
        err = capsys.readouterr().err
        assert "Circle" in err and "Rectangle" in err

    def test_unsatisfiable_bundle_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "impossible.pml"
        path.write_text(
            "agent a; agent b;\ntype angle: num;\n"
            "bundle Impossible { give angle = 1; give angle = 2; }\n"
            "bundle Fine { give angle = 1; }\n"
            "a -> b: bundle Impossible\n"
        )
        assert main(["isa", str(path), "Impossible", "Fine"]) == 2
        assert capsys.readouterr().err.startswith("pml isa:")


class TestNumberLiterals:
    @staticmethod
    def model(tmp_path, *values: str) -> str:
        path = tmp_path / "numbers.pml"
        path.write_text(
            "agent a, b;\ntype width: num;\n"
            + "".join(f"a -> b: give width = {v};\n" for v in values)
        )
        return str(path)

    def test_integers_beyond_float_precision_stay_apart(self, tmp_path, capsys):
        path = self.model(tmp_path, "9007199254740993", "9007199254740992")
        assert main(["check", path]) == 1
        assert "channel-inconsistent" in capsys.readouterr().out
        assert main(["dot", path]) == 0
        out = capsys.readouterr().out
        assert '"a" -> "b" [label="+width=9007199254740992"];' in out
        assert '"a" -> "b" [label="+width=9007199254740993"];' in out

    def test_long_integer_prints_exactly(self, tmp_path, capsys):
        digits = "7" * 400
        assert main(["dot", self.model(tmp_path, digits)]) == 0
        assert f'[label="+width={digits}"];' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "literal", ["9" * 4301, "1" * 400 + ".5"], ids=["too-many-digits", "float-overflow"]
    )
    def test_literal_no_number_type_holds_exits_two(self, literal, tmp_path, capsys):
        path = self.model(tmp_path, literal)
        assert main(["check", path]) == 2
        assert capsys.readouterr().out.startswith(
            f"{path}:3:22: error[E-LEX-004]: number literal is too large to read\n"
        )


class TestDot:
    def test_renders_every_promise(self, capsys):
        assert main(["dot", GEOMETRY]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph promises {")
        assert '"square" -> "viewer" [label="+$h=$w"];' in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "g.dot"
        assert main(["dot", GEOMETRY, "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("digraph promises {")

    def test_parse_error_goes_to_stderr(self, broken_file, capsys):
        assert main(["dot", broken_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E-PARSE" in captured.err

    def test_warnings_go_to_stderr_and_keep_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.pml"
        path.write_text(WARNING_MODEL)
        assert main(["dot", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("digraph promises {")
        assert captured.err == (
            f"{path}:4:1: warning[W-AUTONOMY-001]: condition of a -> b: +w=1 if f "
            "references 'f', which b never promises to a\n"
        )


class TestModuleEntry:
    @pytest.mark.parametrize(
        "argv",
        [["check", BANK], ["isa", GEOMETRY, "Square", "Rectangle", "--json"], []],
        ids=["check", "isa-json", "usage"],
    )
    def test_python_m_promisekit_matches_main(self, argv, capsys):
        code = main(argv)
        expected = capsys.readouterr().out
        proc = run_module(argv)
        assert (proc.returncode, proc.stdout.decode()) == (code, expected)
