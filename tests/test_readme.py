"""The examples in README.md run as written.

The ```python block is executed from the repository root, and each tuple it
prints must equal the tuple its trailing comment starts with.  Each `lyalg`
line of the ```sh CLI block whose file arguments all exist is run, and none
may end with a usage error (exit code 2); lines with placeholders or
optional `[...]` parts are skipped.
"""

import ast
import contextlib
import io
import os
import re
import shlex

from lyalg.cli import run

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def blocks(lang):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"```%s\n(.*?)```" % lang, text, re.S)


def test_python_example_prints_what_its_comments_say(monkeypatch):
    (code,) = blocks("python")
    expected = [ast.literal_eval(re.match(r"\(.*?\)", line.split("#", 1)[1].strip()).group(0))
                for line in code.splitlines() if line.startswith("print(") and "#" in line]
    assert expected
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert [ast.literal_eval(line) for line in out.getvalue().splitlines()] == expected


def runnable_cli_lines():
    lines = []
    for block in blocks("sh"):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line.startswith("lyalg ") or "[" in line:
                continue
            argv = shlex.split(line)[1:]
            files = [a for a in argv if a.endswith(".json")]
            if all(os.path.exists(os.path.join(ROOT, f)) for f in files):
                lines.append(argv)
    return lines


def test_cli_examples_run_without_usage_errors(monkeypatch, capsys):
    lines = runnable_cli_lines()
    assert len(lines) >= 8
    monkeypatch.chdir(ROOT)
    codes = {" ".join(argv): run(argv) for argv in lines}
    capsys.readouterr()
    assert {line: code for line, code in codes.items() if code == 2} == {}
