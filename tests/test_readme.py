"""The README's examples run as written: every command of the CLI block, and
the Library snippet with the output its comments give."""

import contextlib
import io
import pathlib
import re
import shlex

from spiralmaps import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the heading ``section``."""
    body = README[README.index(f"\n## {section}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_every_cli_command_of_the_readme_succeeds(tmp_path, monkeypatch, capsys):
    # In order, in one directory: later commands read the files earlier ones write.
    monkeypatch.chdir(tmp_path)
    commands = [line for line in code_block("CLI", "sh").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "spiralmaps", line
        assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)


def test_library_snippet_prints_its_commented_output():
    code = code_block("Library", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    expected = {k: line.split("#", 1)[1].strip() for k, line in enumerate(prints) if "#" in line}
    assert expected == {0: "CheckResult(value=0.95, passed=True)", 2: "True"}
    assert {k: printed[k] for k in expected} == expected
