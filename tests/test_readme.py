"""The README's examples must stay runnable: the library block runs as
written, and every command line of the CLI block parses."""

import re
import shlex
from pathlib import Path

import pytest

from dmcam.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["3", "0"]


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("dmcam ")]
    assert len(commands) == 8
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit as exc:
            pytest.fail(f"README command does not parse (exit {exc.code}): {shlex.join(argv)}")
