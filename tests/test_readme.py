"""The README's command-line block and Quick start snippet run as written."""

import re
import shlex
from pathlib import Path

from quatem.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(heading):
    section = README.split("\n## %s\n" % heading, 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def test_readme_command_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _code_block("Command line").splitlines()
             if line.startswith("quatem ")]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_quick_start():
    namespace = {}
    exec(_code_block("Quick start"), namespace)
    assert namespace["e_x"].shape == namespace["h_x"].shape == (1, 4)
