"""The README's examples run as written."""

import io
import re
import shlex
from pathlib import Path

import pytest

from liesym.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "the README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _liesym_lines():
    """(argv, comment) of every ``liesym`` command in the README's sh
    blocks, with backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["liesym"]:
                commands.append((argv[1:], comment.strip()))
    return commands


COMMANDS = _liesym_lines()


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv,comment", COMMANDS, ids=[" ".join(a[:3]) for a, _ in COMMANDS])
def test_cli_lines_exit_as_annotated(argv, comment, tmp_path, monkeypatch):
    # a line annotated "exit 1" must exit 1, every other line exits 0
    monkeypatch.chdir(tmp_path)  # residual-grid writes its --output here
    err = io.StringIO()
    code = run(argv, out=io.StringIO(), err=err)
    assert code == (1 if "exit 1" in comment else 0), err.getvalue()
