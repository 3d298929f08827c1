"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from covmin.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["Z_train"].shape == (5, len(scope["train"]))
    assert scope["Z_test"].shape == (5, len(scope["test"]))


def test_readme_command_line_block(tmp_path, monkeypatch):
    """Each covmin line of the command-line block, in order, in one
    directory, through cli.main; every one exits 0."""
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
              if "covmin synth" in b]
    assert len(blocks) == 1
    lines = [line for line in blocks[0].splitlines() if line.startswith("covmin ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
