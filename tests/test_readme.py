"""The README's examples run as written: the Library block and each
``enflow ...`` line of the "Command line" walkthrough."""

import re
import shlex
from pathlib import Path

from enflow.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("Library", "python"), "README.md", "exec"), {})
    assert (tmp_path / "criticality.csv").exists()


def test_command_line_walkthrough_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in fenced("Command line", "bash").splitlines()
                if line.startswith("enflow ")]
    assert [argv[1] for argv in commands] == [
        "synth", "build", "mdhits", "hits", "eig", "criticality", "consumption", "consumption",
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "run" / "consumption_world.csv").exists()
