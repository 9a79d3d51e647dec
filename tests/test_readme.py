"""The examples of README.md run against the package as it is."""

import re
import shlex
from pathlib import Path

from treeagg import cli

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
COMMAND_LINE = re.compile(r"^## Command line\n.*?^```\n(.*?)^```", re.DOTALL | re.MULTILINE)


def readme_commands() -> list[list[str]]:
    """The argument lists of the block under "## Command line", in order,
    without the leading ``treeagg``."""
    block = COMMAND_LINE.search(README.read_text(encoding="utf-8")).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "treeagg" for argv in commands)
    return [argv[1:] for argv in commands]


def test_readme_command_line_runs(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "preprocess", "rank", "aggregate", "evaluate", "report"
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.run(argv) == cli.EXIT_OK, argv
    assert (tmp_path / "summary.json").exists()


def test_readme_examples_run(tmp_path, monkeypatch):
    examples = EXAMPLE.findall(README.read_text(encoding="utf-8"))
    assert len(examples) >= 2
    monkeypatch.chdir(tmp_path)
    # the corpus the README's command line section writes first
    assert cli.run(readme_commands()[0]) == cli.EXIT_OK
    for i, source in enumerate(examples):
        exec(compile(source, f"README.md python example {i + 1}", "exec"), {})
    assert (tmp_path / "cim.conllu").exists() and (tmp_path / "mst.conllu").exists()
