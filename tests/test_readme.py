"""The Python examples of README.md run against the package as it is."""

import re
from pathlib import Path

from treeagg import cli

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_readme_examples_run(tmp_path, monkeypatch):
    examples = EXAMPLE.findall(README.read_text(encoding="utf-8"))
    assert len(examples) >= 2
    monkeypatch.chdir(tmp_path)
    # the corpus the README's command line section writes first
    synth = [
        "synth", "--out-dir", "corpus", "--sentences", "200", "--tokens", "5:12",
        "--rates", "0.05,0.1,0.2", "--seed", "7",
    ]
    assert cli.run(synth) == cli.EXIT_OK
    for i, source in enumerate(examples):
        exec(compile(source, f"README.md python example {i + 1}", "exec"), {})
    assert (tmp_path / "cim.conllu").exists() and (tmp_path / "mst.conllu").exists()
