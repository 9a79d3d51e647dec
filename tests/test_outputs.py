"""Every CLI output, byte for byte, against a committed manifest.

A fixed script runs in-process through ``cli.run``: four ``synth`` corpora
(three small ones and the acceptance corpus), then on each ``preprocess``,
``rank``, ``aggregate`` with every method and rule, ``evaluate`` and
``report``, and the paths that write or print a record's optional parts
(a rank warning, a thinned treebank's rejection, a grouped report) and a
few malformed inputs. ``tests/outputs_manifest.json``
holds each step's exit code, stdout and stderr and the SHA-256 of every
file the script leaves behind. A change that alters output bytes on
purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_outputs.py

and says which entries changed, and why.

The floats of cim's diagnostics files are hashed rounded to
``DIAGNOSTICS_DECIMALS`` places: the l1 and moment fits sum in BLAS
products, whose kernel OpenBLAS picks by CPU, and a converged fit's
``grad_norm`` is below its 1e-6 tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from helpers import conllu_text
from treeagg.cli import run

MANIFEST = Path(__file__).with_name("outputs_manifest.json")
DIAGNOSTICS_DECIMALS = 5

CORPORA = {
    "dup": ["--sentences", "60", "--tokens", "8:30", "--rates", "0.05,0.1,0.2,0.3",
            "--seed", "7", "--duplicate-of", "0"],
    "short": ["--sentences", "40", "--tokens", "2:9", "--rates", "0.1,0.2,0.3,0.4,0.5",
              "--seed", "11"],
    "long": ["--sentences", "25", "--tokens", "1:45", "--rates", "0.02,0.3,0.45,0.6",
             "--seed", "5"],
    "acceptance": ["--sentences", "200", "--tokens", "10:10",
                   "--rates", ",".join(map(repr, np.linspace(0.05, 0.40, 9).tolist())),
                   "--seed", "7", "--duplicate-of", "0"],
}

AGGREGATES = {
    "mst": ["--method", "mst"],
    "crh": ["--method", "crh"],
    "crh-uas": ["--method", "crh", "--crh-distance", "uas"],
    "cim": ["--method", "cim", "--diagnostics", "{out}.json"],
    "cim-no-collapse": ["--method", "cim", "--cim-no-collapse", "--diagnostics", "{out}.json"],
}

_GOOD = conllu_text([("s1", ["a", "b", "c"], [0, 1, 2]), ("s2", ["é", "中"], [2, 0])])


def _word(i, form, head, n_columns=10) -> str:
    return "\t".join([str(i), form, "_", "_", "_", "_", str(head), "_", "_", "_"][:n_columns])


def _replacing(*words: tuple[int, str]) -> str:
    """``_GOOD`` with line i replaced by each (i, line)."""
    lines = _GOOD.split("\n")
    for i, line in words:
        lines[i] = line
    return "\n".join(lines)


# parser file p1 of a directory, with one fault each
FAULTS = {
    "bad-head": _replacing((2, _word(2, "b", "x"))),
    "head-out-of-range": _replacing((2, _word(2, "b", 7))),
    "self-loop": _replacing((2, _word(2, "b", 2))),
    "cycle": _replacing((2, _word(2, "b", 3)), (3, _word(3, "c", 2))),
    "id-out-of-sequence": _replacing((3, _word(4, "c", 2))),
    "nine-columns": _replacing((3, _word(3, "c", 2, 9))),
    "not-utf8": _GOOD.encode("utf-8").replace("中".encode("utf-8")[:1], b"\xff", 1),
}

# the second group names no report, so the summary leaves it out
GROUPS = {"small": ["dup", "short", "long"], "absent": ["no-such-treebank"]}


def script() -> list[tuple[str, list[str]]]:
    """The steps in order, as (name, argv) with paths relative to the
    working directory."""
    steps = []
    for name, argv in CORPORA.items():
        c = f"{name}/corpus"
        steps.append((f"{name}/synth", ["synth", "--out-dir", c, *argv]))
        steps.append((f"{name}/preprocess", [
            "preprocess", "--inputs", f"{c}/parsers", "--gold", f"{c}/gold.conllu",
            "--out-dir", f"{name}/filtered", "--min-sentences", "10", "--min-parsers", "3"]))
        steps.append((f"{name}/rank", [
            "rank", "--inputs", f"{name}/filtered/parsers", "--gold",
            f"{name}/filtered/gold.conllu", "--seed", "7", "--top-k", "3",
            "--out", f"{name}/selected.json"]))
        for method, flags in AGGREGATES.items():
            for rule in ("", "-no-single-root"):
                out = f"{name}/{method}{rule}"
                argv = ["aggregate", "--inputs", f"{c}/parsers", "--out", f"{out}.conllu",
                        *(f.format(out=out) for f in flags)]
                if rule:
                    argv.append("--no-single-root")
                elif method == "mst":
                    argv += ["--dump-matrix", f"{out}.tsv"]
                steps.append((f"{out}/aggregate", argv))
        preds = [f"{m}={name}/{m}.conllu" for m in AGGREGATES]
        steps.append((f"{name}/evaluate", [
            "evaluate", "--gold", f"{c}/gold.conllu", *(a for p in preds for a in ("--pred", p)),
            "--inputs", f"{c}/parsers", "--selected", f"{name}/selected.json",
            "--exclude-punct", "--filters", f"{name}/filtered/filters.json",
            "--treebank", name, "--out", f"{name}/report.json"]))
    # evaluate without --exclude-punct and --treebank: the treebank is the gold file's stem
    steps.append(("dup/evaluate-plain", [
        "evaluate", "--gold", "dup/corpus/gold.conllu",
        *(a for m in AGGREGATES for a in ("--pred", f"{m}=dup/{m}.conllu")),
        "--inputs", "dup/corpus/parsers", "--selected", "dup/selected.json",
        "--filters", "dup/filtered/filters.json", "--out", "dup/report-plain.json"]))
    reports = [f"{name}/report.json" for name in CORPORA]
    steps.append(("report", ["report", "--reports", *reports, "--out", "summary.json"]))
    steps.append(("report-groups", [
        "report", "--reports", *reports, "--groups", "groups.json", "--primary", "crh",
        "--out", "summary-groups.json"]))
    # "short" has 5 parsers
    steps.append(("short/rank-all", [
        "rank", "--inputs", "short/filtered/parsers", "--gold", "short/filtered/gold.conllu",
        "--seed", "3", "--top-k", "9", "--out", "short/selected-all.json"]))
    steps.append(("rejected/preprocess", [
        "preprocess", "--inputs", "short/corpus/parsers", "--gold", "short/corpus/gold.conllu",
        "--out-dir", "rejected", "--min-sentences", "10", "--min-parsers", "9"]))
    steps.append(("thin/preprocess", [
        "preprocess", "--inputs", "short/corpus/parsers", "--gold", "short/corpus/gold.conllu",
        "--out-dir", "thin", "--min-sentences", "1000", "--min-parsers", "3"]))
    for fault in FAULTS:
        steps.append((f"{fault}/aggregate", [
            "aggregate", "--inputs", f"faults/{fault}", "--method", "mst",
            "--out", f"faults/{fault}.conllu"]))
    return steps


def _write_inputs(root: Path) -> None:
    (root / "groups.json").write_text(json.dumps(GROUPS), encoding="utf-8")
    for fault, text in FAULTS.items():
        d = root / "faults" / fault
        d.mkdir(parents=True)
        (d / "p0.conllu").write_text(_GOOD, encoding="utf-8")
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (d / "p1.conllu").write_bytes(data)


def _rounded(value):
    if isinstance(value, float):
        return round(value, DIAGNOSTICS_DECIMALS)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json" and path.stem.startswith("cim"):
        data = json.dumps(_rounded(json.loads(data)), sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def record(root: Path) -> dict:
    """Run the script in ``root``: each step's exit code, stdout and
    stderr, and the digest of every file left in ``root``."""
    _write_inputs(root)
    steps = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in script():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            steps[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    finally:
        os.chdir(cwd)
    files = {
        p.relative_to(root).as_posix(): _digest(p)
        for p in sorted(root.rglob("*")) if p.is_file()
    }
    return {"steps": steps, "files": files}


def test_every_output_matches_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert got["steps"] == expected["steps"]
    assert got["files"] == expected["files"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        manifest = record(Path(d))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest['steps'])} steps, {len(manifest['files'])} files)",
          file=sys.stderr)
