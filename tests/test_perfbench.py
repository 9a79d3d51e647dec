"""The benchmark reaches treeagg by name; those names must still exist.

``perfbench/spans.py`` wraps each ``(module, function)`` in its ``TRACED``
table by name, and the benchmark's workloads and checks read attributes of
the package (``treeagg.<name>``, or ``T.<name>`` with ``T`` the package), so
renaming or removing one of them would only surface as a crash of a
benchmark run. These checks make it fail here instead.
"""

import functools
import importlib
import importlib.util
import re
from pathlib import Path

import treeagg
import treeagg.cli  # noqa: F401  (the workloads call treeagg.cli.run)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
# treeagg.a.b or T.a.b: the attribute chain read off the package
PACKAGE_READ = re.compile(r"\b(?:treeagg|T)((?:\.[A-Za-z_]\w*)+)")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, func_name in spans.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def test_every_name_the_benchmark_reads_resolves():
    chains = {
        chain
        for path in PERFBENCH.glob("*.py")
        for chain in PACKAGE_READ.findall(path.read_text(encoding="utf-8"))
    }
    assert {".load_treebank", ".cli.run", ".vote_mst"} <= chains
    for chain in sorted(chains):
        functools.reduce(getattr, chain[1:].split("."), treeagg)


def test_every_exported_name_resolves():
    assert [name for name in treeagg.__all__ if not hasattr(treeagg, name)] == []
