"""The benchmark reaches treeagg by name; those names must still exist.

``perfbench/spans.py`` wraps each ``(module, function)`` in its ``TRACED``
table by name, and the benchmark's workloads and checks read attributes of
the package (``treeagg.<name>``, or ``T.<name>`` with ``T`` the package), so
renaming or removing one of them, or a parameter its calls pass, would only
surface as a crash of a benchmark run. These checks make it fail here
instead, as does a change to what the tracer reads off a return value, or
to the objects the benchmark's output checks read.
"""

import argparse
import ast
import functools
import importlib
import importlib.util
import inspect
import os
import re
from pathlib import Path

import treeagg
import treeagg.cim
import treeagg.crh
import treeagg.cli  # noqa: F401  (the workloads call treeagg.cli.run)
from treeagg.cim import _L1_MAX_ITERATIONS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
# treeagg.a.b or T.a.b: the attribute chain read off the package
PACKAGE_READ = re.compile(r"\b(?:treeagg|T)((?:\.[A-Za-z_]\w*)+)")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    spans = _spans()
    assert spans.TRACED
    for module_name, func_name in spans.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def test_tracer_counts_one_batched_l1_solve_per_cim_run():
    # the benchmark's cim.l1_iterations and cim.l1_converged_ratio read
    # fit_l1_logistic's return through these counts
    synth = treeagg.generate(
        treeagg.SynthConfig(n_sentences=20, tokens=(6, 9), rates=(0.1, 0.2, 0.3), seed=5)
    )
    matrix = treeagg.label_matrix(synth.ensemble)
    solver = treeagg.cim.fit_l1_logistic
    tracer = _spans().Tracer()
    tracer.install()
    try:
        treeagg.cim.cim_run(matrix)
    finally:
        tracer.uninstall()
    assert treeagg.cim.fit_l1_logistic is solver
    counts = tracer.counts
    assert counts["cim.fit_l1_logistic.calls"] == 1
    assert 0 < counts["cim.l1_iterations"] <= _L1_MAX_ITERATIONS
    assert counts["cim.l1_converged"] <= counts["cim.fit_l1_logistic.calls"]


def test_tracer_sees_every_decode_of_crh_uas_mode():
    # each uas-mode step decodes its truth trees through trees_from_scores,
    # so edges.decode_s covers them: the start, then one per iteration
    synth = treeagg.generate(
        treeagg.SynthConfig(n_sentences=20, tokens=(6, 9), rates=(0.1, 0.2, 0.3), seed=5)
    )
    matrix = treeagg.label_matrix(synth.ensemble)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        state = treeagg.crh.crh_run(matrix, treeagg.CrhOptions(distance="uas"), synth.ensemble)
    finally:
        tracer.uninstall()
    assert state.iterations >= 1
    assert tracer.counts["edges.trees_from_scores.calls"] == state.iterations + 1


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


def _package_calls():
    """(where, attribute chain, call node) for each call in perfbench/*.py
    of a name read off the package, as in ``treeagg.a.b(...)``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            names, func = [], node.func
            while isinstance(func, ast.Attribute):
                names.insert(0, func.attr)
                func = func.value
            if not isinstance(func, ast.Name):
                continue
            names.insert(0, func.id)
            roots = [i for i, n in enumerate(names) if n in ("treeagg", "T")]
            if roots and roots[0] < len(names) - 1:
                yield f"{path.name}:{node.lineno}", names[roots[0] + 1 :], node


def test_every_package_call_in_the_benchmark_binds():
    called = set()
    for where, chain, call in _package_calls():
        target = functools.reduce(getattr, chain, treeagg)
        positional = [None for a in call.args if not isinstance(a, ast.Starred)]
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        signature = inspect.signature(target)
        # *args or **kwargs may fill the rest: check only what is spelled out
        unpacked = len(positional) < len(call.args) or None in (
            k.arg for k in call.keywords
        )
        bind = signature.bind_partial if unpacked else signature.bind
        try:
            bind(*positional, **keywords)
        except TypeError as e:
            raise AssertionError(f"{where}: {'.'.join(chain)}{signature}: {e}") from e
        called.add(".".join(chain))
    assert {"crh_run", "CrhOptions", "cim_run", "vote_mst", "cli.run"} <= called


def test_benchmark_outputs_pass_its_own_checks(tmp_path, monkeypatch):
    # The untimed checks in run.py's Run.score read the prediction files
    # through .sentences, .sentence_id, len, .tree.heads and validate_tree;
    # a representation change that broke them would only lower the
    # benchmark's success_ratio.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # run.py sets them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    synth = treeagg.generate(
        treeagg.SynthConfig(n_sentences=12, tokens=(3, 9), rates=(0.1, 0.2, 0.3, 0.4), seed=4)
    )
    (tmp_path / "parsers").mkdir()
    gold = tmp_path / "gold.conllu"
    treeagg.save_treebank(synth.gold, gold)
    for f in synth.files:
        treeagg.save_treebank(f, tmp_path / "parsers" / f"{f.parser_id}.conllu")
    parsers = workloads.parser_paths(tmp_path / "parsers")
    workloads.aggregate(parsers, workloads.METHODS, tmp_path)

    bench = run.Run(argparse.Namespace(workload="cim_mixed", seed=0), tmp_path)
    units = [
        workloads.Unit(0, m, tmp_path / f"{m}.conllu", gold, parsers) for m in workloads.METHODS
    ]
    scored = bench.score(units)
    assert bench.failures == []
    assert set(scored["uas"]) == set(workloads.METHODS)
    assert all(0 < u <= 100 for u in scored["uas"].values())
