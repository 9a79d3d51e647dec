"""In-memory spans around treeagg's public functions, without editing it.

A function is wrapped at every place its name is looked up: each
``treeagg`` module global bound to the original function object is
rebound to the wrapper, so intra-package calls such as
``treeagg.edges.max_arborescence`` inside ``trees_from_scores`` are seen.
``uninstall`` puts every original back.

Each span records its name, start, end, parent span and job id, in CPU
seconds of the process, like the end-to-end times. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (module that defines it, function name) -> layer is the module's last part.
TRACED = (
    ("treeagg.trees", "validate_tree"),
    ("treeagg.conllu", "parse_conllu"),
    ("treeagg.conllu", "write_conllu"),
    ("treeagg.arborescence", "max_arborescence"),
    ("treeagg.edges", "label_matrix"),
    ("treeagg.edges", "trees_from_scores"),
    ("treeagg.crh", "crh_run"),
    ("treeagg.crh", "crh_trees"),
    ("treeagg.cim", "cim_run"),
    ("treeagg.cim", "estimate_correlation_graph"),
    ("treeagg.cim", "fit_l1_logistic"),
    ("treeagg.cim", "collapse_correlated"),
    ("treeagg.cim", "estimate_mean_params"),
    ("treeagg.cim", "fit_canonical_params"),
    ("treeagg.cim", "plugin_canonical_params"),
    ("treeagg.cim", "infer_scores"),
    ("treeagg.cim", "cim_trees"),
    ("treeagg.evaluation", "preprocess"),
    ("treeagg.evaluation", "rank_and_select"),
    ("treeagg.evaluation", "uas"),
    ("treeagg.evaluation", "vote_mst"),
    ("treeagg.synth", "generate"),
)

LAYERS = (
    "conllu", "trees", "edges", "arborescence", "crh", "cim",
    "evaluation", "synth", "cli",
)


def _source_bytes(source: Any) -> int:
    if isinstance(source, str):
        return len(source.encode("utf-8"))
    if hasattr(source, "fileno"):
        return os.fstat(source.fileno()).st_size
    return 0


def _observe(name: str, args: tuple, result: Any, counts: defaultdict) -> None:
    """Counts read from arguments and return values, where the work is."""
    if name == "arborescence.max_arborescence":
        counts["arborescence.arcs"] += len(args[0].arcs)
    elif name == "edges.label_matrix":
        counts["edges.rows"] += result.n_edges
    elif name == "cim.fit_l1_logistic":
        counts["cim.l1_iterations"] += result[2]
        counts["cim.l1_converged"] += int(result[3])
    elif name == "cim.fit_canonical_params":
        counts["cim.fit_iterations"] += result.iterations
    elif name == "crh.crh_run":
        counts["crh.iterations"] += result.iterations
    elif name == "conllu.parse_conllu":
        counts["conllu.bytes"] += _source_bytes(args[0])
    elif name == "evaluation.preprocess":
        counts["evaluation.sentences"] += result.log.total
        counts["evaluation.kept"] += result.log.kept


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._stack.append(index)
        start = time.process_time()
        try:
            yield
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)
            self.counts[name + ".calls"] += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _observe(name, args, result, counts)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "treeagg" or n.startswith("treeagg."))
        ]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive time and self time per span name."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
        return dict(inclusive), dict(self_time)

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            **extra,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
