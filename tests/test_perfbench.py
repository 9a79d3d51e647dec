"""The benchmark's tracer names treeagg functions; they must still exist.

``perfbench/spans.py`` wraps each ``(module, function)`` in its ``TRACED``
table by name, so renaming or removing one of them would only surface as a
crash of a traced benchmark run. This check makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, func_name in spans.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), (module_name, func_name)
