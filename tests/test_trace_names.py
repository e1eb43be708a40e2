"""The benchmark's tracer wraps program functions by name.

``perfbench/spans.py`` looks each listed function and method up when a
traced run starts, so a renamed or moved one breaks ``--trace 1`` only
there.  This reads the lists without running the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans_module()
    assert spans.FUNCTIONS and spans.METHODS
    for module, function, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)
    for module, cls, method, _ in spans.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        # the tracer patches the method where the class itself defines it
        assert owner is not None and method in vars(owner), (module, cls, method)
