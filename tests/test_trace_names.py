"""The benchmark reaches into the program by name.

``perfbench/spans.py`` looks each listed function and method up when a
traced run starts, and ``perfbench/workloads.py`` imports program names
and checks the corpus outputs with ``parse_source``, ``SourceUnit.tokens``
(reading each ``Token.kind``) and ``SourceUnit.detokenize``.  Removing or
renaming one of them breaks the benchmark run, which no other tier-1 test
runs; these tests read the names without running the benchmark.
"""

import ast
import importlib

from conftest import PERFBENCH, perfbench_module


def test_every_traced_name_resolves():
    spans = perfbench_module("spans")
    assert spans.FUNCTIONS and spans.METHODS
    for module, function, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), function, None)), (module, function)
    for module, cls, method, _ in spans.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        # the tracer patches the method where the class itself defines it
        assert owner is not None and method in vars(owner), (module, cls, method)


def test_every_program_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ompbleu"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("workloads.py", "ompbleu.syntax", "parse_source") in imported
    for where, module, name in imported:
        assert hasattr(importlib.import_module(module), name), (where, module, name)


def test_the_corpus_checks_read_the_token_stream():
    from ompbleu.syntax import parse_source

    text = "int x; // c\n"
    unit = parse_source(text)
    assert unit.detokenize() == text
    assert [t.kind for t in unit.tokens] == [
        "keyword", "whitespace", "identifier", "punctuation", "whitespace", "comment", "whitespace",
    ]
