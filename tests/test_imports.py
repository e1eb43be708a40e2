"""A module of the package imports no private name from another: a name
with a leading underscore is free to change with its own module."""

import ast
from pathlib import Path

import ompbleu

PACKAGE = Path(ompbleu.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "ompbleu":
                continue  # another package's names
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert found == []
