"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unitprop"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_standard_library_imports():
    sources = sorted(SRC.glob("*.py"))
    assert "verify.py" in {path.name for path in sources}
    foreign = {
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_only_propagate_names_the_clause_index():
    # the occurrence lists' layout is propagate's own: every other module
    # reaches the index through the engines or through _extender
    private = {"_index", "_extend"}
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id in private:
                named.add((path.name, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in private:
                named.add((path.name, node.attr))
            elif isinstance(node, ast.alias) and node.name in private:
                named.add((path.name, node.name))
    assert {name for name in named if name[0] != "propagate.py"} == set()
    assert ("propagate.py", "_index") in named
