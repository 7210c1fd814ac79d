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


def test_only_cnf_nonnegative_words_the_nonnegative_refusal():
    # every count, limit and stage is refused through one helper, so the
    # message is written once, in it
    phrase = "must be nonnegative"
    found = {
        path.name: path.read_text().count(phrase) for path in sorted(SRC.glob("*.py"))
    }
    assert {name: n for name, n in found.items() if n} == {"cnf.py": 1}
    text = (SRC / "cnf.py").read_text()
    helper = next(
        node
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef) and node.name == "_nonnegative"
    )
    assert phrase in ast.get_source_segment(text, helper)
