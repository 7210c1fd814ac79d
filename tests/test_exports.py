"""The package's ``__all__`` lists exactly what ``__init__`` imports."""

import ast
from pathlib import Path

INIT = Path(__file__).resolve().parent.parent / "src" / "unitprop" / "__init__.py"


def _tree():
    return ast.parse(INIT.read_text(), filename=str(INIT))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from (alias.asname or alias.name for alias in node.names)


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py assigns no __all__")


def test_all_matches_the_imports():
    tree = _tree()
    imported = [*_imported_names(tree), "__version__"]
    assert sorted(_declared_all(tree)) == sorted(imported)


def test_star_import_succeeds():
    namespace = {}
    exec("from unitprop import *", namespace)
    assert "propagate_fixpoint" in namespace
