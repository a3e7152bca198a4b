"""Static checks on the package source, with the stdlib ``ast`` module: every
imported name is used, and every module-level private name is referenced
somewhere in the package. A deletion that leaves a dead import or helper
behind fails here."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wrot"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(SOURCE.glob("*.py"))
}


def exported(tree):
    """The strings listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def loaded_names(tree):
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def references(tree):
    """Names a module reads, as bare names, attributes or imports."""
    names = loaded_names(tree)
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("module", TREES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    unused = imported - loaded_names(tree) - exported(tree)
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"


@pytest.mark.parametrize("module", TREES)
def test_every_private_name_is_referenced(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    referenced = set().union(*(references(tree) for tree in TREES.values()))
    unreferenced = private - referenced
    assert not unreferenced, f"{module} defines {sorted(unreferenced)} and nothing reads them"
