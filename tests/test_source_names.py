"""Static checks on the package source, with the stdlib ``ast`` module: every
imported name is used, every module-level private name is referenced
somewhere in the package, and no exported function only passes its
arguments on to another. A deletion that leaves a dead import or helper
behind fails here, and so does a second public name for one solve."""

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


def pass_throughs(trees):
    """Exported functions whose body, docstring aside, is a single ``return``
    of a call to another exported function (a call to a class is not one)."""
    functions = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported(tree)
    }
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in exported(tree)):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee in functions:
                    found.append(f"{module}:{node.name} -> {callee}")
    return found


def test_no_exported_function_is_a_pass_through():
    assert pass_throughs(TREES) == []


def test_pass_through_check_flags_a_wrapper_only():
    tree = ast.parse(
        '__all__ = ["Config", "solve", "wrapper", "build", "checked"]\n'
        "class Config: pass\n"
        "def solve(v, c): return v\n"
        'def wrapper(v, k=1):\n    """Doc."""\n    return solve(v, Config(k))\n'
        "def build(k): return Config(k)\n"
        "def checked(v, c): return _private(v, c)\n"
    )
    assert pass_throughs({"m.py": tree}) == ["m.py:wrapper -> solve"]
