"""Import hygiene: no library module imports a name it never uses, no
private module-level function, class or constant goes unread, and every
name a module lists in ``__all__`` is defined in it, and every name the
package imports from a module is in that module's ``__all__``.

Deleting a code path easily leaves its imports and helpers behind; this
catches them. ``__init__.py`` is exempt from the import check, since
re-exporting is its job.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "synthbrain"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line (``import a.b`` binds ``a``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used(ast.parse(sub.value, mode="eval"))
    return used


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names -> their line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            sides = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for side in sides for n in ast.walk(side) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in targets)
    return defined


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and constants -> their line."""
    return {name: line for name, line in _definitions(tree).items()
            if name.startswith("_") and not name.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """What a module reads: names and attributes (``module._helper``)."""
    return _used(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _unread_private(trees: dict[str, ast.Module]) -> dict[str, int]:
    """``module:name`` -> line of each private definition no module reads."""
    read = set().union(*(_read(tree) for tree in trees.values()))
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'Sequence' = tau\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "pi"}


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    unread = _unread_private(trees)
    assert not unread, f"private definitions no module reads: {unread}"


def test_the_check_sees_an_unread_private_definition():
    lib = ast.parse(
        "_A = 1\n_B: int = 2\n_C, _D = 3, 4\n"
        "def _f():\n    return _A\n"
        "def _g():\n    pass\n"
        "class _K:\n    pass\n"
        "def _h():\n    pass\n"
        "__all__ = []\n"
    )
    user = ast.parse("from lib import _K\nimport lib\nlib._h()\nx = _K\n")
    assert set(_unread_private({"lib": lib, "user": user})) == {
        "lib:_B", "lib:_C", "lib:_D", "lib:_f", "lib:_g"}


def _undefined_exports(tree: ast.Module) -> list[str]:
    """Entries of a module-level ``__all__`` that the module neither defines nor imports."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            bound = _definitions(tree).keys() | _imported(tree).keys()
            return [e.value for e in node.value.elts if e.value not in bound]
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    stale = _undefined_exports(ast.parse(path.read_text(), filename=str(path)))
    assert not stale, f"{path.name}: __all__ lists undefined names {stale}"


def test_the_check_sees_an_undefined_export():
    tree = ast.parse(
        "import os.path\nfrom m import a as b\n"
        "def f():\n    gone = 1\n"
        "class K:\n    pass\n"
        "X, (Y, Z) = 1, (2, 3)\nW: int = 4\n"
        "__all__ = ['os', 'b', 'f', 'K', 'X', 'Z', 'W', 'a', 'gone', 'path']\n"
    )
    assert _undefined_exports(tree) == ["a", "gone", "path"]


def _exports(tree: ast.Module) -> list[str] | None:
    """A module's ``__all__`` entries, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return None


def _unlisted_reexports(package: ast.Module, modules: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each name ``package`` imports from a sibling module
    whose ``__all__`` does not list it (a module without one, like ``errors``,
    exports every public name)."""
    missing = []
    for node in package.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules:
            exports = _exports(modules[node.module])
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if exports is not None and alias.name not in exports]
    return missing


def test_every_reexported_name_is_in_its_modules_all():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    package = ast.parse((SRC / "__init__.py").read_text())
    # every package import is from a sibling module, so every one is checked
    sources = {node.module for node in package.body if isinstance(node, ast.ImportFrom)}
    assert sources <= set(modules)
    missing = _unlisted_reexports(package, modules)
    assert not missing, f"re-exported but missing from the module's __all__: {missing}"


def test_the_check_sees_an_unlisted_reexport():
    modules = {"a": ast.parse("__all__ = ['f']\ndef f(): pass\ndef g(): pass\n"),
               "b": ast.parse("def h(): pass\n"),
               "c": ast.parse("__all__ = []\ndef k(): pass\n")}
    package = ast.parse("from .a import f, g\nfrom .b import h\nfrom .c import k\n")
    assert _unlisted_reexports(package, modules) == ["a.g", "c.k"]
