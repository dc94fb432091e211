"""Every private helper of the package has a caller: a private module-level
name, or a private method, that is defined in src/pcgl but read nowhere
there is dead code and fails this test.  And every import of a sibling
module sits at the top of its module, except in the functions that break
a real import cycle (`CYCLE_BREAKERS`)."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pcgl").glob("*.py"))

# ideals imports pbracket at its top, so pbracket reaches ideals at call time
CYCLE_BREAKERS = {"pbracket.is_poisson_normal"}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name):
                yield leaf.id


def private_definitions(tree, module):
    """(name, where) for each private module-level function, class or
    assigned name, and each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if is_private(node.name):
                yield node.name, f"{module}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(
                        item.name
                    ):
                        yield item.name, f"{module}:{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in assigned_names(node):
                if is_private(name):
                    yield name, f"{module}:{node.lineno}"


def reads(node, own=None):
    """Every name read under node as a variable or as an attribute, except
    `own`, the name node defines: a helper calling only itself is dead."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            name = leaf.id
        elif isinstance(leaf, ast.Attribute):
            name = leaf.attr
        else:
            continue
        if name != own:
            yield name


def references(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield from reads(item, getattr(item, "name", None))
            for extra in node.bases + node.keywords + node.decorator_list:
                yield from reads(extra)
        else:
            yield from reads(node, getattr(node, "name", None))


def test_every_private_helper_is_referenced():
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, where in private_definitions(tree, path.name):
            defined.setdefault(name, where)
        used.update(references(tree))
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, unused


def test_the_guard_sees_helpers_and_their_references():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "def _dead():\n    pass\n"
        "def _alive():\n    return _LIMIT\n"
        "class C:\n"
        "    def _gone(self):\n        pass\n"
        "    def _kept(self):\n        return 1\n"
        "    def _self_only(self):\n        return self._self_only()\n"
        "    def __repr__(self):\n        return str(_alive() + self._kept())\n"
    )
    defined = {name for name, _ in private_definitions(tree, "m.py")}
    assert defined == {"_LIMIT", "_dead", "_alive", "_gone", "_kept", "_self_only"}
    assert defined - set(references(tree)) == {"_dead", "_gone", "_self_only"}


def function_level_imports(node, name, in_function=False):
    """The qualified name of the function around each relative import
    (`from .x import y`) that runs in a function body, once per import."""
    for child in ast.iter_child_nodes(node):
        if in_function and isinstance(child, ast.ImportFrom) and child.level:
            yield name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = in_function or not isinstance(child, ast.ClassDef)
            yield from function_level_imports(child, f"{name}.{child.name}", inside)
        else:
            yield from function_level_imports(child, name, in_function)


def test_sibling_imports_are_at_module_top():
    found = []
    for path in SOURCES:
        found += function_level_imports(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(found) == sorted(CYCLE_BREAKERS)


def test_the_import_guard_sees_function_level_imports():
    tree = ast.parse(
        "from .a import top\n"
        "import json\n"
        "def f():\n    from .b import g\n    return g\n"
        "def h(x):\n"
        "    import os\n    from os import path\n"
        "    def inner():\n        if x:\n            from . import c\n"
        "class C:\n"
        "    from .d import at_class_level\n"
        "    def m(self):\n        from ..e import k\n"
    )
    assert list(function_level_imports(tree, "mod")) == ["mod.f", "mod.h.inner", "mod.C.m"]
