"""Every name of the package has a reader.

- A private helper (a private module-level name, or a private method)
  that is defined in src/pcgl but read nowhere there is dead code.
- A public module-level function or class of src/pcgl, or a public method
  of such a class, needs a reader in src/pcgl outside its own body, or in
  the benchmark (`perfbench/*.py`).  A method is read only as an attribute
  (`x.name`): a function of the same name read as a variable does not
  read the method.  Nor does any `.name` when `name` is also a data
  attribute of some class there (set as `self.name`, in
  `vars(self).update(name=...)` or in `object.__setattr__(self, "name",
  ...)`): without the receiver's type the walk cannot tell the two reads
  apart, so such a method needs a `PUBLIC_READERS` entry.  Importing a
  name, as `__init__.py` does to re-export it, does not read it.  A public
  name kept for a reader that this test does not parse, the README or an
  open ROADMAP item, is listed in `PUBLIC_READERS` with that reader, a
  method as `Class.method`.  A name that only tests read is an oracle and
  lives in the test tree (`tests/reference.py`).

And every import of a sibling module sits at the top of its module, except
in the functions that break a real import cycle (`CYCLE_BREAKERS`)."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "pcgl").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# ideals imports pbracket at its top, so pbracket reaches ideals at call time
CYCLE_BREAKERS = {"pbracket.is_poisson_normal"}

# public names kept for a reader outside src/pcgl (the README, the
# benchmark or an open ROADMAP item), or read as an attribute that is also
# a data attribute of another class, each with that reader; a method is
# listed as Class.method, and an entry whose name is no longer defined fails
PUBLIC_READERS = {
    "check_theta": "README; ROADMAP items 15, 16 and 29",
    "delete_all": "perfbench/workloads.py; ROADMAP item 29",
    "stratum_summary": "ROADMAP item 29",
    "separating_normal": "README; perfbench",
    "fixture_path": "README; perfbench",
    # a property whose name is also a data attribute (GradingData.rank)
    "CenterBasis.rank": "CenterBasis.to_json_dict",
}


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
    """Every name read under node, as a variable (`name`) or as an
    attribute (`.name`), except `own`, the name node defines: a helper
    calling only itself is dead."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            name, read = leaf.id, leaf.id
        elif isinstance(leaf, ast.Attribute):
            name, read = leaf.attr, "." + leaf.attr
        else:
            continue
        if name != own:
            yield read


def references(tree):
    """Every name read in tree outside the body that defines it, as
    `reads` gives it: a module-level function or class, or a method, that
    only reads itself has no reader."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                for name in reads(item, getattr(item, "name", None)):
                    if name != node.name:
                        yield name
            for extra in node.bases + node.keywords + node.decorator_list:
                yield from reads(extra)
        else:
            yield from reads(node, getattr(node, "name", None))


def parsed(paths):
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_private_helper_is_referenced():
    defined, used = {}, set()
    for module, tree in parsed(SOURCES).items():
        for name, where in private_definitions(tree, module):
            defined.setdefault(name, where)
        used.update(name.lstrip(".") for name in references(tree))
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
    used = {name.lstrip(".") for name in references(tree)}
    assert defined - used == {"_dead", "_gone", "_self_only"}


def public_definitions(tree, module):
    """(name, where, how it is read) for each public module-level function
    or class, read as `name` or `.name`, and each public method of a public
    module-level class, read only as `.name`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, f"{module}:{node.lineno}", {node.name, "." + node.name}
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield item.name, f"{module}:{node.name}.{item.name}", {"." + item.name}


def data_attributes(tree):
    """The names set as data attributes of an instance in tree: as
    `self.name`, in `vars(self).update(name=...)` or in
    `object.__setattr__(self, "name", ...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, args = node.func.value, node.args
            if (node.func.attr == "update" and isinstance(owner, ast.Call)
                    and ast.unparse(owner) == "vars(self)"):
                names.update(k.arg for k in node.keywords if k.arg)
            elif (ast.unparse(node.func) == "object.__setattr__" and len(args) > 1
                    and ast.unparse(args[0]) == "self" and isinstance(args[1], ast.Constant)):
                names.add(args[1].value)
    return names


def public_surface_faults(modules, readers, allowlist):
    """The public names of `modules` (file name -> tree) that nothing in
    `modules` or `readers` reads and `allowlist` does not name, with where
    each is defined; and the allowlist entries that name no public
    definition.  A method that shares its name with a data attribute of
    either has no reader the walk can see."""
    defined, used, attributes = [], set(), set()
    for module, tree in modules.items():
        defined += public_definitions(tree, module)
    for tree in [*modules.values(), *readers]:
        used.update(references(tree))
        attributes |= data_attributes(tree)

    def listed_as(name, where, read_as):
        # a module-level name by itself, a method as Class.method
        return name if name in read_as else where.split(":", 1)[1]

    unread = {
        name: where
        for name, where, read_as in defined
        if listed_as(name, where, read_as) not in allowlist
        and (not read_as & used or name not in read_as and name in attributes)
    }
    return unread, sorted(set(allowlist) - {listed_as(*d) for d in defined})


def test_every_public_name_has_a_reader():
    unread, stale = public_surface_faults(
        parsed(SOURCES), parsed(BENCHMARK).values(), PUBLIC_READERS
    )
    assert not unread, unread
    assert not stale, stale


def test_the_guard_sees_unread_public_names():
    modules = {
        "m.py": ast.parse(
            "def used():\n    pass\n"
            "def unread():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def exported():\n    pass\n"
            "def kept():\n    pass\n"
            "class Box:\n"
            "    def read(self):\n        return used()\n"
            "    def unread_method(self):\n        return self.read()\n"
            "    def _private(self):\n        pass\n"
            "class Lonely:\n"
            "    def make(self):\n        return Lonely().make()\n"
        ),
        "__init__.py": ast.parse("from .m import exported, recursive\n"),
    }
    reader = ast.parse("import m\nm.Box().read()\n")
    unread, stale = public_surface_faults(modules, [reader], {"kept": "a reader", "gone": "?"})
    assert set(unread) == {"unread", "recursive", "exported", "unread_method", "Lonely", "make"}
    assert unread["unread_method"] == "m.py:Box.unread_method"
    assert stale == ["gone"]
    assert public_surface_faults(modules, [reader], {})[0].keys() == set(unread) | {"kept"}


def test_a_function_read_does_not_read_a_method_of_its_name():
    # a method is read only as an attribute, and a function also as one
    modules = {
        "m.py": ast.parse(
            "def bracket(f, g):\n    return f\n"
            "def helper():\n    pass\n"
            "class Pres:\n"
            "    def bracket(self, f, g):\n        return bracket(f, g)\n"
            "    def size(self):\n        return 1\n"
            "def use(p):\n    return bracket(p, p), p.size()\n"
        )
    }
    reader = ast.parse("import m\nm.use(m.helper())\n")
    unread, _ = public_surface_faults(modules, [reader], {})
    assert unread == {"bracket": "m.py:Pres.bracket", "Pres": "m.py:5"}
    reader = ast.parse("import m\nm.use(m.Pres().bracket(1, 2))\n")
    assert public_surface_faults(modules, [reader], {}) == ({"helper": "m.py:3"}, [])


def test_a_data_attribute_read_does_not_read_a_method_of_its_name():
    # CGLReport.level was read through HPrimeNode.level, and
    # LogBracketMatrix.n through the benchmark's EnumTower.n
    modules = {
        "cgl.py": ast.parse(
            "class CGLReport:\n"
            "    def level(self, k):\n        return k\n"
            "def verify_cgl():\n    return CGLReport()\n"
        ),
        "cauchon.py": ast.parse(
            "class HPrimeNode:\n"
            "    def __init__(self, level):\n        self.level = level\n"
            "def depth(node):\n    return node.level\n"
        ),
        "strata.py": ast.parse(
            "class LogBracketMatrix:\n"
            "    def __init__(self, rows):\n        object.__setattr__(self, 'rows', rows)\n"
            "    def n(self):\n        return len(self.rows)\n"
            "    def size(self):\n        return self.n()\n"
            "def extract_log_matrix(rows):\n    return LogBracketMatrix(rows).size()\n"
        ),
    }
    reader = ast.parse(
        "import cgl, cauchon, strata\n"
        "class EnumTower:\n"
        "    def __init__(self, m, n):\n        self.m, self.n = m, n\n"
        "cgl.verify_cgl(), cauchon.depth(cauchon.HPrimeNode(1))\n"
        "strata.extract_log_matrix(EnumTower(2, 3).n)\n"
    )
    unread, _ = public_surface_faults(modules, [reader], {})
    assert unread == {"level": "cgl.py:CGLReport.level", "n": "strata.py:LogBracketMatrix.n"}
    listed = {"CGLReport.level": "?", "LogBracketMatrix.n": "?"}
    assert public_surface_faults(modules, [reader], listed) == ({}, [])
    # a bare method name lists nothing
    assert public_surface_faults(modules, [reader], {"level": "?"}) == (unread, ["level"])
    # without the colliding data attributes both methods have readers
    modules.pop("cauchon.py")
    reader = ast.parse("import cgl, strata\ncgl.verify_cgl().level(1), strata.extract_log_matrix([])\n")
    assert public_surface_faults(modules, [reader], {}) == ({}, [])


def test_the_guard_sees_each_way_of_setting_a_data_attribute():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self.plain = 1\n"
        "        self.first, self.second = 2, 3\n"
        "        self.counter += 1\n"
        "        vars(self).update(via_vars=4, **{'hidden': 5})\n"
        "        object.__setattr__(self, 'via_setattr', 6)\n"
        "        other.elsewhere = 7\n"
        "        object.__setattr__(other, 'not_self', 8)\n"
        "        vars(other).update(not_mine=9)\n"
        "        return self.read_only\n"
    )
    assert data_attributes(tree) == {
        "plain", "first", "second", "counter", "via_vars", "via_setattr"
    }


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
