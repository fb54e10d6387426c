"""Source hygiene: no module-level import that the module never uses, no
top-level function or class in the package, nor public method or property
of a public package class, that only tests call, and no module-level
constant of the package that only tests read."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "nozzleflow").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py")))
PACKAGE = [p for p in SOURCES if p.parent.name == "nozzleflow"]


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports and never referenced."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "x: 'unused' = os.path.join(np.pi, dataclass)\n")
    assert unused_imports(source) == ["field (line 4)"]


def _names(node) -> Counter:
    """Every name a subtree refers to: bare names, attributes and imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _defined(node) -> list:
    """The name a top-level function or class statement defines."""
    return [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []


def _assigned(node) -> list:
    """The names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def unreferenced_definitions(package: dict, others: dict = None, bound=_defined) -> list:
    """Names that top-level statements of the ``package`` modules (name ->
    source) bind, by default as functions and classes (``bound`` gives the
    names a statement binds), that no other module of ``package`` or
    ``others`` refers to, and that their own module refers to only inside
    the statement that binds them."""
    trees = {name: ast.parse(text) for name, text in {**package, **(others or {})}.items()}
    refs = {name: _names(tree) for name, tree in trees.items()}
    found = []
    for module in package:
        elsewhere = Counter()
        for name, counts in refs.items():
            if name != module:
                elsewhere.update(counts)
        for node in trees[module].body:
            for name in bound(node):
                own = refs[module][name] - _names(node)[name]
                if own <= 0 and not elsewhere[name]:
                    found.append(f"{module}.{name}")
    return sorted(found)


def test_no_test_only_definitions_in_the_package():
    package = {p.stem: p.read_text() for p in PACKAGE}
    scripts = {f"scripts/{p.stem}": p.read_text() for p in SOURCES if p not in PACKAGE}
    assert unreferenced_definitions(package, scripts) == []


def test_definition_detector_flags_test_only_code():
    package = {
        "a": ("def called_by_b():\n    pass\n"
              "def called_here():\n    pass\n"
              "def only_itself(n):\n    return only_itself(n - 1)\n"
              "class Lonely:\n    kind = 'Lonely'\n"
              "VALUE = called_here()\n"),
        "b": "from .a import called_by_b\n\ndef uses_script():\n    called_by_b()\n",
    }
    others = {"scripts/run": "import b\nb.uses_script()\n"}
    assert unreferenced_definitions(package, others) == ["a.Lonely", "a.only_itself"]
    assert unreferenced_definitions(package) == ["a.Lonely", "a.only_itself",
                                                 "b.uses_script"]


def test_no_test_only_constants_in_the_package():
    package = {p.stem: p.read_text() for p in PACKAGE}
    scripts = {f"scripts/{p.stem}": p.read_text() for p in SOURCES if p not in PACKAGE}
    assert unreferenced_definitions(package, scripts, _assigned) == []


def test_constant_detector_flags_unread_constants():
    package = {
        "a": ("LIMIT = 1e-9\n"
              "#: read by b\nSHARED: float = 2.0\n"
              "_BLOCK = 64\n"
              "LEFT, RIGHT = 0, 1\n"
              "def blocks(n):\n    return range(0, n, _BLOCK)\n"),
        "b": "from .a import SHARED, blocks\n\ndef f():\n    return blocks(SHARED)\n",
    }
    others = {"scripts/run": "import a\nprint(a.LEFT)\n"}
    assert unreferenced_definitions(package, others, _assigned) == ["a.LIMIT", "a.RIGHT"]
    assert unreferenced_definitions(package, bound=_assigned) == [
        "a.LEFT", "a.LIMIT", "a.RIGHT"]


def unreferenced_members(package: dict, others: dict = None) -> list:
    """Public methods and properties of the public classes of the ``package``
    modules (name -> source) that no module of ``package`` or ``others``
    refers to outside the member's own definition."""
    trees = {name: ast.parse(text) for name, text in {**package, **(others or {})}.items()}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_names(tree))
    found = []
    for module in package:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and everywhere[node.name] <= _names(node)[node.name]):
                    found.append(f"{module}.{cls.name}.{node.name}")
    return sorted(found)


def test_no_test_only_methods_in_the_package():
    package = {p.stem: p.read_text() for p in PACKAGE}
    scripts = {f"scripts/{p.stem}": p.read_text() for p in SOURCES if p not in PACKAGE}
    assert unreferenced_members(package, scripts) == []


def test_member_detector_flags_test_only_methods():
    package = {
        "a": ("class Shape:\n"
              "    def area(self):\n        return 1\n"
              "    def grow(self, n):\n        return self.grow(n - 1)\n"
              "    @property\n    def size(self):\n        return self.area()\n"
              "    def _hidden(self):\n        pass\n"
              "    def drawn(self):\n        pass\n"
              "class _Private:\n    def lonely(self):\n        pass\n"),
        "b": "from .a import Shape\n\ndef measure(s):\n    return s.size\n",
    }
    others = {"scripts/run": "import a\na.Shape().drawn()\n"}
    assert unreferenced_members(package, others) == ["a.Shape.grow"]
    assert unreferenced_members(package) == ["a.Shape.drawn", "a.Shape.grow"]
