"""Source hygiene: no module-level import that the module never uses, and
no top-level function or class in the package, nor public method or property
of a public package class, that only tests call."""
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


def unreferenced_definitions(package: dict, others: dict = None) -> list:
    """Top-level functions and classes of the ``package`` modules (name ->
    source) that no other module of ``package`` or ``others`` refers to, and
    that their own module refers to only inside their own definition."""
    trees = {name: ast.parse(text) for name, text in {**package, **(others or {})}.items()}
    refs = {name: _names(tree) for name, tree in trees.items()}
    found = []
    for module in package:
        elsewhere = Counter()
        for name, counts in refs.items():
            if name != module:
                elsewhere.update(counts)
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = refs[module][node.name] - _names(node)[node.name]
            if own <= 0 and not elsewhere[node.name]:
                found.append(f"{module}.{node.name}")
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
