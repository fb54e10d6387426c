"""Source hygiene: no module-level import that the module never uses, and
no top-level function or class in the package that only tests call."""
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
