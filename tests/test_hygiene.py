"""Source hygiene: no module-level import that the module never uses, no
top-level function or class in the package, nor public method or property
of a public package class, that only tests call, no module-level constant
of the package that only tests read, no exit code left out of the
documents that list them, no name in README that the package lacks, no
file that README's lists of ``simulate`` outputs miss or that ``simulate``
does not write, and no ``monitor_report.json`` series that README's list
of them misses or that the file does not hold."""
import ast
import importlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import small_config
from nozzleflow import harness
from nozzleflow.cli import main

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


def _exit_code_paragraph(text: str) -> str:
    """``text`` from "Exit codes:" to the end of that paragraph."""
    return text[text.index("Exit codes:"):].split("\n\n")[0]


@pytest.mark.parametrize("document", ["cli docstring", "README"])
def test_every_exit_code_is_documented(document):
    codes = {name: value for name, value in vars(harness).items() if name.startswith("EXIT_")}
    if document == "README":
        text = (ROOT / "README.md").read_text()
    else:
        text = ast.get_docstring(ast.parse((ROOT / "src" / "nozzleflow" / "cli.py").read_text()))
    listed = {int(number) for number in re.findall(r"\d+", _exit_code_paragraph(text))}
    assert codes
    assert sorted(name for name, value in codes.items() if value not in listed) == []


def _package_namespace() -> dict:
    """The package's modules by name, and every class they define."""
    modules = {p.stem: importlib.import_module(f"nozzleflow.{p.stem}") for p in PACKAGE}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__.startswith("nozzleflow.")}
    return {**classes, **modules}


def stale_references(text: str, namespace: dict) -> list:
    """The backticked ``module.name`` and ``Class.member`` spans of the
    markdown ``text`` (outside fenced blocks) whose first part is a module or
    class of ``namespace`` and whose second part is neither an attribute of
    it nor a dataclass field."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    found = set()
    for span in re.findall(r"`([^`]+)`", text):
        named = re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
        if named is None or named[1] not in namespace:
            continue
        owner = namespace[named[1]]
        if not (hasattr(owner, named[2])
                or named[2] in getattr(owner, "__dataclass_fields__", {})):
            found.add(named[0])
    return sorted(found)


def test_readme_names_resolve():
    assert stale_references((ROOT / "README.md").read_text(), _package_namespace()) == []


def test_reference_detector_flags_stale_names():
    text = ("`solver.blocks`, `solver.step(fld, dt, scn)` and `solver.no_such_name(x)`;\n"
            "`Trajectory.interpolate`, `Trajectory.time_weights`, `Scenario.n`,\n"
            "`report.json` and `np.gradient`.\n```\nsolver.gone\n```\n")
    assert stale_references(text, _package_namespace()) == [
        "Trajectory.time_weights", "solver.no_such_name"]


#: The leads of README's sentences that list what ``simulate`` writes: on
#: exit 0, and on exit 4 (a blow-up).
_WRITES = "`simulate` writes into the output directory:"
_WRITES_ON_BLOW_UP = "ends in exit 4 with"


def _sentence(text: str, lead: str) -> str:
    """The sentence of ``text`` that starts at ``lead``, after the lead."""
    return re.search(re.escape(lead) + r"(.*?)\.\s", text, re.S)[1]


def listed_outputs(text: str, lead: str) -> set:
    """The backticked file names of the sentence of ``text`` that starts at
    ``lead``; ``name.{a,b}`` stands for ``name.a`` and ``name.b``."""
    found = set()
    for stem, ext in re.findall(r"`(\w+)\.(\w+|\{[\w,]+\})`", _sentence(text, lead)):
        found.update(f"{stem}.{e}" for e in ext.strip("{}").split(","))
    return found


@pytest.mark.parametrize("lead, subs, code", [
    (_WRITES, {"n = 2000": "n = 300", "T = 5.0": "T = 1.0"}, harness.EXIT_OK),
    (_WRITES_ON_BLOW_UP, {"n = 2000": "n = 100", "cfl = 0.9": "cfl = 2.0"},
     harness.EXIT_BLOWUP),
], ids=["exit-0", "exit-4"])
def test_readme_lists_what_simulate_writes(lead, subs, code, tmp_path):
    out = tmp_path / "out"
    cfg = small_config("p1_desk", tmp_path, subs)
    assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == code
    assert listed_outputs((ROOT / "README.md").read_text(), lead) == {
        p.name for p in out.iterdir()}


def test_output_list_detector_reads_one_sentence():
    text = ("Before: `old.csv`.\n`simulate` writes into the output directory:\n"
            "`certificates.{txt,json}`, `report.json` (`check --format json`), `run`\n"
            "and `t.npz`.  After: `later.json`.\n")
    listed = listed_outputs(text, _WRITES)
    assert listed == {"certificates.txt", "certificates.json", "report.json", "t.npz"}
    # A list that still names a file no longer written fails the check.
    assert listed != {"certificates.txt", "report.json", "t.npz"}


#: The lead of README's sentence that lists the ``series`` keys of
#: ``monitor_report.json``.
_SERIES = "per-step minima over the reporting window:"


def listed_series(text: str) -> set:
    """The backticked names of the sentence of ``text`` that starts at
    ``_SERIES``."""
    return set(re.findall(r"`(\w+)`", _sentence(text, _SERIES)))


@pytest.mark.parametrize("subs, code", [
    ({"n = 2000": "n = 300", "T = 5.0": "T = 1.0"}, harness.EXIT_OK),
    ({"n = 2000": "n = 100", "cfl = 0.9": "cfl = 2.0"}, harness.EXIT_BLOWUP),
], ids=["exit-0", "exit-4"])
def test_readme_lists_the_monitor_series(subs, code, tmp_path):
    out = tmp_path / "out"
    cfg = small_config("p1_desk", tmp_path, subs)
    assert main(["--quiet", "--out", str(out), "simulate", str(cfg)]) == code
    record = json.loads((out / "monitor_report.json").read_text())
    assert listed_series((ROOT / "README.md").read_text()) == set(record["series"])


def test_series_list_detector_reads_one_sentence():
    text = ("Before: `times`.  Five per-step minima over the reporting window:\n"
            "`min_gap` (the least w - z) and `min_margin_z_lo`.  After: `steps`.\n")
    listed = listed_series(text)
    assert listed == {"min_gap", "min_margin_z_lo"}
    # A list that still names a series no longer written fails the check.
    stale = listed_series(text.replace("`min_gap`", "`times`, `min_gap`"))
    assert stale == listed | {"times"} != listed
