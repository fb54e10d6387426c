#!/usr/bin/env python3
"""Compare two nozzleflow output directories (of ``simulate`` or ``verify``).

Usage: python scripts/compare_runs.py DIR_A DIR_B

Every file under either directory must exist under the other and match:
JSON files as parsed values with every ``runtime_seconds`` key dropped,
``.npz`` files entry by entry (same names, and each array of the same dtype
and shape holding the same bytes, which is stricter than np.array_equal:
0.0 and -0.0 differ), any other file (``fields.csv``, ``certificates.txt``)
byte for byte.  Prints one line per difference and exits 1 if there is
any, else 0.  For a JSON file it names the first value that differs (by
its key path) and the largest absolute difference of a number; for a CSV
table, the first cell that differs (by its line and column) and the
largest absolute difference in each column.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np


def _drop_runtime(value):
    if isinstance(value, dict):
        return {k: _drop_runtime(v) for k, v in value.items() if k != "runtime_seconds"}
    if isinstance(value, list):
        return [_drop_runtime(v) for v in value]
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_MISSING = object()  # a key the other file has


def _json_leaves(a, b, path=""):
    """(key path, value in a, value in b) of each place where the parsed
    JSON values a and b differ, in sorted key order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                yield sub, a.get(key, _MISSING), b.get(key, _MISSING)
            else:
                yield from _json_leaves(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_leaves(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def _show(value) -> str:
    if value is _MISSING:
        return "<missing>"
    if isinstance(value, (dict, list)):
        return f"<{type(value).__name__} of {len(value)}>"
    return repr(value)


def _json_differences(a: Path, b: Path) -> list:
    leaves = list(_json_leaves(_drop_runtime(json.loads(a.read_text())),
                               _drop_runtime(json.loads(b.read_text()))))
    if not leaves:
        return []
    path, x, y = leaves[0]
    found = [f"{len(leaves)} value(s) differ, first at {path}: {_show(x)} against {_show(y)}"]
    numeric = [(abs(x - y), path) for path, x, y in leaves
               if _is_number(x) and _is_number(y) and math.isfinite(x - y)]
    if numeric:
        delta, path = max(numeric)
        found.append(f"largest numeric difference {delta:.3g} at {path}")
    return found


def _csv_differences(a: Path, b: Path) -> list:
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    if not lines_a or not lines_b or lines_a[0] != lines_b[0]:
        return ["headers differ"]
    if len(lines_a) != len(lines_b):
        return [f"{len(lines_a)} lines against {len(lines_b)}"]
    header = lines_a[0].split(",")
    cells_a = [line.split(",") for line in lines_a[1:]]
    cells_b = [line.split(",") for line in lines_b[1:]]
    first = next(((i, j) for i, (ra, rb) in enumerate(zip(cells_a, cells_b))
                  for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)
    if first is None:
        return ["rows differ in length"]
    i, j = first
    found = [f"first difference at line {i + 2}, column {header[j]}: "
             f"{cells_a[i][j]} against {cells_b[i][j]}"]
    try:
        delta = np.abs(np.array(cells_a, dtype=float) - np.array(cells_b, dtype=float))
    except ValueError:  # ragged rows or a cell that is not a number
        return found
    largest = np.fmax.reduce(delta, axis=0)  # NaN only where a column is all NaN
    found.append("largest |difference| by column: " + ", ".join(
        f"{name} {value:.3g}" for name, value in zip(header, largest) if value != 0.0))
    return found


def _npz_differences(a: Path, b: Path) -> list:
    with np.load(a, allow_pickle=False) as fa, np.load(b, allow_pickle=False) as fb:
        names_a, names_b = set(fa.files), set(fb.files)
        found = [f"entry {name} only in one file" for name in sorted(names_a ^ names_b)]
        for name in sorted(names_a & names_b):
            x, y = fa[name], fb[name]
            if x.dtype != y.dtype or x.shape != y.shape:
                found.append(f"entry {name}: {x.dtype}{x.shape} against {y.dtype}{y.shape}")
            elif x.tobytes() != y.tobytes():
                found.append(f"entry {name}: values differ")
    return found


def file_differences(a: Path, b: Path) -> list:
    """What differs between two files of the same name (empty if nothing)."""
    if a.suffix == ".json":
        return _json_differences(a, b)
    if a.suffix == ".npz":
        return _npz_differences(a, b)
    if a.read_bytes() == b.read_bytes():
        return []
    return _csv_differences(a, b) if a.suffix == ".csv" else ["bytes differ"]


def differences(dir_a: Path, dir_b: Path) -> list:
    """One line per difference between the two directories."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    found = [f"{rel}: only in {dir_a if rel in files_a else dir_b}"
             for rel in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        found += [f"{rel}: {what}" for what in file_differences(dir_a / rel, dir_b / rel)]
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    found = differences(Path(argv[0]), Path(argv[1]))
    for line in found:
        print(line)
    if not found:
        print("no differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
