#!/usr/bin/env python3
"""Compare two nozzleflow output directories (of ``simulate`` or ``verify``).

Usage: python scripts/compare_runs.py DIR_A DIR_B

Every file under either directory must exist under the other and match:
JSON files as parsed values with every ``runtime_seconds`` key dropped,
``.npz`` files entry by entry (same names, and each array of the same dtype
and shape holding the same bytes, which is stricter than np.array_equal:
0.0 and -0.0 differ), any other file (``fields.csv``, ``certificates.txt``)
byte for byte.  Prints one line per difference and exits 1 if there is
any, else 0.
"""
import json
import sys
from pathlib import Path

import numpy as np


def _drop_runtime(value):
    if isinstance(value, dict):
        return {k: _drop_runtime(v) for k, v in value.items() if k != "runtime_seconds"}
    if isinstance(value, list):
        return [_drop_runtime(v) for v in value]
    return value


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
        same = (_drop_runtime(json.loads(a.read_text()))
                == _drop_runtime(json.loads(b.read_text())))
        return [] if same else ["JSON values differ"]
    if a.suffix == ".npz":
        return _npz_differences(a, b)
    return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]


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
