import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import small_config
from nozzleflow.harness import EXIT_OK, run_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"


def compare(a, b):
    done = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    cfg = small_config("p3_desk", tmp, {"n = 2000": "n = 100", "T = 5.0": "T = 1.0"})
    for name in ("a", "b"):
        assert run_scenario(cfg, tmp / name) == EXIT_OK
    return tmp


def _perturbed_copy(two_runs, name):
    dest = two_runs / name
    shutil.copytree(two_runs / "b", dest)
    return dest


def test_identical_runs_compare_equal(two_runs):
    code, out = compare(two_runs / "a", two_runs / "b")
    assert code == 0, out
    assert out.strip() == "no differences"


def test_perturbed_npz_array_is_reported(two_runs):
    dest = _perturbed_copy(two_runs, "npz")
    with np.load(dest / "trajectory.npz", allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["z"] = arrays["z"].copy()
    arrays["z"][3, 5] = np.nextafter(arrays["z"][3, 5], np.inf)
    np.savez_compressed(dest / "trajectory.npz", **arrays)
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    assert "trajectory.npz: entry z: values differ" in out


def test_changed_report_value_is_reported(two_runs):
    dest = _perturbed_copy(two_runs, "json")
    report = json.loads((dest / "report.json").read_text())
    report["monitors"]["lip_estimate"] *= 1.0 + 1e-15
    (dest / "report.json").write_text(json.dumps(report))
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    assert "report.json: JSON values differ" in out


def test_missing_file_is_reported(two_runs):
    dest = _perturbed_copy(two_runs, "missing")
    (dest / "fields.csv").unlink()
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    assert "fields.csv: only in" in out
