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
    lip = json.loads((two_runs / "a" / "report.json").read_text())["monitors"]["lip_estimate"]
    assert (f"report.json: 1 value(s) differ, first at monitors.lip_estimate: "
            f"{lip!r} against {report['monitors']['lip_estimate']!r}") in out
    assert (f"report.json: largest numeric difference "
            f"{abs(report['monitors']['lip_estimate'] - lip):.3g} at monitors.lip_estimate") in out


def test_json_reports_the_first_path_and_the_largest_difference(two_runs):
    dest = _perturbed_copy(two_runs, "json2")
    report = json.loads((dest / "report.json").read_text())
    report["certification"]["certificates"][2]["items"][0]["rhs"] += 1e-12
    report["monitors"]["C3"] += 0.25
    report["scenario"]["order"] = "two"
    del report["exit_code"]
    (dest / "report.json").write_text(json.dumps(report))
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    lines = [line for line in out.splitlines() if line.startswith("report.json")]
    # Keys in sorted order: certification < exit_code < monitors < scenario.
    assert lines[0].startswith("report.json: 4 value(s) differ, first at "
                               "certification.certificates[2].items[0].rhs: ")
    assert lines[1] == "report.json: largest numeric difference 0.25 at monitors.C3"
    code, out = compare(dest, two_runs / "a")
    assert "first at certification.certificates[2].items[0].rhs" in out


def test_csv_reports_the_first_cell_and_the_largest_difference_per_column(two_runs):
    dest = _perturbed_copy(two_runs, "csv")
    lines = (dest / "fields.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("z", "margin_z_lo")}
    for line_no, name, delta in ((7, "margin_z_lo", 2e-13), (9, "z", 1e-3),
                                 (12, "margin_z_lo", -5e-13)):
        cells = lines[line_no - 1].split(",")
        cells[col[name]] = "%.17g" % (float(cells[col[name]]) + delta)
        lines[line_no - 1] = ",".join(cells)
    (dest / "fields.csv").write_text("\n".join(lines) + "\n")
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    found = [line for line in out.splitlines() if line.startswith("fields.csv")]
    assert found[0].startswith("fields.csv: first difference at line 7, column margin_z_lo: ")
    prefix = "fields.csv: largest |difference| by column: "
    assert found[1].startswith(prefix) and len(found) == 2
    largest = {name: float(value) for name, value in (
        item.split(" ") for item in found[1][len(prefix):].split(", "))}
    assert largest == {"z": pytest.approx(1e-3, rel=1e-2),
                       "margin_z_lo": pytest.approx(5e-13, rel=1e-2)}


def test_missing_file_is_reported(two_runs):
    dest = _perturbed_copy(two_runs, "missing")
    (dest / "fields.csv").unlink()
    code, out = compare(two_runs / "a", dest)
    assert code == 1
    assert "fields.csv: only in" in out
