"""Quick tests of the benchmark's correctness checks, at small n.

Each test feeds a check the real output of a small run, which it must
accept, then the same input with one planted defect, which it must reject.

Run: python3 -m pytest perfbench -q
"""
import json
import re
import shutil

import numpy as np
import pytest

import checkout

checkout.use_checkout_source()

from nozzleflow import cli, harness  # noqa: E402

import checks  # noqa: E402

N = 120


@pytest.fixture(scope="module")
def p3_run(tmp_path_factory):
    """simulate and verify of the P3 desk config at n = N."""
    tmp = tmp_path_factory.mktemp("p3")
    text = (checkout.CONFIGS / "p3_desk.cfg").read_text()
    cfg = tmp / "p3.cfg"
    cfg.write_text(re.sub(r"(?m)^n\s*=.*$", f"n = {N}", text))
    assert cli.main(["--quiet", "--out", str(tmp / "sim"), "simulate", str(cfg)]) == 0
    assert cli.main(["--quiet", "--out", str(tmp / "ver"), "verify",
                     str(tmp / "sim" / "trajectory.npz")]) == 0
    return tmp


def _report(run_dir):
    return json.loads((run_dir / "sim" / "report.json").read_text())


def test_csv_check_rejects_flipped_lambda(p3_run, tmp_path):
    csv = p3_run / "sim" / "fields.csv"
    assert checks.check_fields_csv(csv, "5/3", "P3") > 1
    lines = csv.read_text().splitlines()
    cells = lines[2].split(",")
    cells[-2], cells[-1] = cells[-1], cells[-2]
    lines[2] = ",".join(cells)
    flipped = tmp_path / "fields.csv"
    flipped.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="lambda1"):
        checks.check_fields_csv(flipped, "5/3", "P3")


def test_csv_check_rejects_wrong_speed_sign(p3_run):
    # The same valid fields read as a P2 run: every speed has the wrong sign.
    with pytest.raises(checks.CheckError, match="sign"):
        checks.check_fields_csv(p3_run / "sim" / "fields.csv", "5/3", "P2")


def test_exit_check_rejects_p3_path_stopped_by_the_cone(p3_run):
    chars = _report(p3_run)["characteristics"]
    checks.check_trace_exits(chars, "P3")
    chars["paths"][0]["exit"] = "cone"
    with pytest.raises(checks.CheckError, match="exit left"):
        checks.check_trace_exits(chars, "P3")


def test_ladder_check_rejects_residual_that_does_not_fall():
    # Residuals as measured on p3_desk at n = 1000 and 2000.
    rows = [(1000, 2.190e-2, 6.583e-3, 5.063e-5),
            (2000, 7.695e-3, 2.301e-3, 1.940e-5)]
    checks.check_ladder(rows)
    stalled = rows[:1] + [(2000, 7.695e-3, 2.301e-3, 5.063e-5)]
    with pytest.raises(checks.CheckError, match="conservative"):
        checks.check_ladder(stalled)
    slow = rows[:1] + [(2000, 1.5e-2, 2.301e-3, 1.940e-5)]
    with pytest.raises(checks.CheckError, match="family-1"):
        checks.check_ladder(slow)


def _reverify(npz, perturb_x=None):
    traj = harness.load_trajectory(npz)
    if perturb_x is not None:
        traj.z[1, int(perturb_x / traj.grid.dx)] *= 1.0 + 1e-6
    return {"characteristics": harness.characteristic_pass(traj),
            "conservative_residual": harness.conservative_residual(traj).to_dict()}


def test_verify_check_rejects_reloaded_trajectory_with_perturbed_cell(p3_run, tmp_path):
    npz = tmp_path / "trajectory.npz"
    shutil.copy(p3_run / "sim" / "trajectory.npz", npz)
    report = _report(p3_run)
    checks.check_verify_matches(report, _reverify(npz))
    # One cell of the second snapshot, where the first traced path starts.
    x0 = report["characteristics"]["paths"][0]["x0"]
    with pytest.raises(checks.CheckError, match="residual"):
        checks.check_verify_matches(report, _reverify(npz, perturb_x=x0))


def test_fingerprint_check_rejects_perturbed_cell(p3_run):
    with np.load(p3_run / "sim" / "trajectory.npz") as npz:
        fields = {name: npz[name].copy() for name in ("times", "z", "w")}
    first = checks.fields_fingerprint(fields)
    checks.check_same(first, checks.fields_fingerprint(fields), "stored fields")
    fields["w"][1, 0] = np.nextafter(fields["w"][1, 0], np.inf)
    with pytest.raises(checks.CheckError, match="stored fields"):
        checks.check_same(first, checks.fields_fingerprint(fields), "stored fields")
