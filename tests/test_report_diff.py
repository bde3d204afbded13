"""tools/report_diff.py on small report-identity trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

REPORT = {"schema_version": 1,
          "environment": {"seed": 7, "validity_box": [[-0.5, 0.5]]},
          "checks": [{"name": "closedness", "residual": 1e-15,
                      "tolerance": 1e-07, "verdict": "pass",
                      "note": "min singular value 6.503e-01 on the box"}],
          "notes": [], "verdict": "pass"}
CSV = ("check,residual,tolerance,verdict\n"
       "closedness,1.0000000000000001e-15,9.9999999999999995e-08,pass\n")


def _tree(root, report=REPORT, csv=CSV, stderr=""):
    run = root / "so3"
    run.mkdir(parents=True)
    (run / "exit_code").write_text("0\n")
    (run / "stderr").write_text(stderr)
    (run / "so3_report.json").write_text(json.dumps(report, indent=2))
    (run / "so3_residuals.csv").write_text(csv)
    return root


def _edited(**edits):
    report = json.loads(json.dumps(REPORT))
    check = report["checks"][0]
    for key, value in edits.items():
        if key in check:
            check[key] = value
        else:
            report["environment"][key] = value
    return report


def test_identical_trees(tmp_path, capsys):
    assert report_diff.main([str(_tree(tmp_path / "a")),
                             str(_tree(tmp_path / "b"))]) == 0
    assert capsys.readouterr().out == "0 numeric values moved, 0 other differences\n"


def test_moved_residual_and_note_are_listed(tmp_path, capsys):
    head = _tree(tmp_path / "b", _edited(residual=3e-15,
                                         note="min singular value 6.504e-01 on the box"),
                 CSV.replace("1.0000000000000001e-15", "3e-15"))
    assert report_diff.main([str(_tree(tmp_path / "a")), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved  so3/so3_report.json.checks[closedness].residual: "
        "1e-15 -> 3e-15  |d| 2e-15  tol 1e-07",
        "moved  so3/so3_report.json.checks[closedness].note#0: "
        "0.6503 -> 0.6504  |d| 0.0001  tol 1e-07",
        "moved  so3/so3_residuals.csv[closedness].residual#0: "
        "1e-15 -> 3e-15  |d| 2e-15  tol 9.9999999999999995e-08",
        "3 numeric values moved, 0 other differences"]


@pytest.mark.parametrize("edit", [
    pytest.param({"verdict": "fail"}, id="verdict"),
    pytest.param({"tolerance": 1e-06}, id="tolerance"),
    pytest.param({"name": "closed"}, id="name"),
    pytest.param({"validity_box": [[-0.5, 0.6]]}, id="validity_box"),
    pytest.param({"note": "max singular value 6.503e-01 on the box"}, id="text"),
])
def test_other_differences_fail(tmp_path, capsys, edit):
    head = _tree(tmp_path / "b", _edited(**edit))
    assert report_diff.main([str(_tree(tmp_path / "a")), str(head)]) == 1
    assert "DIFFERS  so3/so3_report.json" in capsys.readouterr().out


def test_stderr_and_missing_files_fail(tmp_path, capsys):
    base = _tree(tmp_path / "a")
    head = _tree(tmp_path / "b", stderr="runtime error\n")
    (head / "so3" / "extra.csv").write_text("")
    assert report_diff.main([str(base), str(head)]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS  so3/stderr: differs" in out
    assert "DIFFERS  so3/extra.csv: only in head" in out
