import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mpsl.cli import main

HALF_U0 = {
    "minus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
    "plus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [0.5], "beta": [0.0], "eta": [0.0]},
}


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(HALF_U0))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = [ln.strip().split(",") for ln in fh if ln.strip()]
    return lines[0], lines[1:]


def test_validate_ok(problem_file, tmp_path, capsys):
    code = main(["validate", problem_file, "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["level"] == "linear"


def test_validate_bad_eta_exits_2(tmp_path, capsys):
    bad = dict(HALF_U0)
    bad["plus"] = {"alpha0": 1.0, "beta0": 0.0, "alpha": [0.5], "beta": [0.0], "eta": [1.5]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "eta" in err


def test_validate_hypothesis_violation_exits_2(tmp_path):
    bad = dict(HALF_U0)
    bad["minus"] = {"alpha0": 1.0, "beta0": 1.0, "alpha": [], "beta": [], "eta": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 2


def test_spectrum_csv(problem_file, tmp_path):
    code = main(["spectrum", problem_file, "--lambda-max", "30", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["k", "lambda", "family", "class_k", "sign", "bracket_lo", "bracket_hi"]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(1.7374299783, abs=1e-8)
    assert float(rows[1][1]) == pytest.approx(math.pi**2, abs=1e-8)


def test_spectrum_reference(problem_file, tmp_path):
    code = main(["spectrum", problem_file, "--reference", "dirichlet",
                 "--count", "5", "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_csv(tmp_path / "reference.csv")
    assert float(rows[0][1]) == pytest.approx(math.pi**2 / 4, rel=1e-12)


def test_predict_table(problem_file, tmp_path):
    code = main(["predict", problem_file, "--k", "0..4", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "predict.csv")
    assert header[:2] == ["k", "verdict"]
    assert all(row[1] == f"T({int(row[0]) + 1})" for row in rows)


def test_classify_roundtrip_from_spectrum(problem_file, tmp_path):
    assert main(["spectrum", problem_file, "--lambda-max", "30", "--out", str(tmp_path)]) == 0
    code = main([
        "classify", problem_file, "--from", str(tmp_path / "spectrum.csv"),
        "--out", str(tmp_path),
    ])
    assert code == 0


def test_classify_trace_file(tmp_path):
    xs = np.linspace(-1.0, 1.0, 2001)
    u = np.cos(math.pi * (xs + 1) / 2)
    up = -math.pi / 2 * np.sin(math.pi * (xs + 1) / 2)
    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as fh:
        fh.write("x,u,uprime\n")
        for row in zip(xs, u, up):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    code = main(["classify", "--trace", str(trace_path), "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert "S_1^+" in payload["classification"]["memberships"]


def test_solve_writes_solution(tmp_path):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}
    prob["forcing"] = {"h": "x"}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    code = main(["solve", str(path), "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert abs(payload["residuals"][0]) <= 1e-8 * payload["scales"][0]
    assert payload["nonresonance"]["ok"] is True
    header, rows = read_csv(tmp_path / "solution.csv")
    assert header == ["x", "u", "uprime"]
    assert len(rows) == 2001


def test_branch_files(tmp_path):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    code = main(["branch", str(path), "--k", "0", "--sign", "+", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "branch_k0_plus.csv")
    assert header == ["arclength", "lambda", "amplitude", "a", "b", "class"]
    assert len(rows) > 5
    svg = (tmp_path / "branch_k0_plus.svg").read_text()
    assert svg.startswith("<svg") and 'viewBox="0 0 800 500"' in svg


def test_nodal_solve_files(tmp_path):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    code = main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "nodal_k0_plus.json").read_text())
    assert payload["family"] == "T"
    assert "T_1^+" in payload["classification"]["memberships"]


def test_nodal_solve_hypothesis_failure_exit_4(tmp_path):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi", "f0": 1.0, "finf": 1.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    assert main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)]) == 4


def test_unknown_problem_keys_exit_2(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "extra": {}}))
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 2


def test_tolerance_override_range(problem_file, tmp_path):
    assert main(["classify", problem_file, "--k", "0", "--tol", "1",
                 "--out", str(tmp_path)]) == 2


def test_solve_numeric_failure_exit_3(tmp_path):
    # resonant forced linear problem: Newton cannot produce a solution
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi", "f0": 1.0, "finf": 1.0}
    prob["forcing"] = {"h": "1"}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    code = main(["solve", str(path), "--lam", "1.7374299783494567", "--out", str(tmp_path)])
    assert code == 3


def test_console_entry_point(problem_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mpsl", "validate", problem_file, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "level: linear" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda-max", "nan"],
    ["spectrum", "--lambda-max", "inf"],
    ["spectrum", "--lambda-max", "-1"],
    ["predict", "--k", "x"],
    ["solve", "--lam", "nan"],
])
def test_bad_flag_values_exit_2(argv, problem_file, tmp_path, capsys):
    try:
        code = main([argv[0], problem_file, *argv[1:], "--out", str(tmp_path)])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error" in err
