"""Golden outputs of the CLI, run in-process and compared byte for byte with
the files under tests/golden/: `spectrum`, `classify` and `predict` on the
CI's worked-example, two-roots and touching problems, and the nonlinear
`solve`, `branch` and `nodal-solve`.

The linear golden files were written at commit 674c961, the nonlinear ones
at commit 5613099 and the f = xi branch at commit 201e591; this test holds
every later change to the same bytes.  The nonlinear runs are `solve` on the
CI's forced problem, which no axis start solves, so it is reached by
continuation in lambda, `solve`, `branch` and `nodal-solve` on the worked
conditions with f = xi*(1+3/(1+abs(xi))), and `branch` on the worked
conditions with f = xi, the kind of branch the benchmark's
nonlinear-continuation workload traces.  Neither f has `^`, so their files
do not depend on the platform's `pow`.  Each
run's exit code, stdout and stderr are in tests/golden/runs.json; its output
files are in tests/golden/<problem>-<command>/.
"""

import json
import pathlib

import pytest

from mpsl.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# The problem files of the CI's determinism step, and the worked conditions with f = xi*(1+3/(1+abs(xi))).
WORKED_SIDES = {"minus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
                "plus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [0.5], "beta": [0.0], "eta": [0.0]}}
PROBLEMS = {
    "worked": {**WORKED_SIDES, "nonlinearity": {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0},
               "forcing": {"h": "x"}},
    "tworoots": {"minus": {"alpha0": 1.0, "beta0": 0.0},
                 "plus": {"alpha0": 0.0, "beta0": 1.0, "alpha": [0.0, 0.0], "beta": [2.0, -1.48], "eta": [0.0, -1.0]}},
    "touching": {"minus": {"alpha0": 1.0, "beta0": 0.0},
                 "plus": {"alpha0": 0.0, "beta0": 1.0, "alpha": [0.0, 0.0], "beta": [3.6, -2.62], "eta": [0.0, -1.0]}},
    "forced": {"minus": {"alpha0": 0.5582991359201157, "beta0": -1.9854409272852585},
               "plus": {"alpha0": 1.6415742184361892, "beta0": 1.4005627939316034, "alpha": [0.412003298287241],
                        "beta": [0.0], "eta": [-0.167247]},
               "nonlinearity": {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0},
               "forcing": {"h": "1.5219703048977613*x"}},
    "abs": {**WORKED_SIDES, "nonlinearity": {"f": "xi*(1+3/(1+abs(xi)))", "f0": 4.0, "finf": 1.0},
            "forcing": {"h": "x"}},
    "xi": {**WORKED_SIDES, "nonlinearity": {"f": "xi", "f0": 1.0, "finf": 1.0}},
}
COMMANDS = {
    "spectrum": ["--lambda-max", "2e4"],
    "classify": ["--k", "0..40", "--format", "json"],
    "predict": ["--k", "0..40"],
    "solve": [],
    "branch": ["--k", "0", "--sign", "+"],
    "nodal-solve": ["--k", "0"],
}
RUNS = [(problem, command) for problem in ("worked", "tworoots", "touching")
        for command in ("spectrum", "classify", "predict")]
NONLINEAR_RUNS = [("forced", "solve"), ("abs", "solve"), ("abs", "branch"), ("abs", "nodal-solve"),
                  ("xi", "branch")]


def run(problem: str, command: str, tmp_path: pathlib.Path, capsys) -> tuple[dict, pathlib.Path]:
    """Run one subcommand in-process; its exit code, stdout and stderr, and its output directory."""
    path = tmp_path / f"{problem}.json"
    path.write_text(json.dumps(PROBLEMS[problem]))
    out = tmp_path / "out"
    code = main([command, str(path), *COMMANDS[command], "--out", str(out)])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err.replace(str(path), "PROBLEM")}, out


def check_golden(problem: str, command: str, tmp_path: pathlib.Path, capsys) -> None:
    record, out = run(problem, command, tmp_path, capsys)
    assert record == json.loads((GOLDEN / "runs.json").read_text())[f"{problem}-{command}"]
    golden = GOLDEN / f"{problem}-{command}"
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == (sorted(p.name for p in golden.iterdir()) if golden.exists() else [])
    for name in written:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("problem, command", RUNS)
def test_linear_cli_outputs_equal_the_golden_files(problem, command, tmp_path, capsys):
    check_golden(problem, command, tmp_path, capsys)


@pytest.mark.parametrize("problem, command", NONLINEAR_RUNS)
def test_nonlinear_cli_outputs_equal_the_golden_files(problem, command, tmp_path, capsys):
    check_golden(problem, command, tmp_path, capsys)
