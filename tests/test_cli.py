import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpsl
from mpsl import nodal
from mpsl.cli import GALLERY_X, SELFTEST_PROBLEM, _parse_k_range, main
from mpsl.conditions import _SEARCH_CAP
from mpsl.spectrum import CONTINUATION_K_MAX, SCAN_MAX_POINTS, SCAN_STEP_OMEGA

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


# The reference spectra do not depend on the problem: none is read, so a
# missing or empty file makes no difference.  A scan still needs one.
def test_spectrum_reference_reads_no_problem(tmp_path, capsys):
    assert main(["spectrum", "--reference", "mixed", "--count", "3", "--out", str(tmp_path / "a")]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["spectrum", str(empty), "--reference", "mixed", "--count", "3", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "reference.csv").read_text() == (tmp_path / "b" / "reference.csv").read_text()
    _, rows = read_csv(tmp_path / "a" / "reference.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([((2 * k + 1) * math.pi / 4) ** 2 for k in range(3)])
    capsys.readouterr()
    assert main(["spectrum", "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == "error: spectrum needs a problem file unless --reference is given\n"
    assert main(["spectrum", str(empty), "--out", str(tmp_path / "c")]) == 2
    assert "missing top-level key 'minus'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists() or not os.listdir(tmp_path / "c")


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


def test_spectrum_classifies_each_eigenpair_once(tmp_path, monkeypatch):
    two_mp = {
        "minus": {"alpha0": 1.0, "beta0": -1.0, "alpha": [0.1], "beta": [0.1], "eta": [0.5]},
        "plus": {"alpha0": 2.0, "beta0": 1.0, "alpha": [0.2], "beta": [0.1], "eta": [0.0]},
    }
    path = tmp_path / "two_mp.json"
    path.write_text(json.dumps(two_mp))
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)
        return counted

    # An eigenpair takes its memberships from nodal._memberships, classify's S/T/R rules.
    for attr in ("classify", "_memberships"):
        original = getattr(nodal, attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("mpsl") and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counting(original))
    assert main(["spectrum", str(path), "--lambda-max", "2e4", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 91
    assert len(calls) == 91


def test_classify_format_csv_exits_2(problem_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", problem_file, "--format", "csv", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


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


FORCED = {"minus": {"alpha0": 0.5582991359201157, "beta0": -1.9854409272852585},
          "plus": {"alpha0": 1.6415742184361892, "beta0": 1.4005627939316034, "alpha": [0.412003298287241],
                   "beta": [0.0], "eta": [-0.167247]},
          "nonlinearity": {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}, "forcing": {"h": "1.5219703048977613*x"}}


@pytest.mark.parametrize("prob", [
    {**HALF_U0, "nonlinearity": {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}, "forcing": {"h": "x"}},
    {**HALF_U0, "nonlinearity": {"f": "xi*(1+3/(1+abs(xi)))", "f0": 4.0, "finf": 1.0}, "forcing": {"h": "x"}},
    FORCED,
], ids=["sublinear", "abs", "forced"])
def test_classify_trace_of_a_solution_csv_gives_its_memberships(prob, tmp_path, capsys):
    # solution.csv holds the GRID samples of the trace that solution.json
    # classified from its DOP853 steps; classify --trace reads them as a user
    # trace (Hermite cells), and must give the same memberships, status and
    # flags, with zeros within 2e-8 (the Hermite derivative's error in u').
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    assert main(["solve", str(path), "--out", str(tmp_path / "solve")]) == 0
    assert main(["classify", "--trace", str(tmp_path / "solve" / "solution.csv"),
                 "--out", str(tmp_path / "trace")]) == 0
    want = json.loads((tmp_path / "solve" / "solution.json").read_text())["classification"]
    got = json.loads((tmp_path / "trace" / "classify.json").read_text())["classification"]
    assert capsys.readouterr().out.splitlines()[-1] == (", ".join(want["memberships"]) or "unclassified")
    assert got["memberships"] == want["memberships"] and got["status"] == want["status"]
    for name in ("zeros_u", "zeros_uprime"):
        assert [s for _, s in got[name]] == [s for _, s in want[name]]
        assert all(abs(z - w) <= 2e-8 for (z, _), (w, _) in zip(got[name], want[name]))


@pytest.mark.parametrize("limits, estimated", [({"f0": 1.0, "finf": 0.0}, []), ({"finf": 0.0}, ["f0"])],
                         ids=["declared", "f0-omitted"])
def test_solve_warns_of_estimated_limits(limits, estimated, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": "xi/(1+abs(xi))", **limits},
                                "forcing": {"h": "x"}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
    warned = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warned == [f"warning: {name} estimated from samples (declare it for exactness)" for name in estimated]


# Nonresonance is read at lam*finf, the slope of lam*f at infinity, and a verdict
# that is not ok is a warning on stderr that leaves the exit code to the solve.
# On the worked example (finf = 1) lam*finf = lam_0 = 1.73743 is resonance at
# infinity, and lam*finf = 20 lies between lam_1 = 9.87 and lam_2 = 24.65.
WORKED = {**HALF_U0, "nonlinearity": {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0}, "forcing": {"h": "x"}}


@pytest.mark.parametrize("lam, ok, nearest", [("1", True, 1.7374299783494567),
                                              ("1.7374299783494567", False, 1.7374299783494567),
                                              ("20", True, 24.651912513574374)])
def test_solve_reads_nonresonance_at_lam_times_finf(lam, ok, nearest, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(WORKED))
    assert main(["solve", str(path), "--lam", lam, "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "solution.json").read_text())["nonresonance"]
    assert verdict["ok"] is ok and verdict["finf"] == 1.0
    assert verdict["nearest_eigenvalue"] == pytest.approx(nearest, rel=1e-12)
    assert verdict["distance"] == pytest.approx(abs(nearest - float(lam)), abs=1e-12)
    warned = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert warned == ([] if ok else [f"warning: {verdict['reason']}"])
    assert ok or verdict["reason"].startswith("resonant: lam*finf = 1.73742997835")


# u'(-1) = 0, u'(1) = u'(0)/2 with f = exp(xi): Neumann-type, outside the theory.
def test_solve_warns_that_a_neumann_type_problem_is_out_of_scope(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"minus": {"alpha0": 0.0, "beta0": -1.0},
                                "plus": {"alpha0": 0.0, "beta0": 1.0, "alpha": [0.0], "beta": [0.5], "eta": [0.0]},
                                "nonlinearity": {"f": "exp(xi)", "f0": 1.0}}))
    main(["solve", str(path), "--out", str(tmp_path)])
    assert "warning: out of scope: Neumann-type problem (alpha0- + alpha0+ = 0)" in capsys.readouterr().err.splitlines()


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


# The worked example's f is odd: the '-' branch is the '+' one mirrored, with
# a and b negated and every label's sign flipped.
def test_branch_of_odd_f_writes_the_mirrored_minus_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0}}))
    assert main(["branch", str(path), "--k", "0", "--out", str(tmp_path)]) == 0
    header, plus = read_csv(tmp_path / "branch_k0_plus.csv")
    minus_header, minus = read_csv(tmp_path / "branch_k0_minus.csv")
    assert minus_header == header and len(minus) == len(plus) > 5
    for m, p in zip(minus, plus):
        assert m[:3] == p[:3] and m[5] == p[5].replace("^+", "^-")
        assert [float(v) for v in m[3:5]] == [-float(v) for v in p[3:5]] and "-0" not in m[3:5]


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


NONODD = {**HALF_U0, "nonlinearity": {"f": "xi*(1+3/(1+xi^2)) + 0.5*xi^4/(1+xi^6)", "f0": 4.0, "finf": 1.0}}


def _count_continuations(monkeypatch):
    """Record k_max of every continuation_spectrum call, from any module."""
    import mpsl.branching
    import mpsl.cli
    import mpsl.spectrum

    calls = []
    real = mpsl.cli.continuation_spectrum

    def counted(spec, k_max):
        calls.append(k_max)
        return real(spec, k_max)

    for module in (mpsl.cli, mpsl.branching, mpsl.spectrum):
        monkeypatch.setattr(module, "continuation_spectrum", counted)
    return calls


# One continued spectrum per run: the nodal solve reads psi_k and its
# uniqueness window from one list, and a multi-k branch run passes each
# tracer, for every k and both signs, its eigenpair from one list.
@pytest.mark.parametrize("command, prob, k_range", [("nodal-solve", WORKED, "0"), ("branch", NONODD, "0..2")])
def test_a_nonlinear_run_continues_once(command, prob, k_range, tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    calls = _count_continuations(monkeypatch)
    assert main([command, str(path), "--k", k_range, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# classify runs before the solution's files are written, so a classification
# that fails leaves no CSV without its JSON.
@pytest.mark.parametrize("command, flags", [("solve", []), ("nodal-solve", ["--k", "0"])])
def test_a_failed_classification_writes_no_solution_file(command, flags, tmp_path, monkeypatch, capsys):
    import mpsl.cli
    from mpsl.errors import UnresolvableZeros

    def fail(trace):
        raise UnresolvableZeros("zeros not resolved")

    monkeypatch.setattr(mpsl.cli, "classify", fail)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(WORKED))
    out = tmp_path / "out"
    assert main([command, str(path), *flags, "--out", str(out)]) == 3
    assert not out.exists() or os.listdir(out) == []
    assert "zeros not resolved" in capsys.readouterr().err


def test_nodal_solve_hypothesis_failure_exit_4(tmp_path):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": "xi", "f0": 1.0, "finf": 1.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    assert main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)]) == 4


# f raises on the certificate grid (an overflow, a math domain error, a
# complex power): the envelope hypothesis fails at that xi, so both routes
# fail and nodal-solve exits 4 without a traceback.
@pytest.mark.parametrize("f", ["xi*exp(xi^2)", "log(xi)+xi", "xi^0.5+xi"])
def test_nodal_solve_f_failing_on_the_certificate_grid_exits_4(f, tmp_path, capsys):
    prob = dict(HALF_U0)
    prob["nonlinearity"] = {"f": f, "f0": 1.0, "finf": 2.0}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    assert main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "f is not a finite real at xi=" in err


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


@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf"])
@pytest.mark.parametrize("command", ["branch", "nodal-solve", "selftest"])
def test_eps_seed_must_be_positive(command, value, problem_file, tmp_path, capsys):
    problem = [] if command == "selftest" else [problem_file]
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value
        main([command, *problem, f"--eps-seed={value}", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "argument --eps-seed" in err
    assert not (tmp_path / "out").exists()


# Runs the CLI in a fresh interpreter, then prints which scipy and
# numpy.polynomial modules it loaded: both are import costs that only
# subcommands which integrate may pay.
SCIPY_PROBE = (
    "import json, sys\n"
    "from mpsl.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))))\n"
    "sys.exit(code)\n"
)


def run_probe(argv):
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["spectrum"],
    ["predict", "--k", "0..10"],
    ["classify", "--k", "0..3", "--format", "svg"],
])
def test_linear_subcommands_never_import_scipy(argv, problem_file, tmp_path):
    assert run_probe([argv[0], problem_file, *argv[1:], "--out", str(tmp_path)]) == []


# Integrates the worked example in a fresh interpreter, with integrate_ivp,
# bvp_jacobian and `python -m mpsl solve`, then prints the scipy modules it
# loaded: the DOP853 stepper needs none of them.
NO_SCIPY_PROBE = (
    "import json, runpy, sys\n"
    "from mpsl.cli import SELFTEST_PROBLEM\n"
    "from mpsl.expressions import ForcingTerm, NonlinearitySpec\n"
    "from mpsl.problem import problem_from_dict\n"
    "from mpsl.shooting import bvp_jacobian, integrate_ivp\n"
    "spec, extras = problem_from_dict(SELFTEST_PROBLEM)\n"
    "nl = NonlinearitySpec.from_text(extras['nonlinearity']['f'], f0=4.0, finf=1.0)\n"
    "h = ForcingTerm.from_text(extras['forcing']['h'])\n"
    "integrate_ivp(nl, h, 1.0, 0.0, 1.0)\n"
    "bvp_jacobian(spec, nl, h, (1.0, 0.0, 1.0), (1, 2))\n"
    "sys.argv = ['mpsl', 'solve', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('mpsl', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def _run_fresh(probe: str, *args: str) -> subprocess.CompletedProcess:
    """Run a probe script in a fresh interpreter that imports this mpsl."""
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env)


def test_integration_never_imports_scipy(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SELFTEST_PROBLEM))
    proc = _run_fresh(NO_SCIPY_PROBE, str(path), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
    assert (tmp_path / "solution.json").exists()


# Runs one subcommand in a fresh interpreter through mpsl.cli.main, then
# prints its exit code and the scipy modules it loaded.
SCIPY_MODULES_PROBE = (
    "import json, sys\n"
    "from mpsl.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
)


@pytest.mark.parametrize("argv", [
    ["branch", "--k", "0", "--sign", "+"],
    ["selftest", "--seed", "11"],
], ids=lambda argv: argv[0])
def test_energy_and_envelope_certificates_never_import_scipy(argv, tmp_path):
    # The worked example's energy certificate halves the gap [0, 1.388].
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SELFTEST_PROBLEM))
    problem = [] if argv[0] == "selftest" else [str(path)]
    out = tmp_path / "out"
    proc = _run_fresh(SCIPY_MODULES_PROBE, argv[0], *problem, *argv[1:], "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, []]
    assert (out / "branch_k0_plus.csv").exists()


# Runs one subcommand in a fresh interpreter through mpsl.cli.main, then
# prints its exit code and the numpy and nonlinear mpsl modules it loaded.
# A fresh process also meets any import-order fault that the test process,
# with its modules already loaded, would hide.
LINEAR_PROBE = (
    "import json, sys\n"
    "from mpsl.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "heavy = {'mpsl.shooting', 'mpsl.branching', 'mpsl.expressions', 'mpsl.dop853'}\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m in heavy)]))\n"
)


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["spectrum"],
    ["predict", "--k", "0..10"],
    ["classify", "--k", "0..3", "--format", "svg"],
    ["solve"],
], ids=lambda argv: argv[0])
def test_linear_subcommands_load_no_numpy_and_no_nonlinear_module(argv, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SELFTEST_PROBLEM))
    proc = _run_fresh(LINEAR_PROBE, argv[0], str(path), *argv[1:], "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    if argv[0] == "solve":  # the nonlinear layer is imported where it is used
        assert {"numpy", "mpsl.shooting", "mpsl.expressions", "mpsl.dop853"} <= set(loaded)
    else:
        assert loaded == []


def test_gallery_abscissae_are_numpy_linspace_bit_for_bit():
    assert [x.hex() for x in GALLERY_X] == [float(x).hex() for x in np.linspace(-1.0, 1.0, 401)]


@pytest.mark.parametrize("body", [
    '{"minus": {"alpha0": 1.0, ',  # malformed JSON
    json.dumps({**HALF_U0, "minus": {"alpha0": "a", "beta0": 0.0}}),  # non-numeric coefficient
    None,  # missing file
    "[" * 200000,  # nested past the JSON decoder's recursion limit
], ids=["malformed-json", "non-numeric-coefficient", "missing-file", "nested-past-decoder"])
def test_problem_file_errors_exit_2(body, tmp_path, capsys):
    path = tmp_path / "p.json"
    if body is not None:
        path.write_text(body)
    assert main(["validate", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "selftest"])
def test_out_naming_a_file_exits_2(command, problem_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    problem = [] if command == "selftest" else [problem_file]
    assert main([command, *problem, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ") and str(out) in err and err.count("\n") == 1
    assert out.read_text() == ""


NONLINEAR = {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}


@pytest.mark.parametrize("sections, message", [
    ({"nonlinearity": {"f": 5}}, "'f' must be an expression string"),
    ({"nonlinearity": NONLINEAR, "forcing": {"h": 3}}, "'h' must be an expression string"),
    ({"nonlinearity": {**NONLINEAR, "f0": "a"}}, "f0 and finf must be numbers"),
    ({"nonlinearity": "xi"}, "nonlinearity must be a JSON object"),
    ({"nonlinearity": {**NONLINEAR, "f": "xi*2\u00b2"}}, "unexpected character '\u00b2' at position 4"),
    ({"nonlinearity": {**NONLINEAR, "f": "xi*1e400"}}, "number too large for a float at position 3"),
], ids=["f-number", "h-number", "f0-string", "section-string", "f-superscript-digit", "f-overflowing-literal"])
def test_nonlinear_section_errors_exit_2(sections, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, **sections}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# Only an absent key, null or {} means no section; any other value that is
# not an object, falsy ones included, is refused before anything is solved.
@pytest.mark.parametrize("name", ["forcing", "nonlinearity"])
@pytest.mark.parametrize("value", [0, False, [], "", "x", 1, [{"h": "x"}]],
                         ids=["zero", "false", "empty-list", "empty-string", "string", "one", "list"])
def test_section_that_is_not_an_object_exits_2(name, value, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": NONLINEAR, name: value}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be a JSON object\n"
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("value", [None, {}], ids=["null", "empty-object"])
def test_null_or_empty_section_is_absent(value, tmp_path, capsys):
    from mpsl.cli import _forcing

    assert _forcing({"forcing": value}) is None
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": value}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: solve needs a 'nonlinearity' section in the problem file\n"


@pytest.mark.parametrize("body", [
    None,
    "x,u\n-1,0\n1,0\n",
    "x,u,uprime\n-1,0,1\n",
    "x,u,uprime\n-1,0,a\n1,0,1\n",
    # a dense trace of u = x, valid but for one NaN
    "x,u,uprime\n" + "".join(f"{x!r},{'nan' if i == 1000 else repr(x)},1\n"
                              for i, x in enumerate(np.linspace(-1.0, 1.0, 2001).tolist())),
    "x,u,uprime\n1,0,1\n-1,0,1\n",
], ids=["missing-file", "two-columns", "single-row", "non-numeric", "nan", "x-decreasing"])
def test_classify_trace_errors_exit_2(body, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    if body is not None:
        path.write_text(body)
    assert main(["classify", "--trace", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace file ") and err.count("\n") == 1


def test_classify_trace_header_only_prints_one_error_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("x,u,uprime\n")
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpsl", "classify", "--trace", str(path), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: trace file {path}: holds no data rows\n"


@pytest.mark.parametrize("k", [str(_SEARCH_CAP + 1), f"0..{_SEARCH_CAP + 1}", f"0..{10**30}"])
def test_k_above_search_cap_exits_2(k, problem_file, tmp_path, capsys):
    # A range past sys.maxsize cannot be materialised, so a missing bound
    # fails at once instead of allocating.
    assert main(["predict", problem_file, "--k", k, "--out", str(tmp_path)]) == 2
    assert f"<= {_SEARCH_CAP}" in capsys.readouterr().err


def test_k_range_reaches_the_search_cap():
    assert _parse_k_range(f"{_SEARCH_CAP - 1}..{_SEARCH_CAP}") == [_SEARCH_CAP - 1, _SEARCH_CAP]
    assert _parse_k_range(f"3,{_SEARCH_CAP}") == [3, _SEARCH_CAP]


def test_lambda_max_above_scan_ceiling_exits_2(problem_file, tmp_path, capsys):
    ceiling = (SCAN_MAX_POINTS * SCAN_STEP_OMEGA) ** 2
    t0 = time.perf_counter()
    for lam_max in (ceiling * 1.001, 1e300):
        assert main(["spectrum", problem_file, "--lambda-max", repr(lam_max), "--out", str(tmp_path)]) == 2
        assert "scan points" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0


# f = xi^1e6 underflows to 0 where |u| < 1 and overflows where |u| > 1, so
# -u'' = f(u) + h has the solution of -u'' = h when that stays inside
# |u| < 1: u = c*(x - x^3) for h = 6c*x on the selftest boundary conditions.
@pytest.mark.parametrize("h, code, c", [("x", 0, 1 / 6), ("3*x", 0, 1 / 2), ("2", 3, None)],
                         ids=["inside", "start-overflows", "no-solution"])
def test_solve_with_overflowing_f(h, code, c, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**SELFTEST_PROBLEM, "nonlinearity": {"f": "xi^1e6", "f0": 0.0},
                                "forcing": {"h": h}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if c is None:
        assert "solution found" not in out and not (tmp_path / "solution.json").exists()
        return
    _, rows = read_csv(tmp_path / "solution.csv")
    x, u = np.array([[float(r[0]), float(r[1])] for r in rows]).T
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - c * (x - x**3))) <= 1e-8


def _branch_k0_plus(f: str, tmp_path):
    """`mpsl branch --k 0 --sign +` in a fresh process on the half-u(0)
    conditions with f and f0 = 1: (the process, the CSV rows)."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": f, "f0": 1.0}}))
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpsl", "branch", str(path), "--k", "0", "--sign", "+",
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc, read_csv(tmp_path / "branch_k0_plus.csv")[1]


# The from-zero branch of a superlinear f heads to lam -> 0 as its amplitude
# grows.  With Jacobian probes of 1e-6*(1 + |z_j|), 40-67 % of lam there, the
# corrector failed ever more often and the run did not end within 300 s; a
# probe of 1e-6*|z_j| lets it reach the lambda floor in a few seconds.
def test_superlinear_branch_ends_at_the_lambda_floor(tmp_path):
    proc, rows = _branch_k0_plus("xi*(1+xi^2)", tmp_path)
    assert "branch_k0_plus: 81 points, termination lambda_floor" in proc.stdout
    assert len(rows) == 81 and float(rows[-1][1]) < 1e-9


# Along the branch of xi*exp(xi^2) some predicted points lie where the IVP
# blows up before x = 1.  The corrector treats that as a failed step and
# halves ds; the run used to end there with exit 3 and no file.
def test_blow_up_at_a_predicted_point_cuts_the_step(tmp_path):
    proc, rows = _branch_k0_plus("xi*exp(xi^2)", tmp_path)
    assert "branch_k0_plus: 56 points, termination lambda_floor" in proc.stdout
    assert len(rows) == 56 and float(rows[-1][1]) < 1e-9


# Each of these f's makes the integrator's step size NaN when it starts
# from a state where f is not finite (u < 0 for the powers, any u for
# xi/0), and scipy's DOP853 then rejects the step forever: `solve` used to
# hang there.  xi/0 has no solution; the two powers have a genuine solution
# that stays in u >= 0, where they are finite.
@pytest.mark.parametrize("f, code", [("xi^0.5", 0), ("xi/0", 3), ("xi^xi", 0)],
                         ids=["sqrt", "divide-by-zero", "complex-power"])
def test_solve_ends_when_f_is_not_finite(f, code, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**SELFTEST_PROBLEM, "nonlinearity": {"f": f, "f0": 4.0, "finf": 1.0}}))
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "mpsl", "solve", str(path), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - t0 < 30.0  # about 1.5 s on 2 vCPUs
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        _, rows = read_csv(tmp_path / "solution.csv")
        assert min(float(r[1]) for r in rows) >= 0.0
    else:
        assert not (tmp_path / "solution.json").exists()


# log(xi) raises a math domain error at u = 0, which is u(-1) here: an error
# of f is divergence, so every start fails and `solve` exits 3.  sqrt(xi)
# raises the same error in a step that strays below u = 0, but its solution
# stays in u >= 0.
@pytest.mark.parametrize("f, code", [("log(xi)", 3), ("sqrt(xi)", 0)], ids=["log", "sqrt"])
def test_solve_domain_error_of_f_is_divergence(f, code, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": f, "f0": 1.0, "finf": 0.0},
                                "forcing": {"h": "x"}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == code
    assert "Traceback" not in capsys.readouterr().err


# sum |alpha_i| past the float range used to end in math.fsum's OverflowError.
# It saturates to inf, so the squared-fraction condition fails as it should.
OVERFLOWING_SUM = {"minus": {"alpha0": 1, "beta0": 0},
                   "plus": {"alpha0": 1e308, "beta0": 0, "alpha": [1e308, 1e308], "beta": [0, 0], "eta": [0, 0.5]}}


@pytest.mark.parametrize("argv, code", [(["validate"], 2), (["spectrum"], 0), (["predict", "--k", "0..2"], 0),
                                        (["classify", "--k", "0"], 4)], ids=["validate", "spectrum", "predict", "classify"])
def test_overflowing_coefficient_sum_is_an_answer(argv, code, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(OVERFLOWING_SUM))
    assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if argv[0] == "validate":
        assert "error: plus side: squared coefficient fractions sum to inf >= 1" in err
    if argv[0] == "predict":
        assert out.count("Indeterminate") == 3


# A forcing term that raises (x/0, a math domain error, an overflow) or is
# complex at a probe point is a ParseError that names that x.
@pytest.mark.parametrize("h, x", [("1/x", "0"), ("log(x)", "-1"), ("exp(1000*x)", "0.72"), ("x + (-1)^0.5", "-1")],
                         ids=["divide-by-zero", "domain", "overflow", "complex"])
def test_forcing_term_not_a_finite_real_exits_2(h, x, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**SELFTEST_PROBLEM, "forcing": {"h": h}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: forcing term is not a finite real at x={x}\n"


# An undeclared limit is estimated from f at +-1e-6..1e-3 (f0) or
# +-1e4..1e7 (finf); where f is not a finite real there, the run asks for
# that limit to be declared.
@pytest.mark.parametrize("f, limit", [("sqrt(xi)*xi", "f0"), ("xi*sqrt(1e10 - xi^2)", "finf")])
def test_limit_that_cannot_be_estimated_exits_2(f, limit, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": f}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot estimate {limit} (f is not a finite real at xi=")
    assert f"declare {limit}" in err and "Traceback" not in err


# Errors about an expression as a whole name no position in its text; the
# parser's own errors keep theirs (test_nonlinear_section_errors_exit_2).
@pytest.mark.parametrize("sections, line", [
    ({"nonlinearity": {**NONLINEAR, "f": "x*xi"}}, "nonlinearity may only use 'xi', found ['x', 'xi']"),
    ({"nonlinearity": NONLINEAR, "forcing": {"h": "xi"}}, "forcing term may only use 'x', found ['xi']"),
    ({"nonlinearity": NONLINEAR, "forcing": {"h": "1/x"}}, "forcing term is not a finite real at x=0"),
    ({"nonlinearity": {"f": "sqrt(xi)*xi", "finf": 1.0}},
     "cannot estimate f0 (f is not a finite real at xi=-0.001): declare f0"),
], ids=["f-variable", "h-variable", "h-not-finite", "f0-not-finite"])
def test_whole_expression_errors_name_no_position(sections, line, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, **sections}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


# An undeclared f0 whose estimate does not settle asks for f0 (exit 2); this
# f went on with f0 = -1e289 and failed the f0 positivity hypothesis (exit 4).
def test_unsettled_f0_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": "xi + 1e300*xi^3", "finf": 1.0}}))
    assert main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot estimate f0 (f(xi)/xi does not settle: ") and err.endswith("): declare f0\n")


# An undeclared finf whose two signs of xi give opposite levels asks for finf
# (exit 2); xi^2 went on with finf = 0.0, the mean of +-1.1e7.
def test_finf_with_opposite_levels_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": "xi^2", "f0": 1.0}}))
    assert main(["nodal-solve", str(path), "--k", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot estimate finf (f(xi)/xi has the levels ") and err.endswith("): declare finf\n")


# A complex constant makes every value of f complex, and a complex value is
# not a finite real: the march rejects every step, so no solve converges,
# and the envelope certificate fails at the first grid point.  These used
# to end in a TypeError, or to solve for the real part of f after numpy's
# ComplexWarning.
@pytest.mark.parametrize("f, argv, code", [
    ("-1^0.5 + xi", ["solve"], 3),
    ("xi*(1+3/(1+xi^2)) + (-1)^0.5", ["solve"], 3),
    ("xi*(1+3/(1+xi^2)) + (-1)^0.5", ["branch", "--k", "0", "--sign", "+"], 3),
    ("xi*(1+3/(1+xi^2)) + (-1)^0.5", ["nodal-solve", "--k", "0"], 4),
], ids=["constant-first", "solve", "branch", "nodal-solve"])
def test_complex_f_is_not_a_finite_real(f, argv, code, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**SELFTEST_PROBLEM, "nonlinearity": {"f": f, "f0": 4.0, "finf": 1.0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning:" not in err
    if argv[0] == "nodal-solve":
        assert "f is not a finite real at xi=-10000" in err


# Nested about 200 levels deep, each of these used to end in a traceback:
# RecursionError in the parser, and SyntaxError or MemoryError from Python's
# compiler on the fully parenthesised source of f.
@pytest.mark.parametrize("f", ["(" * 200 + "xi" + ")" * 200, "+".join(["xi"] * 250),
                               "^".join(["xi"] * 250)], ids=["parentheses", "sum", "power-chain"])
def test_deep_expression_exits_2(f, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**HALF_U0, "nonlinearity": {"f": f, "f0": 1.0, "finf": 1.0}}))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nests deeper than") and err.count("\n") == 1


@pytest.mark.parametrize("body", [None, "", "k,lambda,family,class_k,sign,bracket_lo,bracket_hi\nx,1.7,T,1,+,,\n"],
                         ids=["missing-file", "empty-file", "non-numeric-k"])
def test_classify_from_bad_spectrum_file_exits_2(body, problem_file, tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    if body is not None:
        path.write_text(body)
    assert main(["classify", problem_file, "--from", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spectrum file {path}") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-1", str(_SEARCH_CAP + 2), "100000000"])
def test_reference_count_out_of_range_exits_2(count, problem_file, tmp_path, capsys):
    argv = ["spectrum", problem_file, "--reference", "mixed", "--count", count, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --count must be in") and err.count("\n") == 1
    assert not (tmp_path / "reference.csv").exists()


# numpy warns about every value of f that is not finite; the integrator
# already turns those into rejected steps or divergence.
@pytest.mark.parametrize("f, code", [("xi/0", 3), ("xi^0.5", 0)], ids=["divide-by-zero", "sqrt"])
def test_solve_prints_no_runtime_warning_when_f_is_not_finite(f, code, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**SELFTEST_PROBLEM, "nonlinearity": {"f": f, "f0": 4.0, "finf": 1.0}}))
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpsl", "solve", str(path), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.count("\n") == (0 if code == 0 else 1)


def _flags(classification: dict) -> list:
    pairs = classification["zeros_u"] + classification["zeros_uprime"]
    return [s for _, s in pairs] + [classification["satisfies_minus_bc"], classification["satisfies_plus_bc"]]


def test_json_flags_are_booleans(tmp_path):
    # Sampled traces yield numpy bools; each flag must still load as a JSON boolean.
    prob = {**HALF_U0, "nonlinearity": NONLINEAR, "forcing": {"h": "x"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    xs = np.linspace(-1.0, 1.0, 2001)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("x,u,uprime\n" + "".join(
        f"{x!r},{math.cos(math.pi * (x + 1) / 2)!r},{-math.pi / 2 * math.sin(math.pi * (x + 1) / 2)!r}\n"
        for x in xs.tolist()))
    assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
    solved = _flags(json.loads((tmp_path / "solution.json").read_text())["classification"])
    assert main(["classify", "--trace", str(trace_path), str(path), "--out", str(tmp_path)]) == 0
    traced = _flags(json.loads((tmp_path / "classify.json").read_text())["classification"])
    assert solved[:-2] and all(type(s) is bool for s in solved[:-2]) and solved[-2:] == [None, None]
    assert len(traced) > 2 and all(type(s) is bool for s in traced)


# alpha0/beta0 = 1e285 on the plus side: its square overflows a float, and
# its Robin eigenvalues are the Dirichlet ones to float precision.
EXTREME = {"minus": {"alpha0": 1.0, "beta0": 0.0}, "plus": {"alpha0": 1e300, "beta0": 1e15}}
# alpha0/beta0 = 1e-300 on the plus side: Neumann to float precision.
NEAR_NEUMANN = {"minus": {"alpha0": 0.0, "beta0": -1.0}, "plus": {"alpha0": 1e-300, "beta0": 1.0}}
# alpha0/beta0 = -1e290 on the minus side, facing a multi-point plus side.
NEAR_DIRICHLET = {"minus": {"alpha0": 1.0, "beta0": -1e-290},
                  "plus": {"alpha0": 1.0, "beta0": 1.0, "alpha": [0.3], "beta": [0.1], "eta": [0.0]}}


# Each problem has a Robin side at the very end of its Neumann-Dirichlet
# window, where the Robin eigenvalues are the window's ends to float precision.
@pytest.mark.parametrize("problem, argv, line", [
    (EXTREME, ["validate"], "level: linear (robin)"),
    (EXTREME, ["predict", "--k", "0..3"], "k=0: T(1) [T-all]"),
    (EXTREME, ["spectrum"], "3 eigenvalues <= 30"),
    (EXTREME, ["classify", "--k", "0"], "k=0: T_1^+"),
    (NEAR_NEUMANN, ["classify", "--k", "0..2"], "k=2: S_2^+"),
    (NEAR_DIRICHLET, ["predict", "--k", "0..5"], "k=5: S(5) [S-above-crossover]"),
], ids=["validate", "predict", "spectrum", "classify", "near-neumann-classify", "near-dirichlet-predict"])
def test_extreme_coefficients_exit_with_a_documented_code(problem, argv, line, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    assert main([argv[0], str(path), *argv[1:], "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert line in out.splitlines()


@pytest.mark.parametrize("problem, count", [(EXTREME, 3), (NEAR_NEUMANN, 4)],
                         ids=["near-dirichlet", "near-neumann"])
def test_spectrum_counts_the_robin_anchors_of_an_extreme_side(problem, count, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    assert main(["spectrum", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "spectrum.json").read_text())["robin_count"] == count


def test_predict_saturates_an_overflowing_crossover(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(EXTREME))
    assert main(["predict", str(path), "--k", "0", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "predict.json").read_text())["predictions"]["0"]["theorem"] == "T-all"


@pytest.mark.parametrize("argv", [
    ["classify", "--k", "100000"],
    ["branch", "--k", "100000", "--sign", "+"],
    ["nodal-solve", "--k", "100000"],
], ids=["classify", "branch", "nodal-solve"])
def test_k_past_the_continuation_ceiling_exits_2_at_once(argv, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(SELFTEST_PROBLEM))
    src = os.path.dirname(os.path.dirname(mpsl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mpsl", argv[0], str(path), *argv[1:], "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: k = 100000 is past the largest index continuation takes, "
                           f"{CONTINUATION_K_MAX} (the scan ceiling)\n")


# Exit-code fuzz over problem dicts: each drawn case must end in a documented
# exit code, with no exception out of main, under 1 s.  Non-numbers come up
# about one draw in thirty, and half the endpoint pairs get the side's sign
# convention, so that many problems get past validation.
NUMBERS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e-300, 1e300, -1e300, 1e15]
COEFFICIENTS = st.sampled_from(NUMBERS * 8 + ["a", None, [1.0]])
ETAS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])  # the endpoints and interior points


@st.composite
def fuzz_side(draw, sign):
    alpha0, beta0 = draw(COEFFICIENTS), draw(COEFFICIENTS)
    if draw(st.booleans()) and all(isinstance(v, float) for v in (alpha0, beta0)):
        alpha0, beta0 = abs(alpha0), sign * abs(beta0)
    m = draw(st.integers(0, 2))
    return {"alpha0": alpha0, "beta0": beta0,
            "alpha": draw(st.lists(COEFFICIENTS, min_size=m, max_size=m)),
            "beta": draw(st.lists(COEFFICIENTS, min_size=m, max_size=m)),
            "eta": draw(st.lists(ETAS, min_size=m, max_size=m))}


FUZZ_ARGV = st.sampled_from([
    ["validate"],
    ["spectrum", "--lambda-max", "40"],
    ["spectrum", "--lambda-max", "400"],
    ["predict", "--k", "0..10"],
    ["predict", "--k", "250"],
    ["classify", "--k", "0..3"],
])


@settings(derandomize=True, max_examples=300, deadline=1000)
@given(problem=st.fixed_dictionaries({"minus": fuzz_side(-1.0), "plus": fuzz_side(1.0)}), argv=FUZZ_ARGV)
@example(problem=EXTREME, argv=["validate"])
@example(problem=EXTREME, argv=["spectrum", "--lambda-max", "40"])
@example(problem=EXTREME, argv=["predict", "--k", "0..10"])
@example(problem=EXTREME, argv=["classify", "--k", "0..3"])
def test_fuzzed_problems_exit_with_a_documented_code(problem, argv):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "p.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        assert main([argv[0], path, *argv[1:], "--out", out]) in (0, 2, 3, 4)
