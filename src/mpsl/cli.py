"""Command-line interface.

Subcommands: validate, spectrum, classify, predict, solve, branch,
nodal-solve, selftest.  Exit codes: 0 success, 2 problem-data/validation
failure, 3 numeric failure, 4 theorem-hypothesis failure.  All outputs are
written atomically and are byte-identical for identical configuration.
The nonlinear layer (``shooting``, ``branching``, ``expressions``) and numpy
are imported inside the subcommands that use them, so that ``validate``,
``spectrum``, ``predict`` and ``classify`` start without loading them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

from . import reporting
from .conditions import _SEARCH_CAP, predict_nodal_class
from .errors import (
    HypothesisError,
    MpslError,
    NumericError,
    ParseError,
    ProblemDataError,
)
from .nodal import ClosedTrace, SampledTrace, classify
from .problem import ProblemSpec, load_problem, validate_problem
from .spectrum import continuation_spectrum, eigen_scan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_HYPOTHESIS = 4

TOL_RANGE = (1e-14, 1e-2)
SIGN_WORDS = {"+": "plus", "-": "minus"}  # the sign in a branch's or nodal solution's file tag

# The gallery abscissae: np.linspace(-1, 1, 401) bit for bit, which also
# forms i*step + start and sets the last point to stop.
GALLERY_X = [-1.0 + i * 0.005 for i in range(400)] + [1.0]


def _parse_k_range(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            given = [int(lo), int(hi)]
        else:
            given = [int(p) for p in text.split(",")]
    except ValueError:
        raise ProblemDataError(f"k must be an integer, a list a,b,c or a range lo..hi, not {text!r}") from None
    if min(given) < 0:
        raise ProblemDataError(f"k must be >= 0, not {text!r}")
    if max(given) > _SEARCH_CAP:
        raise ProblemDataError(f"k must be <= {_SEARCH_CAP}, not {text!r}")
    ks = list(range(given[0], given[1] + 1)) if ".." in text else given
    if not ks:
        raise ProblemDataError(f"empty k range {text!r}")
    return ks


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _check_tol(tol: float) -> float:
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ProblemDataError(
            f"tolerance override {tol:g} outside [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]"
        )
    return tol


def _load(path: str):
    spec, extras = load_problem(path)
    validate_problem(spec)  # raises on structural errors
    return spec, extras


def _section(extras: dict, name: str, expr_key: str, keys: set) -> dict | None:
    """An optional problem-file section: an object with known keys and an
    expression string under ``expr_key``; None when absent, null or {}."""
    section = extras.get(name)
    if section is None or section == {}:
        return None
    if not isinstance(section, dict):
        raise ProblemDataError(f"{name} must be a JSON object")
    unknown = set(section) - keys
    if unknown:
        raise ProblemDataError(f"{name}: unknown keys {sorted(unknown)}")
    if expr_key not in section:
        raise ProblemDataError(f"{name}: missing expression key '{expr_key}'")
    if not isinstance(section[expr_key], str):
        raise ProblemDataError(f"{name}: '{expr_key}' must be an expression string")
    return section


def _nonlinearity(extras: dict, command: str) -> NonlinearitySpec:
    from .expressions import NonlinearitySpec

    section = _section(extras, "nonlinearity", "f", {"f", "f0", "finf"})
    if section is None:
        raise ProblemDataError(f"{command} needs a 'nonlinearity' section in the problem file")
    try:
        f0, finf = (None if section.get(key) is None else float(section[key]) for key in ("f0", "finf"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemDataError(f"nonlinearity: f0 and finf must be numbers ({exc})") from None
    nl = NonlinearitySpec.from_text(section["f"], f0=f0, finf=finf)
    for text in nl.warnings:
        print(f"warning: {text}", file=sys.stderr)
    return nl


def _forcing(extras: dict) -> ForcingTerm | None:
    from .expressions import ForcingTerm

    section = _section(extras, "forcing", "h", {"h"})
    return None if section is None else ForcingTerm.from_text(section["h"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    spec, _ = _load(args.problem)
    report = validate_problem(spec)
    reporting.write_json(os.path.join(args.out, "validate.json"), dataclasses.asdict(report))
    for sev, text in report.messages:
        print(f"{sev}: {text}", file=sys.stderr)
    print(f"level: {report.level} ({report.problem_type})")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _spectrum_row(spec: ProblemSpec, ep) -> list:
    m = ep.nodal[0] if ep.nodal else None
    pred = predict_nodal_class(spec, ep.k)
    return [
        ep.k,
        ep.lam,
        m.family if m else "",
        m.k if m else "",
        m.sign if m else "",
        pred.bracket[0] if pred.determinate else "",
        pred.bracket[1] if pred.determinate else "",
    ]


def cmd_spectrum(args) -> int:
    if args.reference:
        from .reference import reference_eigenvalue

        if not 1 <= args.count <= _SEARCH_CAP + 1:
            raise ProblemDataError(f"--count must be in [1, {_SEARCH_CAP + 1}], not {args.count}")
        rows = [[k, reference_eigenvalue(args.reference, k)] for k in range(args.count)]
        reporting.write_csv(os.path.join(args.out, "reference.csv"), ["k", "lambda"], rows)
        return EXIT_OK
    if args.problem is None:
        raise ProblemDataError("spectrum needs a problem file unless --reference is given")
    spec, _ = _load(args.problem)
    window = eigen_scan(spec, args.lambda_max)
    rows = [_spectrum_row(spec, ep) for ep in window.eigenpairs]
    reporting.write_csv(
        os.path.join(args.out, "spectrum.csv"),
        ["k", "lambda", "family", "class_k", "sign", "bracket_lo", "bracket_hi"],
        rows,
    )
    payload = {
        "lambda_max": window.lambda_max,
        "count": len(window.eigenpairs),
        "robin_count": window.robin_count,
        "eigenvalues": [ep.lam for ep in window.eigenpairs],
        "simple": [ep.simple for ep in window.eigenpairs],
        "negative": [ep.negative for ep in window.eigenpairs],
    }
    reporting.write_json(os.path.join(args.out, "spectrum.json"), payload)
    print(f"{len(window.eigenpairs)} eigenvalues <= {args.lambda_max:g}")
    return EXIT_OK


def _classification_payload(result) -> dict:
    return {
        "memberships": [m.label() for m in result.memberships],
        "status": {fam: list(entry) if entry[0] == "unclassified" else ["member", entry[1].label()]
                   for fam, entry in result.status.items()},
        "zeros_u": [[x, s] for x, s in result.zeros_u],
        "zeros_uprime": [[x, s] for x, s in result.zeros_uprime],
        "boundary": result.boundary,
        "satisfies_minus_bc": result.satisfies_minus_bc,
        "satisfies_plus_bc": result.satisfies_plus_bc,
    }


def cmd_classify(args) -> int:
    tol = _check_tol(args.tol)
    if args.trace:
        import numpy as np

        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(args.trace, delimiter=",", skiprows=1, ndmin=2)
            if data.size == 0:
                raise ValueError("holds no data rows")
            if data.shape[1] != 3:
                raise ValueError(f"needs the 3 columns x,u,uprime, not {data.shape[1]}")
            trace = SampledTrace(data[:, 0], data[:, 1], data[:, 2])
        except (OSError, ValueError) as exc:
            raise ProblemDataError(f"trace file {args.trace}: {exc}") from None
        spec = None
        if args.problem:
            spec, _ = _load(args.problem)
        result = classify(trace, tol=tol, spec=spec)
        payload = {"source": os.path.basename(args.trace), "classification": _classification_payload(result)}
        reporting.write_json(os.path.join(args.out, "classify.json"), payload)
        print(", ".join(m.label() for m in result.memberships) or "unclassified")
        return EXIT_OK

    if not args.problem:
        raise ProblemDataError("classify needs a problem file unless --trace is given")
    spec, _ = _load(args.problem)
    if args.from_spectrum:
        ks, rows = _read_spectrum_csv(args.from_spectrum)
    else:
        ks = _parse_k_range(args.k)
    pairs = continuation_spectrum(spec, max(ks))
    by_k = {ep.k: ep for ep in pairs}
    out = {}
    curves = []
    for k in ks:
        ep = by_k[k]
        result = classify(ClosedTrace(ep.psi), tol=tol, spec=spec)
        out[str(k)] = {
            "lambda": ep.lam,
            "classification": _classification_payload(result),
        }
        curves.append((f"psi_{k}", GALLERY_X, [ep.psi(x)[0] for x in GALLERY_X]))
    reporting.write_json(os.path.join(args.out, "classify.json"), {"eigenpairs": out})
    if args.format == "svg":
        reporting.eigenfunction_gallery_svg(os.path.join(args.out, "gallery.svg"), curves)
    if args.from_spectrum:
        mism = _roundtrip_mismatches(ks, rows, out)
        if mism:
            print(f"{len(mism)} verdict mismatches vs {args.from_spectrum}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"verdicts match {os.path.basename(args.from_spectrum)}")
    else:
        for k in ks:
            print(f"k={k}: " + (", ".join(out[str(k)]["classification"]["memberships"]) or "unclassified"))
    return EXIT_OK


def _read_spectrum_csv(path: str) -> tuple[list[int], list[dict]]:
    """The k column and the rows of a spectrum.csv; k gets the checks of --k."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ProblemDataError(f"spectrum file {path}: {exc}") from None
    header = lines[0].split(",") if lines else []
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if not rows or not all(r.get("k", "").isdecimal() for r in rows):
        raise ProblemDataError(f"spectrum file {path}: needs data rows, each with an integer k >= 0")
    return _parse_k_range(",".join(r["k"] for r in rows)), rows


def _roundtrip_mismatches(ks: list[int], rows: list[dict], out: dict) -> list[int]:
    mism = []
    for k, r in zip(ks, rows):
        entry = out[str(k)]["classification"]
        fam, ck, sign = r.get("family", ""), r.get("class_k", ""), r.get("sign", "")
        if not fam:
            continue
        label = f"{fam}_{ck}^{sign}"
        if label not in entry["memberships"]:
            mism.append(k)
    return mism


def cmd_predict(args) -> int:
    spec, _ = _load(args.problem)
    ks = _parse_k_range(args.k)
    rows = []
    payload = {}
    for k in ks:
        p = predict_nodal_class(spec, k)
        verdict = f"{p.family}({p.class_index})" if p.determinate else "Indeterminate"
        if p.redefined:
            verdict += "*"  # holds in the BC-restricted sense
        rows.append([
            k,
            verdict,
            p.bracket[0] if p.bracket else "",
            p.bracket[1] if p.bracket else "",
            p.theorem,
            p.reason,
        ])
        payload[str(k)] = {
            "family": p.family,
            "class_index": p.class_index,
            "bracket": list(p.bracket) if p.bracket else None,
            "theorem": p.theorem,
            "reason": p.reason,
            "mirrored": p.mirrored,
            "redefined": p.redefined,
        }
    reporting.write_csv(
        os.path.join(args.out, "predict.csv"),
        ["k", "verdict", "bracket_lo", "bracket_hi", "theorem", "reason"],
        rows,
    )
    reporting.write_json(os.path.join(args.out, "predict.json"), {"predictions": payload})
    for row in rows:
        print(f"k={row[0]}: {row[1]} [{row[4]}]")
    return EXIT_OK


def _solution_files(args, sol, tag: str, extra: dict) -> None:
    result = classify(sol.trace)  # before any file: an UnresolvableZeros here leaves none
    rows = [[float(x), float(u), float(up)] for x, u, up in zip(sol.trace.x, sol.trace.u, sol.trace.up)]
    reporting.write_csv(os.path.join(args.out, f"{tag}.csv"), ["x", "u", "uprime"], rows)
    payload = {
        "a": sol.shooting.a,
        "b": sol.shooting.b,
        "lambda": sol.shooting.lam,
        "residuals": list(sol.shooting.residuals),
        "scales": list(sol.scales),
        "energy_dev": sol.energy_dev,
        "collocation_residual": sol.collocation_residual,
        "amplitude": sol.amplitude,
        "classification": _classification_payload(result),
    }
    payload.update(extra)
    reporting.write_json(os.path.join(args.out, f"{tag}.json"), payload)


def cmd_solve(args) -> int:
    from .shooting import nonresonance_check, solve_bvp_multistart

    spec, extras = _load(args.problem)
    nl = _nonlinearity(extras, "solve")
    h = _forcing(extras)
    verdict = nonresonance_check(spec, nl, args.lam)
    if not verdict.ok:
        print(f"warning: {verdict.reason}", file=sys.stderr)
    sol = solve_bvp_multistart(spec, nl, h, args.lam)
    _solution_files(args, sol, "solution", {"nonresonance": dataclasses.asdict(verdict)})
    print(f"solution found: residuals {sol.shooting.residuals[0]:.3e}, {sol.shooting.residuals[1]:.3e}")
    return EXIT_OK


def _branch_files(args, branch, tag: str) -> None:
    rows = []
    for p in branch.points:
        label = ";".join(m.label() for m in p.nodal)
        rows.append([p.arclength, p.lam, p.amplitude, p.shooting.a, p.shooting.b, label])
    reporting.write_csv(
        os.path.join(args.out, f"{tag}.csv"),
        ["arclength", "lambda", "amplitude", "a", "b", "class"],
        rows,
    )
    reporting.bifurcation_diagram_svg(
        os.path.join(args.out, f"{tag}.svg"),
        [(tag, branch.lambdas(), branch.amplitudes())],
    )


def cmd_branch(args) -> int:
    from .branching import both_signs, branch_from_infinity, branch_from_zero, mirrored_branch

    spec, extras = _load(args.problem)
    nl = _nonlinearity(extras, "branch")
    ks = _parse_k_range(args.k)
    pairs = continuation_spectrum(spec, max(ks))  # one continuation for every k and sign

    def trace(k: int, sign: str):
        if args.from_infinity:
            return branch_from_infinity(spec, nl, k, sign, eigenpair=pairs[k])
        return branch_from_zero(spec, nl, k, sign, eps_seed=args.eps_seed, eigenpair=pairs[k])

    for k in ks:
        if args.sign:
            signed = [(args.sign, trace(k, args.sign))]
        else:  # the '-' branch is the '+' one mirrored for an odd f
            signed = both_signs(nl, lambda sign: trace(k, sign), mirrored_branch)
        for sign, br in signed:
            tag = f"branch_k{k}_{SIGN_WORDS[sign]}"
            _branch_files(args, br, tag)
            print(f"{tag}: {len(br.points)} points, termination {br.termination}")
    return EXIT_OK


def cmd_nodal_solve(args) -> int:
    from .branching import nodal_solutions_at_one

    spec, extras = _load(args.problem)
    nl = _nonlinearity(extras, "nodal-solve")
    for k in _parse_k_range(args.k):
        res = nodal_solutions_at_one(spec, nl, k, eps_seed=args.eps_seed)
        for sign, sol in res.solutions.items():
            tag = f"nodal_k{k}_{SIGN_WORDS[sign]}"
            _solution_files(args, sol, tag, {
                "family": res.family,
                "class_index": res.class_index,
                "route": res.route,
                "gamma": res.gamma,
                "orientation": res.orientation,
            })
        print(f"k={k}: {res.family}_{res.class_index}^+- solutions at lambda=1 via {res.route}")
    return EXIT_OK


SELFTEST_PROBLEM = {
    "minus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
    "plus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [0.5], "beta": [0.0], "eta": [0.0]},
    "nonlinearity": {"f": "xi*(1+3/(1+xi^2))", "f0": 4.0, "finf": 1.0},
    "forcing": {"h": "x"},
}


def cmd_selftest(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    problem_path = os.path.join(args.out, "problem.json")
    reporting.atomic_write_text(problem_path, json.dumps(SELFTEST_PROBLEM, indent=2, sort_keys=True) + "\n")

    parser = build_parser()

    def run(*argv) -> int:
        step = parser.parse_args([*argv, f"--out={args.out}"])
        return step.fn(step)

    code = run("validate", problem_path)
    if code != EXIT_OK:
        return code
    run("spectrum", problem_path, "--lambda-max", "40")
    run("predict", problem_path, "--k", "0..6")
    run("classify", problem_path, "--k", "0..3", "--format", "svg")
    # nonresonance solve of the forced problem with a sublinear f.
    solve_problem = dict(SELFTEST_PROBLEM)
    solve_problem["nonlinearity"] = {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}
    solve_path = os.path.join(args.out, "problem_forced.json")
    reporting.atomic_write_text(solve_path, json.dumps(solve_problem, indent=2, sort_keys=True) + "\n")
    run("solve", solve_path)
    # one short branch of the crossing nonlinearity.
    run("branch", problem_path, "--k", "0", "--sign", "+", f"--eps-seed={args.eps_seed!r}")
    print("selftest complete")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpsl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, problem=True):
        if problem:
            p.add_argument("problem", help="problem JSON file")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="validate a problem file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("spectrum", help="scan the spectrum")
    common(p, problem=False)
    p.add_argument("problem", nargs="?", default=None, help="problem JSON file (not read with --reference)")
    p.add_argument("--lambda-max", dest="lambda_max", type=_positive_float, default=30.0)
    p.add_argument("--reference", choices=["dirichlet", "neumann", "mixed"], default=None)
    p.add_argument("--count", type=int, default=21, help="indices for --reference")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("classify", help="classify eigenfunctions or a trace file")
    p.add_argument("problem", nargs="?", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--tol", type=_finite_float, default=1e-8)
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument("--k", default="0..3")
    p.add_argument("--trace", default=None, help="CSV trace with columns x,u,uprime")
    p.add_argument("--from", dest="from_spectrum", default=None,
                   help="re-ingest a spectrum.csv and verify verdicts")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("predict", help="theorem-dispatch table")
    common(p)
    p.add_argument("--k", default="0..10")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("solve", help="solve -u'' = f(u) + h")
    common(p)
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("branch", help="trace a bifurcation branch")
    common(p)
    p.add_argument("--k", default="0")
    p.add_argument("--sign", choices=["+", "-"], default=None)
    p.add_argument("--from-infinity", dest="from_infinity", action="store_true")
    p.add_argument("--eps-seed", dest="eps_seed", type=_positive_float, default=1e-3)
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("nodal-solve", help="nodal solutions at lambda = 1")
    common(p)
    p.add_argument("--k", default="0")
    p.add_argument("--eps-seed", dest="eps_seed", type=_positive_float, default=1e-3)
    p.set_defaults(fn=cmd_nodal_solve)

    p = sub.add_parser("selftest", help="deterministic end-to-end smoke run")
    common(p, problem=False)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored: the run is deterministic")
    p.add_argument("--eps-seed", dest="eps_seed", type=_positive_float, default=1e-3)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ProblemDataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MpslError as exc:  # pragma: no cover - catch-all
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an output that cannot be written, as an --out naming a file
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
