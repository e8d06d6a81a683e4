"""Seeded input generator for the benchmark workloads.

Everything here depends only on the seed and the Python standard library
(``random.Random`` is stable across Python versions), never on the test
suite, so editing a test cannot change a workload.  The generator hands
mpsl plain problem dictionaries in the documented problem-file format.

Each workload draws its inputs in *rounds*.  A round walks a fixed cycle of
input kinds, so the share of every kind in a run is fixed by the cycle and
only the continuous parameters depend on the seed.  That keeps the latency
quantiles off the boundaries between kinds.
"""

from __future__ import annotations

import itertools
import json
import random

# spectral-sweep -------------------------------------------------------------

# lambda_max values from shallow (about 7 eigenvalues) to deep (about 90).
LAMBDA_MAX = (1e2, 4e2, 1.5e3, 5e3, 2e4)

# Side configurations: (minus endpoint, minus interior, plus endpoint, plus
# interior).  Endpoints are D(irichlet), N(eumann) or R(obin) type; interiors
# are none (single-point), alpha (alpha-only), beta (beta-only) or mixed.
# None of these has a Neumann-type single-point side; that kind is
# NEUMANN_SINGLE below and has its own fixed share of every round.
SIDE_CONFIGS = (
    ("D", "none", "R", "mixed"),
    ("R", "alpha", "R", "beta"),
    ("N", "beta", "D", "alpha"),
    ("R", "mixed", "N", "beta"),
)
# A Neumann-type single-point side facing an alpha-only multi-point side is
# the input on which predict_nodal_class walks its whole index cap.
NEUMANN_SINGLE = ("N", "none", "D", "alpha")
NEUMANN_SINGLE_LAMBDA_MAX = 1.5e3

# One round: every (lambda_max, side configuration) pair once, with one
# Neumann-type single-point problem in the middle: 21 problems, 1/21 (4.8 %)
# of them Neumann-type single-point.  The number m of interior points per
# multi-point side (1 to 3; the cost of one Gamma evaluation grows with it)
# is fixed per lambda_max, so it does not vary with the seed.
SPECTRAL_CYCLE = [(lm, cfg, 1 + i % 3) for i, lm in enumerate(LAMBDA_MAX) for cfg in SIDE_CONFIGS]
SPECTRAL_CYCLE.insert(len(SPECTRAL_CYCLE) // 2, (NEUMANN_SINGLE_LAMBDA_MAX, NEUMANN_SINGLE, 2))
SPECTRAL_CYCLE = tuple(SPECTRAL_CYCLE)
SMOKE_SPECTRAL_CYCLE = ((LAMBDA_MAX[0], SIDE_CONFIGS[0], 1), (LAMBDA_MAX[0], SIDE_CONFIGS[2], 2))


def _endpoint(rng: random.Random, kind: str, side: str) -> tuple[float, float]:
    a0 = rng.uniform(0.5, 2.0)
    b0 = rng.uniform(0.5, 2.0)
    if kind == "D":
        b0 = 0.0
    elif kind == "N":
        a0 = 0.0
    if side == "minus":
        b0 = -b0
    return a0, b0


def _side(rng: random.Random, endpoint: str, interior: str, side: str, m: int) -> dict:
    """One boundary side with m interior points at the summed-fraction
    (linear) hypothesis level."""
    a0, b0 = _endpoint(rng, endpoint, side)
    if interior == "none":
        return {"alpha0": a0, "beta0": b0, "alpha": [], "beta": [], "eta": []}
    eta = [round(rng.uniform(-0.9, 0.9), 6) for _ in range(m)]
    rho = rng.uniform(0.1, 0.8)  # S_alpha/alpha0 + S_beta/|beta0| = rho < 1
    split = 1.0 if interior == "alpha" else 0.0 if interior == "beta" else rng.uniform(0.2, 0.8)
    sum_alpha = rho * split * a0
    sum_beta = rho * (1.0 - split) * abs(b0)

    def spread(total: float) -> list[float]:
        if total == 0.0:
            return [0.0] * m
        w = [rng.uniform(0.2, 1.0) for _ in range(m)]
        s = sum(w)
        return [rng.choice((-1.0, 1.0)) * wi / s * total for wi in w]

    return {"alpha0": a0, "beta0": b0, "alpha": spread(sum_alpha), "beta": spread(sum_beta), "eta": eta}


def spectral_problem(rng: random.Random, lambda_max: float, config, m: int) -> dict:
    me, mi, pe, pi_ = config
    return {
        "problem": {"minus": _side(rng, me, mi, "minus", m), "plus": _side(rng, pe, pi_, "plus", m)},
        "lambda_max": lambda_max,
        "kind": f"{me}-{mi}/{pe}-{pi_}@{lambda_max:g}",
    }


# nonlinear-continuation -----------------------------------------------------

NODAL = "nodal_solutions_at_one"
BRANCH = "branch_from_zero"
FORCED = "solve_bvp_multistart"

# One round of 25 ops: 1 nodal pair (4 %), 19 linear branches (76 %) and
# 5 forced solves (20 %).  Sorted by latency the forced solves fill the
# bottom 20 %, the branches 20-96 % and the nodal pair the top 4 %, so p50
# and p90 both fall inside the branch block, p50 near its middle.
NONLINEAR_CYCLE = (NODAL,) + (BRANCH, BRANCH, FORCED, BRANCH) * 5 + (BRANCH,) * 4
SMOKE_NONLINEAR_CYCLE = (BRANCH, FORCED)


def worked_example(rng: random.Random) -> dict:
    """u(-1) = 0, u(1) = alpha*u(0) with alpha drawn from [0.25, 0.75]."""
    alpha = rng.uniform(0.25, 0.75)
    return {
        "minus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
        "plus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [alpha], "beta": [0.0], "eta": [0.0]},
    }


def nonlinear_op(rng: random.Random, kind: str, sign: str) -> dict:
    problem = worked_example(rng)
    op = {"problem": problem, "kind": kind}
    if kind == NODAL:
        c = rng.uniform(3.0, 5.0)
        problem["nonlinearity"] = {"f": f"xi*(1+{c!r}/(1+xi^2))", "f0": 1.0 + c, "finf": 1.0}
    elif kind == BRANCH:
        problem["nonlinearity"] = {"f": "xi", "f0": 1.0, "finf": 1.0}
        op["sign"] = sign
    else:
        problem["nonlinearity"] = {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0}
        problem["forcing"] = {"h": f"{rng.uniform(0.5, 2.0)!r}*x"}
    return op


# cli-cold -------------------------------------------------------------------

CLI_SUBCOMMANDS = (
    ("validate", []),
    ("spectrum", []),
    ("predict", ["--k", "0..10"]),
    ("classify", ["--k", "0..3", "--format", "svg"]),
    ("solve", []),
)
SMOKE_CLI_SUBCOMMANDS = CLI_SUBCOMMANDS[:1] + CLI_SUBCOMMANDS[2:3]


def cli_problem(rng: random.Random) -> dict:
    """A worked-example variant that every subcommand accepts, with the
    forced sublinear problem for ``solve``."""
    minus = _side(rng, rng.choice("DR"), "none", "minus", 0)
    plus = _side(rng, rng.choice("DR"), "alpha", "plus", 1)
    return {
        "minus": minus,
        "plus": plus,
        "nonlinearity": {"f": "xi/(1+abs(xi))", "f0": 1.0, "finf": 0.0},
        "forcing": {"h": f"{rng.uniform(0.5, 2.0)!r}*x"},
    }


# streams --------------------------------------------------------------------


class Stream:
    """Rounds of distinct inputs for one workload.

    ``purpose`` separates the timed stream from the warm-up stream, so no
    warm-up op shares inputs with a timed op.  ``round()`` never repeats a
    problem within one stream.
    """

    def __init__(self, workload: str, seed: int, purpose: str = "timed", smoke: bool = False):
        self.workload = workload
        self.rng = random.Random(f"mpsl-bench/{workload}/{purpose}/{seed}")
        self.smoke = smoke
        self._seen: set[str] = set()

    def _fresh(self, make):
        while True:
            item = make()
            key = json.dumps(item, sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                return item

    def round(self) -> list[dict]:
        """The next round of ops (for cli-cold: the ops on one new problem)."""
        return [self._fresh(make) for make in self._makers(self.smoke)]

    def warmup(self) -> list[dict]:
        """A short list of ops that touch the same code paths as a round."""
        makers = self._makers(True)
        return [self._fresh(make) for make in makers[:1 if self.workload == "cli-cold" else 2]]

    def _makers(self, smoke: bool):
        rng = self.rng
        if self.workload == "spectral-sweep":
            cycle = SMOKE_SPECTRAL_CYCLE if smoke else SPECTRAL_CYCLE
            return [lambda lm=lm, cfg=cfg, m=m: spectral_problem(rng, lm, cfg, m) for lm, cfg, m in cycle]
        if self.workload == "nonlinear-continuation":
            cycle = SMOKE_NONLINEAR_CYCLE if smoke else NONLINEAR_CYCLE
            signs = itertools.cycle("+-")  # branch signs alternate
            return [lambda kind=kind, sign=next(signs) if kind == BRANCH else "": nonlinear_op(rng, kind, sign)
                    for kind in cycle]
        if self.workload == "cli-cold":
            subs = SMOKE_CLI_SUBCOMMANDS if smoke else CLI_SUBCOMMANDS
            problem = cli_problem(rng)
            return [lambda name=name, args=args: {"problem": problem, "subcommand": name, "args": args}
                    for name, args in subs]
        raise ValueError(f"unknown workload {self.workload!r}")
