"""Boundary-condition data model, hypothesis validation and coefficient scaling.

A problem couples -u'' = ... on (-1, 1) with one condition per endpoint:

    alpha0*u(nu) + beta0*u'(nu) = sum_i alpha_i*u(eta_i) + sum_i beta_i*u'(eta_i)

where nu is -1 or +1 and the eta_i are interior reference points.  The
admissibility hypotheses checked here are, per side:

  (nonzero pair)   alpha0 >= 0 and alpha0 + |beta0| > 0
  (sign)           beta0 <= 0 on the minus side, beta0 >= 0 on the plus side
  (quadratic)      (S_alpha/alpha0)^2 + (S_beta/|beta0|)^2 < 1
  (summed)         S_alpha/alpha0 + S_beta/|beta0| < 1        (stronger)

with S_alpha = sum|alpha_i|, S_beta = sum|beta_i|, and the convention that a
zero denominator forces a zero numerator (that fraction is then omitted).
The "hypothesis level" of a problem is the strongest family of conditions it
satisfies: 'linear' (summed), 'quadratic', or 'violated'.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import ProblemDataError

MAX_INTERIOR_POINTS = 64  # sanity cap per side
SLACK_WARN = 1e-9  # warn when a strict inequality holds by less than this

LEVEL_LINEAR = "linear"
LEVEL_QUADRATIC = "quadratic"
LEVEL_VIOLATED = "violated"

_LEVEL_STRENGTH = {LEVEL_VIOLATED: 0, LEVEL_QUADRATIC: 1, LEVEL_LINEAR: 2}


def _abs_sum(values) -> float:
    """sum |v|, correctly rounded, so a verdict near a hypothesis-level
    boundary does not depend on the Python version (built-in sum is
    compensated from 3.12 on); inf where the sum leaves the float range."""
    try:
        return math.fsum(abs(v) for v in values)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundarySide:
    """Coefficients of one multi-point boundary condition.

    ``side`` is 'minus' or 'plus'; ``alpha``, ``beta``, ``eta`` have equal
    length m (possibly 0 for a single-point condition).
    """

    alpha0: float
    beta0: float
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()
    eta: tuple[float, ...] = ()
    side: str = "plus"

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        object.__setattr__(self, "eta", tuple(float(v) for v in self.eta))
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "beta0", float(self.beta0))
        if self.side not in ("minus", "plus"):
            raise ProblemDataError(f"side must be 'minus' or 'plus', got {self.side!r}")
        if not (len(self.alpha) == len(self.beta) == len(self.eta)):
            raise ProblemDataError(
                f"{self.side} side: alpha/beta/eta lengths differ "
                f"({len(self.alpha)}/{len(self.beta)}/{len(self.eta)})"
            )
        if len(self.alpha) > MAX_INTERIOR_POINTS:
            raise ProblemDataError(
                f"{self.side} side: m={len(self.alpha)} exceeds cap {MAX_INTERIOR_POINTS}"
            )

    @property
    def endpoint(self) -> float:
        return 1.0 if self.side == "plus" else -1.0

    @cached_property
    def sum_alpha(self) -> float:
        return _abs_sum(self.alpha)

    @cached_property
    def sum_beta(self) -> float:
        return _abs_sum(self.beta)

    @cached_property
    def J(self) -> float:
        """(alpha0/beta0)^2, where the two pinning ranges meet at the summed
        level; inf for a Dirichlet-type side and where the square overflows."""
        if self.beta0 == 0.0:
            return math.inf
        try:
            return (self.alpha0 / self.beta0) ** 2
        except OverflowError:
            return math.inf

    def holds_ud(self, lam: float) -> bool:
        """Derivative pinning at lam >= 0: alpha0 > S_alpha + sqrt(lam)*S_beta,
        which forces u'(nu) != 0 for a solution of eigenvalue lam."""
        if lam < 0.0:
            raise ValueError("conditions are defined for lam >= 0")
        return self.alpha0 > self.sum_alpha + math.sqrt(lam) * self.sum_beta

    def holds_u(self, lam: float) -> bool:
        """Value pinning at lam >= 0: |beta0| > S_alpha/sqrt(lam) + S_beta,
        which forces u(nu) != 0 (at lam = 0: S_alpha = 0 and |beta0| > S_beta)."""
        if lam < 0.0:
            raise ValueError("conditions are defined for lam >= 0")
        if lam == 0.0:
            return self.sum_alpha == 0.0 and abs(self.beta0) > self.sum_beta
        return abs(self.beta0) > self.sum_alpha / math.sqrt(lam) + self.sum_beta

    @cached_property
    def row_terms(self) -> tuple[tuple[float, float, float], ...]:
        """The condition as terms (a, b, x) with residual = -sum(a*u(x) + b*u'(x)):
        the endpoint's first, its sign flipped, then the interior ones.

        Gamma's rows (``spectrum._det``) read them.  Every a and b is
        multiplied by one power of two, which brings the largest |coefficient|
        into [0.5, 1) when it lies outside [2^-100, 2^100] and is exactly 1
        inside.  A positive factor does not change the condition, so Gamma
        neither underflows nor overflows, whatever the data's scale.
        """
        _, e = math.frexp(max(abs(v) for v in (self.alpha0, self.beta0, *self.alpha, *self.beta)))
        p = 1.0 if abs(e) <= 100 else math.ldexp(1.0, -e)
        return tuple((a * p, b * p, x) for a, b, x in zip(
            (-self.alpha0, *self.alpha), (-self.beta0, *self.beta), (self.endpoint, *self.eta)))

    @property
    def is_dirichlet_type(self) -> bool:
        return self.beta0 == 0.0

    @property
    def is_neumann_type(self) -> bool:
        return self.alpha0 == 0.0

    def check_structure(self) -> None:
        """Raise ProblemDataError on structurally meaningless data."""
        for name, vals in (
            ("alpha0", (self.alpha0,)),
            ("beta0", (self.beta0,)),
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("eta", self.eta),
        ):
            for v in vals:
                if not math.isfinite(v):
                    raise ProblemDataError(f"{self.side} side: non-finite value in {name}")
        for e in self.eta:
            if not -1.0 <= e <= 1.0:
                raise ProblemDataError(f"{self.side} side: eta={e} outside [-1, 1]")
            if e == self.endpoint:
                raise ProblemDataError(
                    f"{self.side} side: eta may not coincide with the side's own endpoint {self.endpoint:+g}"
                )
        if self.alpha0 == 0.0 and self.sum_alpha > 0.0:
            raise ProblemDataError(
                f"{self.side} side: zero-denominator convention violated "
                "(alpha0 = 0 requires all alpha_i = 0)"
            )
        if self.beta0 == 0.0 and self.sum_beta > 0.0:
            raise ProblemDataError(
                f"{self.side} side: zero-denominator convention violated "
                "(beta0 = 0 requires all beta_i = 0)"
            )

    def fractions(self) -> tuple[float, float]:
        """(S_alpha/alpha0, S_beta/|beta0|) with the zero-denominator convention."""
        fa = self.sum_alpha / self.alpha0 if self.alpha0 != 0.0 else 0.0
        fb = self.sum_beta / abs(self.beta0) if self.beta0 != 0.0 else 0.0
        return fa, fb

    def residual(self, at) -> float:
        """alpha0*u(nu) + beta0*u'(nu) - sum_i (alpha_i*u(eta_i) + beta_i*u'(eta_i)).

        ``at(x)`` returns (u(x), u'(x)) and nu is the side's endpoint; zero
        means the condition holds.
        """
        u_nu, up_nu = at(self.endpoint)
        r = self.alpha0 * u_nu + self.beta0 * up_nu
        for ai, bi, ei in zip(self.alpha, self.beta, self.eta):
            u_e, up_e = at(ei)
            r -= ai * u_e + bi * up_e
        return r

    def scale(self, sup_u: float, sup_up: float) -> float:
        """Acceptance scale 1 + |alpha0|*|u|_0 + |beta0|*|u'|_0 of the residual."""
        return 1.0 + abs(self.alpha0) * sup_u + abs(self.beta0) * sup_up

    def scaled(self, t: float) -> "BoundarySide":
        return replace(
            self,
            alpha=tuple(t * a for a in self.alpha),
            beta=tuple(t * b for b in self.beta),
        )


@dataclass(frozen=True)
class ProblemSpec:
    """The pair of boundary conditions of one problem."""

    minus: BoundarySide
    plus: BoundarySide

    def __post_init__(self):
        if self.minus.side != "minus" or self.plus.side != "plus":
            raise ProblemDataError("ProblemSpec sides must be tagged 'minus' and 'plus'")

    @property
    def sides(self) -> tuple[BoundarySide, BoundarySide]:
        return (self.minus, self.plus)

    @cached_property
    def hypothesis_level(self) -> str:
        """Computed hypothesis level; never user-asserted."""
        return _hypotheses(self)[0]

    @cached_property
    def single_point_side(self) -> BoundarySide | None:
        """The side without interior terms when the other side has some, else None."""
        multi = [s for s in self.sides if s.sum_alpha or s.sum_beta]
        if len(multi) != 1:
            return None
        return self.plus if multi[0] is self.minus else self.minus


@dataclass
class ValidationReport:
    ok: bool
    level: str
    messages: list[tuple[str, str]] = field(default_factory=list)
    strict_alpha_positive: bool = False
    quadratic_ok: bool = False
    linear_ok: bool = False
    side_types: dict = field(default_factory=dict)
    problem_type: str = ""


def _side_hypotheses(side: BoundarySide, messages: list) -> tuple[bool, bool]:
    """Append per-side hypothesis diagnostics; return (quadratic_ok, linear_ok)."""
    ok = True
    if side.alpha0 < 0.0:
        messages.append(("error", f"{side.side} side: alpha0 must be >= 0"))
        ok = False
    if side.alpha0 + abs(side.beta0) <= 0.0:
        messages.append(("error", f"{side.side} side: alpha0 + |beta0| must be positive"))
        ok = False
    signed = side.beta0 if side.side == "plus" else -side.beta0
    if signed < 0.0:
        messages.append(
            ("error", f"{side.side} side: beta0 has the wrong sign for this endpoint")
        )
        ok = False
    if not ok:
        return False, False

    fa, fb = side.fractions()
    quad = fa * fa + fb * fb
    lin = fa + fb
    quadratic_ok = quad < 1.0
    linear_ok = lin < 1.0
    if not quadratic_ok:
        messages.append(
            ("error", f"{side.side} side: squared coefficient fractions sum to {quad:.6g} >= 1")
        )
    elif 1.0 - quad < SLACK_WARN:
        messages.append(
            ("warning", f"{side.side} side: squared-fraction condition holds by only {1.0 - quad:.3e}")
        )
    if linear_ok and 0.0 < 1.0 - lin < SLACK_WARN:
        messages.append(
            ("warning", f"{side.side} side: summed-fraction condition holds by only {1.0 - lin:.3e}")
        )
    return quadratic_ok, linear_ok


def _hypotheses(spec: ProblemSpec) -> tuple[str, bool, bool, list]:
    """(level, quadratic_ok, linear_ok, messages), the flags over both sides."""
    messages: list = []
    q_m, l_m = _side_hypotheses(spec.minus, messages)
    q_p, l_p = _side_hypotheses(spec.plus, messages)
    quadratic_ok, linear_ok = q_m and q_p, l_m and l_p
    if linear_ok:
        level = LEVEL_LINEAR
    elif quadratic_ok:
        level = LEVEL_QUADRATIC
    else:
        level = LEVEL_VIOLATED
    return level, quadratic_ok, linear_ok, messages


def level_at_least(level: str, required: str) -> bool:
    return _LEVEL_STRENGTH[level] >= _LEVEL_STRENGTH[required]


def _side_type(side: BoundarySide) -> str:
    if side.is_dirichlet_type:
        return "dirichlet-type"
    if side.is_neumann_type:
        return "neumann-type"
    return "robin"


def validate_problem(spec: ProblemSpec) -> ValidationReport:
    """Classify a problem against the admissibility hypotheses.

    Structural violations (non-finite data, eta out of range, the
    zero-denominator convention) raise ProblemDataError; hypothesis
    violations are reported with level 'violated'.
    """
    spec.minus.check_structure()
    spec.plus.check_structure()

    level, quadratic_ok, linear_ok, messages = _hypotheses(spec)
    side_types = {"minus": _side_type(spec.minus), "plus": _side_type(spec.plus)}
    types = set(side_types.values())
    if types == {"dirichlet-type"}:
        problem_type = "dirichlet-type"
    elif types == {"neumann-type"}:
        problem_type = "neumann-type"
    elif types == {"dirichlet-type", "neumann-type"}:
        problem_type = "mixed"
    else:
        problem_type = "robin"

    report = ValidationReport(
        ok=not any(sev == "error" for sev, _ in messages),
        level=level,
        messages=messages,
        strict_alpha_positive=spec.minus.alpha0 + spec.plus.alpha0 > 0.0,
        quadratic_ok=quadratic_ok,
        linear_ok=linear_ok,
        side_types=side_types,
        problem_type=problem_type,
    )
    return report


def scale_coefficients(spec: ProblemSpec, t: float) -> ProblemSpec:
    """Scale the interior coefficient vectors by t on both sides.

    t = 0 gives the single-point (Robin) problem, t = 1 the problem itself.
    The endpoint coefficients and eta points are untouched, so the
    hypothesis level can only strengthen as t decreases.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"scaling parameter t={t} outside [0, 1]")
    return ProblemSpec(minus=spec.minus.scaled(t), plus=spec.plus.scaled(t))


_SIDE_KEYS = {"alpha0", "beta0", "alpha", "beta", "eta"}
_TOP_KEYS = {"minus", "plus", "nonlinearity", "forcing"}


def side_from_dict(data: dict, side: str) -> BoundarySide:
    if not isinstance(data, dict):
        raise ProblemDataError(f"{side} side must be a JSON object")
    unknown = set(data) - _SIDE_KEYS
    if unknown:
        raise ProblemDataError(f"{side} side: unknown keys {sorted(unknown)}")
    for key in ("alpha0", "beta0"):
        if key not in data:
            raise ProblemDataError(f"{side} side: missing key '{key}'")
    try:
        return BoundarySide(
            alpha0=data["alpha0"],
            beta0=data["beta0"],
            alpha=tuple(data.get("alpha", ())),
            beta=tuple(data.get("beta", ())),
            eta=tuple(data.get("eta", ())),
            side=side,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemDataError(f"{side} side: coefficients must be numbers ({exc})") from None


def problem_from_dict(data: dict) -> tuple[ProblemSpec, dict]:
    """Build a ProblemSpec from a parsed problem file; returns (spec, extras).

    extras carries the optional 'nonlinearity' and 'forcing' sections.
    """
    if not isinstance(data, dict):
        raise ProblemDataError("a problem must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ProblemDataError(f"unknown top-level keys {sorted(unknown)}")
    for key in ("minus", "plus"):
        if key not in data:
            raise ProblemDataError(f"missing top-level key '{key}'")
    spec = ProblemSpec(
        minus=side_from_dict(data["minus"], "minus"),
        plus=side_from_dict(data["plus"], "plus"),
    )
    extras = {k: data[k] for k in ("nonlinearity", "forcing") if k in data}
    return spec, extras


def load_problem(path) -> tuple[ProblemSpec, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemDataError(f"cannot read problem file {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ProblemDataError(f"problem file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProblemDataError(f"problem file {path} nests too deeply for the JSON decoder") from None
    return problem_from_dict(data)
