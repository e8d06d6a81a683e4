"""Exception types shared across the package.

The CLI maps these onto exit codes: problem-data errors exit 2, numeric
failures exit 3, theorem-hypothesis failures exit 4.
"""

from __future__ import annotations


class MpslError(Exception):
    """Base class for all package errors."""


class ProblemDataError(MpslError):
    """Structurally invalid boundary-condition data (NaN, bad eta, ...)."""


class HypothesisError(MpslError):
    """A theorem was invoked outside its hypotheses."""


class HypothesisReport(HypothesisError):
    """Named hypothesis failure from the nodal-solution pipeline.

    Carries the failed inequality / condition name so callers can report
    exactly which assumption broke.
    """

    def __init__(self, failed: str, detail: str = ""):
        self.failed = failed
        self.detail = detail
        super().__init__(f"hypothesis failed: {failed}" + (f" ({detail})" if detail else ""))


class NumericError(MpslError):
    """Base class for solver/continuation failures."""


class ContinuationBreakdown(NumericError):
    """Two tracked eigenvalue paths collided during homotopy continuation."""

    def __init__(self, t: float, detail: str = ""):
        self.t = t
        super().__init__(f"continuation breakdown at t={t:.6g}" + (f": {detail}" if detail else ""))


class NoConvergence(NumericError):
    """Newton iteration stagnated; carries the best residual seen."""

    def __init__(self, best_residual: float, detail: str = ""):
        self.best_residual = best_residual
        super().__init__(
            f"no convergence (best residual {best_residual:.3e})" + (f": {detail}" if detail else "")
        )


class SingularSystem(NumericError):
    """Shooting Jacobian numerically singular (possible resonance)."""

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"singular shooting system (cond {cond:.3e})")


class DivergenceError(NumericError):
    """IVP solution blew up before reaching x = 1."""

    def __init__(self, x: float):
        self.x = x
        super().__init__(f"solution blow-up at x={x:.6g}")


class SeedFailure(NumericError):
    """Branch seeding failed at all attempted amplitudes."""


class NoCrossing(NumericError):
    """Bifurcation branch terminated without crossing the target parameter."""

    def __init__(self, branch, detail: str = ""):
        self.branch = branch
        super().__init__("branch terminated without crossing" + (f": {detail}" if detail else ""))


class UnresolvableZeros(NumericError):
    """Zero cluster too tight to resolve (signals a tangency)."""


class ParseError(MpslError):
    """Expression error; a syntax error carries its 0-based position in the
    text, an error about the expression as a whole (a variable it may not
    use, a value or limit it cannot give) carries None."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message if position is None else f"{message} at position {position}")


class QuadratureError(NumericError):
    """Adaptive quadrature failed to reach the requested tolerance."""
