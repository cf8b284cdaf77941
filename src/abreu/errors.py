"""Exception hierarchy shared by all abreu modules."""


class AbreuError(Exception):
    """Base class for all errors raised by this package."""


class NotConvex(AbreuError):
    """A Hessian field failed the strict-convexity floor at some node.

    Carries the worst node (multi-index into the grid) and its minimal
    eigenvalue so the caller can report where convexity was lost.
    """

    def __init__(self, node, min_eigenvalue, message=None):
        self.node = tuple(int(i) for i in node)
        self.min_eigenvalue = float(min_eigenvalue)
        if message is None:
            message = (
                f"Hessian not positive definite: min eigenvalue "
                f"{self.min_eigenvalue:.3e} at node {self.node}"
            )
        super().__init__(message)


class MeanNotZero(AbreuError):
    """|mean f| exceeded `bound` = MEAN_TOLERANCE * (1 + sup|f|) (grid.py)."""

    def __init__(self, mean_value, bound):
        self.mean_value = float(mean_value)
        self.bound = float(bound)
        super().__init__(
            f"field mean {self.mean_value:.3e} exceeds the zero-mean bound "
            f"{self.bound:.3e}; the equation needs a zero-mean right-hand side"
        )


class LinearSolveFailure(AbreuError):
    """The inner Krylov solve for the linearized operator stagnated."""

    def __init__(self, iterations, relative_residual, tolerance):
        self.iterations = int(iterations)
        self.relative_residual = float(relative_residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"Krylov solve stagnated after {self.iterations} iterations at "
            f"relative residual {self.relative_residual:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )


class StepFloorReached(AbreuError):
    """Continuation step size fell below the solver's fixed step floor."""

    def __init__(self, last_good_t, min_t_step):
        self.last_good_t = float(last_good_t)
        self.min_t_step = float(min_t_step)
        super().__init__(
            f"continuation step fell below the floor {self.min_t_step:.1e}; "
            f"last solved homotopy parameter t = {self.last_good_t:.6f}"
        )


class GradientInversionFailure(AbreuError):
    """Gradient-map inversion left a residual above `tolerance` at target
    point y (`point`); `node` is its dual-grid multi-index when y is a
    grid node, else None."""

    def __init__(self, point, residual, tolerance, node=None):
        self.point = tuple(float(c) for c in point)
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.node = None if node is None else tuple(int(i) for i in node)
        where = "y = (" + ", ".join(f"{c:.6g}" for c in self.point) + ")"
        if self.node is not None:
            where += f", dual node {self.node}"
        super().__init__(
            f"gradient-map inversion did not converge at {where} "
            f"(residual {self.residual:.3e}, tolerance {self.tolerance:.1e})"
        )


class MonitorViolation(AbreuError):
    """A runtime estimate monitor found a violated inequality."""

    def __init__(self, checks):
        self.checks = list(checks)
        names = ", ".join(
            f"{c.name} (lhs={c.lhs:.6g}, rhs={c.rhs:.6g})" for c in self.checks
        )
        super().__init__(f"estimate monitor inequality violated: {names}")


class FormatError(AbreuError):
    """A field file did not match the expected binary layout."""


class FieldSyntaxError(AbreuError):
    """Field expression failed to parse.

    `offset` is the byte position of the failure in the source text and
    `expected` a short hint of what the parser was looking for.
    """

    def __init__(self, offset, expected, found=None):
        self.offset = int(offset)
        self.expected = str(expected)
        self.found = found
        where = f"at offset {self.offset}"
        what = f"expected {self.expected}"
        if found:
            what += f", found {found!r}"
        super().__init__(f"syntax error {where}: {what}")


class DimensionError(AbreuError):
    """Field expression refers to a coordinate beyond the grid dimension."""


class EvalError(AbreuError):
    """Field expression evaluation produced a non-finite value."""
