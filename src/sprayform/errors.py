"""Exception types shared across the library, and ``named``, which puts
the stage that was running in front of an error's message."""

from contextlib import contextmanager


class SprayformError(Exception):
    """Base class for all library errors."""


class ExprError(SprayformError):
    """Problem with an expression: syntax, unknown name, arity."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class ArityError(ExprError):
    pass


class EvalDomainError(SprayformError):
    """Division by zero, log/sqrt outside their domain, overflow."""


class DimensionError(SprayformError):
    """Mismatched dimensions or degrees in tensor algebra."""


class BatchRowError(SprayformError):
    """An error at one row of a point batch: ``row`` is the batch index of
    the offending point (when known) and ``point`` the point.

    ``relocate`` moves the error to the row's place in its caller's batch.
    """

    def __init__(self, point=None, row=None):
        self.point = point
        self.row = row
        super().__init__(self._message())

    def _where(self):
        """The known parts of "batch row R, point (..)", comma-separated."""
        where = [] if self.row is None else [f"batch row {self.row}"]
        if self.point is not None:
            where.append("point (" + ", ".join(f"{float(v):.6g}"
                                               for v in self.point) + ")")
        return ", ".join(where)

    def relocate(self, row):
        """Name ``row`` as the batch row."""
        self.row = row
        self.args = (self._message(),)


class DomainExitError(BatchRowError):
    """A trajectory left the coordinate box."""

    def __init__(self, exit_time, point=None, row=None):
        self.exit_time = exit_time
        super().__init__(point, row)

    def _message(self):
        where = self._where()
        return (f"trajectory left the domain box at t={self.exit_time:.6g}"
                + (", " + where if where else ""))


class NonFiniteStateError(BatchRowError):
    """A flow state became NaN or infinite."""

    def __init__(self, time, point=None, row=None):
        self.time = time
        super().__init__(point, row)

    def _message(self):
        where = self._where()
        return (f"flow state is not finite at t={self.time:.6g}"
                + (", " + where if where else ""))


class DegenerateFormError(BatchRowError):
    """A 2-form that must be invertible is singular or ill-conditioned."""

    def __init__(self, smallest_singular_value, point=None, row=None):
        self.smallest_singular_value = smallest_singular_value
        super().__init__(point, row)

    def _message(self):
        where = self._where()
        return ("2-form is degenerate (smallest singular value "
                f"{self.smallest_singular_value:.3e})"
                + (" at " + where if where else ""))


class ProductConvergenceError(BatchRowError):
    """A product row whose last update after ``sweeps`` sweeps exceeds ``bound``."""

    def __init__(self, sweeps, update, bound, point=None, row=None):
        self.sweeps, self.update, self.bound = sweeps, update, bound
        super().__init__(point, row)

    def _message(self):
        return (f"product did not converge in {self.sweeps} sweeps (last update "
                f"{self.update:.3e} > {self.bound:.1e}) at {self._where()}")


class NotLagrangianError(SprayformError):
    """Candidate Dirac frame is not isotropic for the symmetric pairing."""

    def __init__(self, residual):
        super().__init__(f"frame is not Lagrangian (pairing residual {residual:.3e})")
        self.residual = residual


class NotInvolutiveError(SprayformError):
    """Courant brackets of the frame do not close on the frame."""

    def __init__(self, residual, worst_point):
        super().__init__(
            f"frame is not involutive (fit residual {residual:.3e} "
            f"at {worst_point})"
        )
        self.residual = residual
        self.worst_point = worst_point


class CompatibilityError(SprayformError):
    """Input tensors fail the algebraic compatibility equations."""


class ComposabilityError(BatchRowError):
    """Arguments of the groupoid multiplication are not composable:
    |sigma(a) - tau(b)| is ``violation``, above the tolerance ``tol``."""

    def __init__(self, violation, tol, row=None):
        self.violation = violation
        self.tol = tol
        super().__init__(None, row)

    def _message(self):
        at = "" if self.row is None else f" at batch row {self.row}"
        return (f"sigma(a) != tau(b){at}: violation {self.violation:.3e} > "
                f"{self.tol:.1e}")


class NonlinearCocycleError(SprayformError):
    """A candidate cocycle is not fiberwise linear."""


class ConfigError(SprayformError):
    """Invalid problem configuration."""


@contextmanager
def named(name):
    """Put ``name: `` in front of the message of a library error raised inside."""
    try:
        yield
    except SprayformError as exc:
        exc.args = (f"{name}: {exc}",)
        raise
