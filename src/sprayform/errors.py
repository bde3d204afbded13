"""Exception types shared across the library."""


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


def _where(row, point):
    """The known parts of "batch row R, point (..)", comma-separated."""
    where = [] if row is None else [f"batch row {row}"]
    if point is not None:
        where.append("point (" + ", ".join(f"{float(v):.6g}" for v in point)
                     + ")")
    return ", ".join(where)


class DomainExitError(SprayformError):
    """A trajectory (batch index ``row``, when known) left the coordinate box."""

    def __init__(self, exit_time, point=None, row=None):
        where = _where(row, point)
        super().__init__(f"trajectory left the domain box at t={exit_time:.6g}"
                         + (", " + where if where else ""))
        self.exit_time = exit_time
        self.point = point
        self.row = row


class NonFiniteStateError(SprayformError):
    """A flow state (batch index ``row``, when known) became NaN or infinite."""

    def __init__(self, time, point=None, row=None):
        where = _where(row, point)
        super().__init__(f"flow state is not finite at t={time:.6g}"
                         + (", " + where if where else ""))
        self.time = time
        self.point = point
        self.row = row


class DegenerateFormError(SprayformError):
    """A 2-form that must be invertible is singular or ill-conditioned.

    ``row`` is the batch index of the offending point, when known.
    """

    def __init__(self, smallest_singular_value, point=None, row=None):
        where = _where(row, point)
        super().__init__("2-form is degenerate (smallest singular value "
                         f"{smallest_singular_value:.3e})"
                         + (" at " + where if where else ""))
        self.smallest_singular_value = smallest_singular_value
        self.point = point
        self.row = row


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


class ComposabilityError(SprayformError):
    """Arguments of the groupoid multiplication are not composable."""


class NonlinearCocycleError(SprayformError):
    """A candidate cocycle is not fiberwise linear."""


class ConfigError(SprayformError):
    """Invalid problem configuration."""
