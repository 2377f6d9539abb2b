"""Exception types shared by all modules."""


class DtmError(Exception):
    """Base class for every error raised by this package.

    The command line prints ``ERROR:<category>: <message>`` and exits with
    ``exit_code``: bad input by default, solve failures below.
    """

    category = "parse"
    exit_code = 2


class ParseError(DtmError):
    """Malformed expression or problem-file text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ValidationError(DtmError):
    """Structurally valid input that violates a problem contract."""


class SeriesMismatchError(DtmError):
    """Operands disagree on expansion point or truncation order."""


class DivisionBySingularSeries(DtmError):
    """Division by a series whose constant term is numerically zero."""

    node = None  # the failing expression node, once series evaluation knows it


class DomainError(DtmError):
    """An elementary function was applied outside its domain."""

    node = None  # the failing expression node, once series evaluation knows it


class NonzeroBasePointScaling(DtmError):
    """Argument rescaling is only defined for series expanded at 0."""


class UnboundSymbol(DtmError):
    """Evaluation reached an atom with no value in the binding."""


class UnsupportedNode(DtmError):
    """The operation does not accept this kind of expression node."""


class NotAutonomous(DtmError):
    """The expression depends explicitly on the time variable."""


class SolveError(DtmError):
    """Base class for recurrence-driver and integrator failures."""

    category = "solve"
    exit_code = 3

    def __init__(self, message: str, k: int | None = None):
        if k is not None:
            message = f"{message} (step k={k})"
        super().__init__(message)
        self.k = k


class SingularStep(SolveError):
    """The step residual does not depend on the coefficient being solved."""


class NonlinearStep(SolveError):
    """The step residual is not affine in the trial coefficient."""


class ResidualError(SolveError):
    """A residual overflows or exceeds its bound; coefficients are not trustworthy."""


class MaxStepsExceeded(SolveError):
    """The adaptive integrator hit its step budget."""


class StepUnderflow(SolveError):
    """The adaptive integrator drove the step size below resolution."""


class OutOfSpan(SolveError):
    """A sample point lies outside the integrated interval."""
