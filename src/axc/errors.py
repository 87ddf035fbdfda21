"""Exception hierarchy shared by the whole kernel."""


class AxcError(Exception):
    """Base class for all kernel errors."""


class DimensionMismatch(AxcError):
    """Operands built over different contexts (dimension, center, or metric)."""


class AxisOutOfRange(AxcError):
    """Coordinate axis index outside 1..n."""


class GradeOutOfRange(AxcError):
    """Form grade outside the range valid for the operation."""


class GradeMismatch(AxcError):
    """Grades of the inputs are not compatible with the requested system."""


class NotClosed(AxcError):
    """A potential was requested for a form with d(form) != 0."""


class NotCoclosed(AxcError):
    """A copotential was requested for a form with delta(form) != 0."""


class NoCopotential(AxcError):
    """Copotential requested at top grade, where Lambda^{n+1} = 0."""


class NotConserved(AxcError):
    """Source current fails its conservation law (delta j != 0 or d j != 0)."""


class InconsistentSystem(AxcError):
    """A linear system has no solution; ``equation`` is ``(key, c)`` for the
    first equation ``key`` that reduces to 0 = c != 0.  The exact elimination
    of :mod:`axc.linsolve` raises it; the field-equation pipelines solve by
    formula and never do."""

    def __init__(self, message, equation=None):
        super().__init__(message)
        self.equation = equation


class NotASolution(AxcError):
    """Verification failed; carries the names of the violated equations."""

    def __init__(self, failed):
        super().__init__("violated equations: " + ", ".join(failed))
        self.failed = tuple(failed)


class FormSyntaxError(AxcError):
    """Form-expression text does not match the grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonRationalLiteral(AxcError):
    """A numeric literal is not an exact rational (e.g. a float token)."""
