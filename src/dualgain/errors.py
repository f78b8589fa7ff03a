"""Exception types shared across the package."""


class DualGainError(Exception):
    """Base class for all library errors."""


class RingMismatchError(DualGainError):
    """Operands live in different base rings."""


class ShapeMismatchError(DualGainError):
    """Matrix or vector dimensions are incompatible."""


class InfinitesimalNotInvertibleError(DualGainError):
    """Inversion of a dual element whose standard part vanishes."""


class NotUnitError(DualGainError):
    """A unit dual element was required."""


class NotHermitianError(DualGainError):
    """A Hermitian dual matrix was required."""


class SingularStandardPartError(DualGainError):
    """Matrix inversion attempted with a singular standard part."""


class SizeCapExceededError(DualGainError):
    """Input exceeds the size cap of an enumeration-based routine."""


class NotAWalkError(DualGainError):
    """Vertex sequence is not a walk of the underlying graph."""


class NotACycleError(DualGainError):
    """Vertex sequence is not a cycle of the underlying graph."""


class SelfLoopError(DualGainError):
    """Edge with identical endpoints."""


class DuplicateEdgeError(DualGainError):
    """The same undirected edge was given twice."""


class NotUnitGainError(DualGainError):
    """An edge gain failed the unit condition."""

    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"gain on edge {self.edge} is not a unit dual element")


class GraphSyntaxError(DualGainError):
    """Malformed gain graph document."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BadRingError(DualGainError):
    """Unknown or unsupported ring tag."""


class BadParameterError(DualGainError):
    """Invalid parameter value for a generator or query."""
