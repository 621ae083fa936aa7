"""Exception types raised by the map-decomposition toolkit."""


class DynamapError(Exception):
    """Base class of the numerical errors; malformed documents raise DocumentError."""


class DimensionMismatch(DynamapError):
    """Array shapes are inconsistent with the declared dimensions."""


class NonHermitianChoi(DynamapError):
    """The Choi matrix of a map is not Hermitian, i.e. the map does not
    preserve Hermiticity."""


class NotTracePreserving(DynamapError):
    """The map fails the trace-preservation condition."""


class SingularJ(DynamapError):
    """The positive-part trace functional is singular; this cannot happen for
    a trace-preserving input and signals inconsistent data."""


class NotCompleteKraus(DynamapError):
    """Kraus operators do not satisfy the completeness relation, so the map
    cannot be dilated to a unitary."""


class NotUnitary(DynamapError):
    """A matrix that must be unitary fails the unitarity residual bound."""


class DocumentError(Exception):
    """Malformed input document; carries the JSON path of the offense."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
