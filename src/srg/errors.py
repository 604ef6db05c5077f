"""Exception types shared across the package."""


class SRGError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownVertexError(SRGError):
    """A vertex name or index that is not part of the graph."""


class ParseError(SRGError):
    """Malformed network, state, or phenotype text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateSpaceLimitError(SRGError):
    """Refusal to enumerate a state space larger than the caller's limit."""

    def __init__(self, free_vertices, size, limit):
        self.free_vertices = free_vertices
        self.size = size
        self.limit = limit
        super().__init__(
            f"state space has 3^{free_vertices} = {size} states, "
            f"which exceeds the limit of {limit}"
        )


class StepBudgetError(SRGError):
    """A simulation ran out of steps before its trajectory cycled."""


class InvalidCodeError(SRGError):
    """A two-bit vertex code that does not encode any ternary value."""
