"""Shared exception types."""


class DomainError(ValueError):
    """A precondition on the inputs does not hold."""


class ParseError(DomainError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateMemberError(DomainError):
    """A set was given the same member twice.  For members given as rows,
    `rows` is (r, q): r the first row equal to an earlier one, q the first
    row equal to it, both in the order given."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class PrimeRangeError(DomainError):
    """A prime beyond the configured sieve ceiling was requested."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries its last state."""

    def __init__(self, message, estimate=None, residual=None, iterations=None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations


class TransformLimitError(RuntimeError):
    """A set transformation exceeded its iteration cap; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
