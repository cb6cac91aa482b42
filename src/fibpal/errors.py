"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotAFactorError(DomainError):
    """The given word does not occur in the infinite Fibonacci word."""


class ResourceError(RuntimeError):
    """The request would materialize more letters than the configured cap,
    or need a Fibonacci number past the index limit."""
