"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NotAFactorError(DomainError):
    """The given word does not occur in the infinite Fibonacci word."""


class ResourceError(RuntimeError):
    """The request would materialize more letters than the configured cap,
    or need a Fibonacci number past the index limit."""


def show_int(x: int) -> str:
    """x for a message: in full up to ~1,000 digits, past that by its size, as str() may refuse it."""
    bits = x.bit_length() if isinstance(x, int) else 0
    if bits <= 3322:  # 2**3322 > 10**1000
        return str(x)
    return f"<{'negative ' if x < 0 else ''}int of ~{bits * 30103 // 100000 + 1:,} digits>"
