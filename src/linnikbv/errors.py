"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An argument violates a documented precondition (CLI exit code 3)."""


class ConfigurationError(ValueError):
    """A whole-range table asked for past the bulk cap (CLI exit code 3)."""


def brief_int(n: int) -> str:
    """n in decimal below 2**64 in size, else ~2^k: short and safe at any size."""
    return str(n) if abs(n) < 1 << 64 else f"{'-' * (n < 0)}~2^{abs(n).bit_length() - 1}"
