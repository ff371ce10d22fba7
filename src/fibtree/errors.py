"""Exception types shared across the package, and the size check that raises one."""


class DomainError(ValueError):
    """Input is outside an operation's domain (bad code, state, expansion, config)."""


class DivergenceError(RuntimeError):
    """Kept for callers that catch it; nothing raises it, as every dialogue announces."""


def _require_int(name: str, n, least: int | None = None) -> None:
    if type(n) is not int:  # bool is an int, and no size is coerced
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise DomainError(f"{name} must be >= {least}")
