"""Semantic exception hierarchy shared by all modules, and the input checks
that JSON readers share."""


class BetaSpectraError(Exception):
    """Base class for all package errors."""


class ParameterError(BetaSpectraError, ValueError):
    """A distribution or law parameter is outside its admissible range."""


class DomainError(BetaSpectraError, ValueError):
    """An evaluation point is outside the domain of the operation."""


class InvalidMatrixError(BetaSpectraError, ValueError):
    """A Jacobi matrix violates its structural constraints (a_k > 0)."""


class DegenerateMeasureError(BetaSpectraError, ValueError):
    """A discrete measure has coincident atoms; the Jacobi map is ill-posed."""


class NotPositiveDefiniteError(BetaSpectraError, ValueError):
    """A forward factorization hit a nonpositive pivot."""


class RangeError(BetaSpectraError, ValueError):
    """An index or order argument exceeds the guaranteed validity range."""


class PoleError(BetaSpectraError, ValueError):
    """Evaluation requested at (or numerically on top of) a pole."""


def require_keys(obj, what: str, *keys: str) -> None:
    """Refuse a JSON value that is not an object, or that lacks one of keys
    or holds null there, with a ParameterError naming what and the key."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if obj.get(key) is None]
    if missing:
        raise ParameterError(f"{what} has no {missing[0]!r} value")


def convert(obj: dict, what: str, key: str, to):
    """to(obj[key]), refusing a value of the wrong type for it (a list where
    a number belongs, say) with a ParameterError naming what and the key."""
    try:
        return to(obj[key])
    except (TypeError, ValueError):
        raise ParameterError(f"{what}: the {key!r} value {obj[key]!r} has the wrong type") from None


def integral(value, key: str) -> int:
    """value as an int; one with a fractional part (8.9) or no number at all
    is refused with a ParameterError naming key, not truncated as by int()."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{key!r} must be an integer, got {value!r}")
