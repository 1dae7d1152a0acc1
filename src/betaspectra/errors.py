"""Semantic exception hierarchy shared by all modules, and the input checks
that the JSON readers and the command line share."""


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


def refuse_foreign(what: str, given, known) -> None:
    """Refuse every key of given that known lacks, with one ParameterError
    "what takes no 'key'"."""
    foreign = [key for key in given if key not in known]
    if foreign:
        raise ParameterError(f"{what} takes no {', '.join(map(repr, foreign))}")


def read_fields(obj, what: str, fields: dict, required=()) -> dict:
    """The keys of the JSON object obj, each through its converter in fields
    (None: passed as given, for the constructor to check), in the order of
    fields; absent or null keys are left out. A ParameterError naming what
    and the key refuses a value that is not an object, a key of required
    that is missing or null, a value its converter rejects (a list where a
    number belongs, say), and then a key that fields lacks. A converter's
    own typed error (a non-finite Jacobi coefficient) passes through."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(obj).__name__}")
    out = {}
    for key, to in fields.items():
        value = obj.get(key)
        if value is None:
            if key in required:
                raise ParameterError(f"{what} has no {key!r} value")
        elif to is None:
            out[key] = value
        else:
            try:
                out[key] = to(value)
            except BetaSpectraError:
                raise  # a nested reader's or a constructor's, naming its own fault
            except (TypeError, ValueError):
                raise ParameterError(
                    f"{what}: the {key!r} value {value!r} has the wrong type") from None
    refuse_foreign(what, obj, fields)
    return out


def integral(value, key: str) -> int:
    """value as an int; one with a fractional part (8.9) or no number at all
    is refused with a ParameterError naming key, not truncated as by int()."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{key!r} must be an integer, got {value!r}")
