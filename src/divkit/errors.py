"""Exception hierarchy for divkit, the one parser of numbers from text, the
attribute guard of the immutable records, and the one bound of the caches.

All library errors derive from DivkitError so callers (and the CLI) can
distinguish bad inputs from genuine bugs with a single except clause.
"""

import math

# Entries kept per family or kind (``terms._shared``) and per pair (a record's pair memo)
_CACHE_SIZE = 256


class DivkitError(ValueError):
    """Base class for all divkit input/contract violations."""


class ValidationError(DivkitError):
    """Malformed input data (bad masses, mismatched alphabets, ...)."""


class DomainError(DivkitError):
    """Parameter outside its mathematical domain."""


class UndefinedAtomError(DivkitError):
    """Relative information requested at an atom where both masses vanish."""


class AbsoluteContinuityError(DivkitError):
    """Operation requires absolute continuity that the pair does not have."""


class CapabilityError(DivkitError):
    """Generator lacks a capability (e.g. a second derivative) the
    operation needs."""


class UnknownKindError(DivkitError):
    """Dispatch on an unrecognized divergence or bound name."""


class RootError(DivkitError):
    """A bracketing root search found no sign change."""


def parse_number(raw: str, what: str) -> float:
    """A finite float from text; anything else is a ValidationError."""
    try:
        x = float(raw)
    except ValueError:
        raise ValidationError(f"{what}: not a number: {raw!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{what}: must be finite, got {raw!r}")
    return x


def _real(value: object, name: str) -> float:
    """``value`` if a float, or an int in the float range, not a bool; else DomainError."""
    if type(value) is float:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            raise DomainError(f"parameter {name!r} passes the float range") from None
        return value
    raise DomainError(f"parameter {name!r} must be a real number, got {value!r}")


def refuse_change(record: object, name: str, *_: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable records."""
    raise AttributeError(f"{type(record).__name__} is immutable: cannot change {name!r}")
