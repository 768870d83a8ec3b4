"""Error taxonomy: structural errors (shapes, incompatible objects) vs parameter errors."""

import numbers


class StructuralError(ValueError):
    """Inputs are structurally inconsistent (dimension mismatch, kind/scheme mismatch)."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class ReferenceRunError(RuntimeError):
    """The reference run aborted, so there is no reference to measure errors against."""


def as_count(name, value):
    """``value`` as an int when it is a whole number >= 1 (1e3 is 1000), else a ParameterError."""
    return _whole(name, value, 1)


def as_whole(name, value):
    """``value`` as an int when it is a whole number >= 0 (a seed), else a ParameterError."""
    return _whole(name, value, 0)


def as_real(name, value):
    """``value`` as a float when it is a JSON number (an int or float), else a ParameterError.

    A bool and a numeric string are no numbers: ``true`` is not 1.0, ``"0.01"`` not 0.01.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    return float(value)


def _whole(name, value, least):   # 2.5, inf and a bool are no whole numbers
    if not ((isinstance(value, numbers.Integral) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer()) and value >= least):
        raise ParameterError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)
