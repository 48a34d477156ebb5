"""Exception types shared across the package, and its one integer rule, ``is_int``:
every count, size, port and seed it takes is an int or NumPy integer, not a bool, at
least a bound.  A float, even a whole one, is refused with the caller's error, not truncated.
"""

import numpy as np


def is_int(value, low: int) -> bool:
    """Whether ``value`` is an int or NumPy integer (a bool is not one) >= ``low``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


class GradcommError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GradcommError, ValueError):
    """An operator, model, or selection parameter is out of its valid range."""


class ConfigError(GradcommError, ValueError):
    """A config file or CLI input could not be parsed or validated."""


class DecodeError(GradcommError, ValueError):
    """A compressed message payload is malformed and cannot be decoded."""


class DegenerateDesignError(GradcommError, ValueError):
    """The least-squares design matrix is singular (message sizes do not vary)."""


class DegenerateModelError(ParameterError):
    """The time model is degenerate (both coefficients zero)."""


class DivergenceError(GradcommError, RuntimeError):
    """The simulated objective exceeded the divergence guard."""


class NetworkError(GradcommError, OSError):
    """A probe or server operation failed at the socket level."""
