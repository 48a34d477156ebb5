"""Exception types shared across the package, and its one integer rule, ``is_int``:
every count, size, port and seed it takes is an int or NumPy integer, not a bool, at
least a bound.  A float, even a whole one, is refused with the caller's error, not truncated.

Each error type carries the command line's exit status as ``exit_code``, and a
subclass inherits its parent's: 1 for any package error (a diverged
simulation), 2 for a bad parameter, config or payload, 3 for a degenerate
design, 4 for a network failure.
"""

import numpy as np


def is_int(value, low: int) -> bool:
    """Whether ``value`` is an int or NumPy integer (a bool is not one) >= ``low``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


class GradcommError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ParameterError(GradcommError, ValueError):
    """An operator, model, or selection parameter is out of its valid range."""

    exit_code = 2


class ConfigError(GradcommError, ValueError):
    """A config file or CLI input could not be parsed or validated."""

    exit_code = 2


class DecodeError(GradcommError, ValueError):
    """A compressed message payload is malformed and cannot be decoded."""

    exit_code = 2


class DegenerateDesignError(GradcommError, ValueError):
    """The least-squares design matrix is singular (message sizes do not vary)."""

    exit_code = 3


class DegenerateModelError(ParameterError):
    """The time model is degenerate (both coefficients zero)."""


class DivergenceError(GradcommError, RuntimeError):
    """The simulated objective exceeded the divergence guard."""


class NetworkError(GradcommError, OSError):
    """A probe or server operation failed at the socket level."""

    exit_code = 4
