import os
from pathlib import Path

import numpy as np
import pytest

import gradcomm


@pytest.fixture(scope="session")
def cli_env():
    """Environment for ``python -m gradcomm.cli`` subprocesses.

    Puts the directory that holds the ``gradcomm`` this test process imported
    first on an absolute ``PYTHONPATH``, so a child started in any working
    directory runs the same package as the in-process tests.
    """
    root = str(Path(gradcomm.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([root, inherited]) if inherited else root
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def natural_bounds():
    """Oracle of natural rounding: values -> (lower, upper, p_lower), from ``np.frexp``.

    An entry v = m * 2^e lies between lower = sign(v) * 2^(e-1) and upper =
    2 * lower, and natural rounding keeps lower with probability p_lower =
    2 - 2|m|.  A zero is both of its bounds, sign included; from 2^1023 up,
    where 2 * lower is not a float, upper is capped at lower.
    """
    def bounds(values):
        mantissa, exponent = np.frexp(values)
        sign = np.trunc(2 * mantissa)  # +-1, or +-0 for a zero
        lower = sign * np.exp2(exponent - 1.0)
        upper = sign * np.exp2(np.minimum(exponent, 1023).astype(np.float64))
        return lower, upper, 2 - 2 * np.abs(mantissa)

    return bounds
