"""Exception hierarchy shared across the package, and its integer and descriptor checks.

Each class carries the process exit code the CLI maps it to.
"""

import math
import numbers

import numpy as np


class CovaggError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class FormatError(CovaggError):
    """A file does not conform to its declared on-disk format."""

    exit_code = 2


class ContractError(CovaggError):
    """An argument or input violates a documented precondition."""

    exit_code = 3


class DegenerateDataError(CovaggError):
    """Input data is numerically degenerate for the requested operation."""

    exit_code = 4


def check_integer(value, message: str, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is a whole real in [low, high]; else ContractError(message).

    NaN, infinities, None and non-numbers are refused like any fraction,
    never raised as the ValueError, OverflowError or TypeError of ``int()``.
    """
    if isinstance(value, numbers.Integral):
        whole = True
    else:
        whole = isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    if not whole or value < low or (high is not None and value > high):
        raise ContractError(message)
    return int(value)


def _descriptor_matrix(X, dim: int, owner: str) -> np.ndarray:
    """X as a float64 matrix of ``dim``-wide rows; ``owner`` names whose dim it must match."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ContractError("expected a 2-D array of descriptors")
    if X.shape[1] != dim:
        raise ContractError(f"descriptor dim {X.shape[1]} does not match {owner} dim {dim}")
    return X
