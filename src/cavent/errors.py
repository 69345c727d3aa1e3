"""Exception types shared across the package, and the one rule for what input
counts as a real number."""

import numpy as np


class CaventError(Exception):
    """Base class for all cavent errors."""


class ParameterError(CaventError):
    """Invalid, unsupported, or infeasible input parameters (CLI exit code 1)."""


class NumericsError(CaventError):
    """A numerical guarantee could not be met: normalization drift, a spectrum
    that should be real but is not, a matrix not positive semidefinite within
    what its factor certifies, or an unattainable truncation tolerance (CLI
    exit code 2)."""


def _real_array(value, name: str) -> np.ndarray:
    """value, a number or an array-like of them, as a float array.

    Integers and floats are real numbers; a bool, a string, None or any other
    object is not, even where numpy would convert it to a float.  Either,
    complex input, or a ragged nested list raises ParameterError naming
    `name`.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nested list
        raise ParameterError(f"{name} must be a real number or an array of them") from None
    if arr.dtype.kind == "c":
        raise ParameterError(f"{name} must be real, got complex input")
    if arr.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be a real number, got {arr.dtype} input")
    return arr.astype(float, copy=False)


def _real_number(value, name: str) -> float:
    """value, one real number (see _real_array), as a float; ParameterError
    for anything else, an array of any shape but () included."""
    arr = _real_array(value, name)
    if arr.ndim:
        raise ParameterError(f"{name} must be a single number, got shape {arr.shape}")
    return float(arr)
