"""Exception types shared across the package, and the one validation layer:
every input rule that a value decides alone, namely what counts as a real
number (_real_array), that it is finite and within its closed range
(_in_range, and _real_number for a single number), and how far from 1 a
probability sum or a trace may drift (_UNIT_SUM_TOL).  Callers compute with
the floats these rules return, not with what they were given.

Rules that are not closed ranges stay with the code that knows them: the
tail tolerance's open interval (0, 1) and its 2^-52 floor, the shapes of
arrays, the ordering and step count of a grid, and the concurrence's
NumericsError for a non-finite density matrix.
"""

import math

import numpy as np

# How far from 1 a probability sum may lie: PhotonDistribution's sum rule,
# concurrence's trace rule and squeezed_distribution's normalization window.
_UNIT_SUM_TOL = 1e-6


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


def _in_range(value, name: str, low=-math.inf, high=math.inf) -> float | np.ndarray:
    """value, a real number or an array of them (see _real_array), with every
    entry finite and within the closed range [low, high], either bound of
    which may be infinite.

    A single number, a 0-d array included, comes back as a float and is
    checked with math.isfinite and plain comparisons, which cost a fraction of
    numpy's on one element; an array comes back as a float array.  Anything
    else raises ParameterError naming `name`, the first entry out of range and
    the finite bounds.
    """
    arr = _real_array(value, name)
    if arr.ndim == 0:
        x = float(arr)
        if math.isfinite(x) and low <= x <= high:
            return x
    elif np.all(ok := np.isfinite(arr) & (arr >= low) & (arr <= high)):
        return arr
    else:
        x = float(arr[~ok][0])
    rules = ["finite"] + [f"{o} {b!r}" for o, b in ((">=", low), ("<=", high)) if math.isfinite(b)]
    raise ParameterError(f"{name} must be {' and '.join(rules)}, got {x!r}")


def _real_number(value, name: str, low=-math.inf, high=math.inf) -> float:
    """value, one real number within [low, high] (see _in_range), as a float;
    ParameterError for an array of any shape but () as well."""
    x = _in_range(value, name, low, high)
    if isinstance(x, np.ndarray):
        raise ParameterError(f"{name} must be a single number, got shape {x.shape}")
    return x
