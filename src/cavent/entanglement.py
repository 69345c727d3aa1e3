"""Wootters concurrence and entanglement of formation for real two-qubit states.

For a real symmetric density matrix rho the spin-flipped state is
Y rho Y with Y = sigma_y x sigma_y = antidiag(-1, 1, 1, -1), i.e. a signed
anti-transpose.  The concurrence needs the square roots of the eigenvalues of
the non-symmetric product rho * (Y rho Y).  They come from the factored route
of Wootters, PRL 80, 2245 (1998): with rho = V D V^T and W = V sqrt(D), so
that rho = W W^T, the real symmetric matrix tau = W^T Y W has
tau^2 = W^T (Y rho Y) W, which shares its spectrum with rho * (Y rho Y).  The
wanted square roots are therefore the magnitudes of the eigenvalues of tau,
and no square root of a small product eigenvalue is ever taken.  Both
eigenproblems go to LAPACK through numpy.  Tiny negative eigenvalues of rho
(roundoff) are clamped to zero; anything below -1e-8, or not finite, means
the input was not a density matrix and is rejected.

E_F = h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy; both outputs are
clamped to [0, 1].
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ParameterError

_LN2 = math.log(2.0)
_SYMMETRY_TOL = 1e-12

# eigenvalues of a nominally PSD rho between -EIG_HARD_TOL and 0 are roundoff
# and clamped to zero; lower ones are rejected
EIG_HARD_TOL = 1e-8

_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


class EntanglementResult(NamedTuple):
    concurrence: float
    eof: float


def spin_flipped(rho: np.ndarray) -> np.ndarray:
    """Y rho Y for real symmetric rho: entries s_i s_j rho[3-i, 3-j] with
    signs s = (-1, 1, 1, -1)."""
    return np.outer(_FLIP_SIGNS, _FLIP_SIGNS) * rho[::-1, ::-1]


def _clamped_spectrum(values):
    low = float(np.min(values))
    if not low >= -EIG_HARD_TOL:
        raise NumericsError(
            f"eigenvalue {low} is below -{EIG_HARD_TOL} or not finite; "
            "the input was not a valid density matrix"
        )
    return np.where(values < 0.0, 0.0, values)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a real symmetric two-qubit density matrix.

    Factors rho = W W^T and takes s_1 >= ... >= s_4, the eigenvalue
    magnitudes of W^T Y W (the square roots of the eigenvalues of
    rho * spin_flipped(rho)); the result is s_1 - s_2 - s_3 - s_4 clamped to
    [0, 1].  A matrix that is not 4x4, or not symmetric within 1e-12, raises
    ParameterError.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.T)) > _SYMMETRY_TOL:
        raise ParameterError("matrix is not symmetric within 1e-12")
    values, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(_clamped_spectrum(values))
    tau = w.T @ (_FLIP_SIGNS[:, None] * w[::-1])
    s = np.sort(np.abs(np.linalg.eigvalsh(tau)))[::-1]
    return min(1.0, max(0.0, float(s[0] - s[1] - s[2] - s[3])))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with the 0 log 0 = 0 convention."""
    if not math.isfinite(x) or x < -1e-12 or x > 1.0 + 1e-12:
        raise ParameterError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    x = min(1.0, max(0.0, x))
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2), clamped to [0, 1]."""
    value = binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))
    return min(1.0, max(0.0, value))


def entanglement_of_formation(rho: np.ndarray) -> EntanglementResult:
    """Concurrence and entanglement of formation of a two-qubit density matrix."""
    c = concurrence(rho)
    return EntanglementResult(c, eof_from_concurrence(c))
