"""Wootters concurrence and entanglement of formation for real two-qubit states.

For a real symmetric density matrix rho the spin-flipped state is
Y rho Y with Y = sigma_y x sigma_y = antidiag(-1, 1, 1, -1), i.e. a signed
anti-transpose.  The concurrence needs the square roots of the eigenvalues of
the non-symmetric product rho * (Y rho Y).  They come from the factored route
of Wootters, PRL 80, 2245 (1998): for any W with rho = W W^T, the real
symmetric matrix tau = W^T Y W has tau^2 = W^T (Y rho Y) W, which shares its
spectrum with rho * (Y rho Y).  The wanted square roots are therefore the
magnitudes of the eigenvalues of tau, and no square root of a small product
eigenvalue is ever taken.

W is a diagonally pivoted Cholesky factor of rho: four outer-product
elimination steps, each taking the largest remaining diagonal entry as its
pivot, vectorized over a whole (..., 4, 4) stack.  It needs no eigenvector of
rho, so a small eigenvalue of rho, which an eigensolver returns with an
absolute error of ~eps, never has its square root taken either.  The
factorization of a matrix stops at its first pivot at or below
4 * 2^-53 * max diag(rho), the default tolerance of LAPACK's dpstrf, and the
remaining columns of W are zero: such a pivot is roundoff in a rank-deficient
rho (a pure or rank-2 state).  Each factor is then checked: the remainder
R = rho - W W^T that the four steps leave must lie within
16 * 2^-52 * max diag(rho), which a positive semidefinite density matrix meets.

A density matrix has trace 1 within 1e-6, the drift PhotonDistribution's
sum rule allows, and is positive semidefinite within what its factor
certifies.  The factor check is the one positive semidefiniteness decision.
A kept factor certifies it: ||R||_2 <= 4 max|R_ij| <= 64 * 2^-52 *
max diag(rho), and max diag(rho) is at most about the trace, 1, since W W^T
is positive semidefinite; so the lowest eigenvalue of rho = W W^T + R is at
least -1.5e-14, up to roundoff.  Hence every rho with a lower eigenvalue misses
the check (there a small pivot of an indefinite remainder can meet a larger
off-diagonal entry and blow its column up); no density matrix the program
makes has missed it.  A stack in which some remainder misses the check, or
is not finite, is refused, naming the lowest eigenvalue (from LAPACK's
eigvalsh) among the matrices that miss.  Every density matrix thus takes one
LAPACK eigensolve, of tau.  A non-finite entry, input that is not real
numbers or a trace other than 1 is refused too.

E_F = h((1 + sqrt(1 - C^2)) / 2), h the binary entropy, is formed from
1 - x rather than x, so that it keeps its relative precision at a small C;
it takes a float (giving a float) or an array (giving an array), and its
output is clamped to [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _UNIT_SUM_TOL, NumericsError, ParameterError, _in_range, _real_array

_LN2 = math.log(2.0)
_SYMMETRY_TOL = 1e-12

# dpstrf's default stopping rule: a pivot at or below n * dlamch('Epsilon') *
# max diag(rho), with n = 4 and dlamch('Epsilon') = 2^-53, ends the factor
_PIVOT_TOL = 4 * 2.0**-53

# a factor is kept when its remainder rho - W W^T lies within this times
# max diag(rho)
_FACTOR_TOL = 16 * 2.0**-52

_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _float_or_array(x):
    return float(x) if x.ndim == 0 else x


def _sorted_magnitudes(values):
    """The magnitudes of each row of an (N, 4) array in ascending order, as
    four (N,) arrays: the bits np.sort(np.abs(values), axis=-1) gives, from a
    fixed network of five compare-exchanges on the column pairs (0, 1),
    (2, 3), (0, 2), (1, 3), (1, 2).  Magnitudes carry no sign, so a tie
    leaves the same bits whichever side takes it; and a fresh process that
    never calls a numpy sort does not page in numpy's sort kernels."""
    s = list(np.abs(values).T)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        s[i], s[j] = np.minimum(s[i], s[j]), np.maximum(s[i], s[j])
    return s


def _pivoted_factor(stack):
    """W with W W^T = rho for each matrix of an (N, 4, 4) positive semidefinite
    stack, by diagonally pivoted outer-product Cholesky (see the module
    docstring for the stopping rule), as a C-contiguous (N, 4, 4) array, and
    the largest magnitude left in each remainder rho - W W^T after the four
    steps, an (N,) array.  Column k of W is the k-th elimination step's
    column; the columns are not permuted back, since any W with W W^T = rho
    serves the concurrence."""
    # the matrices run along the last axis, so that each step is a few
    # passes over contiguous (4, N) and (4, 4, N) arrays; the transposed copy
    # is also what keeps the in-place elimination off the caller's array
    r = np.transpose(stack, (1, 2, 0)).copy()
    n = r.shape[-1]
    every = np.arange(n)
    w = np.zeros_like(r)
    tol = _PIVOT_TOL * np.max(np.diagonal(r), axis=-1)
    open_ = np.ones((4, n), dtype=bool)  # indices not yet pivoted on
    alive = np.ones(n, dtype=bool)  # factorizations not yet stopped
    for k in range(4):
        diag = np.where(open_, np.diagonal(r).T, -np.inf)
        p = np.argmax(diag, axis=0)
        pivot = diag[p, every]
        alive &= pivot > tol
        root = np.sqrt(np.where(alive, pivot, 1.0))
        col = np.where(open_ & alive, r[:, p, every] / root, 0.0)
        col[p, every] = np.where(alive, root, 0.0)
        open_[p, every] = False
        w[:, k] = col
        r -= col[:, None] * col[None, :]
    return np.ascontiguousarray(np.moveaxis(w, -1, 0)), np.max(np.abs(r), axis=(0, 1))


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a real symmetric two-qubit density matrix.

    Factors rho = W W^T (the pivoted Cholesky factor, checked against rho;
    see the module docstring) and takes s_1 >= ... >= s_4, the eigenvalue
    magnitudes of W^T Y W (the square roots of the eigenvalues of
    rho * (Y rho Y)), from one LAPACK eigensolve per matrix; the result is
    s_1 - s_2 - s_3 - s_4 clamped to [0, 1].  rho is one 4x4 matrix, giving a
    float, or a (..., 4, 4) stack, giving an array of the leading shape; a
    matrix is computed the same way alone or in a stack, and the input is not
    modified.  Entries that are not real numbers (see errors._real_array), an
    input whose last two axes are not 4x4, a matrix not symmetric within
    1e-12, or one whose trace is not 1 within 1e-6 raises ParameterError, the
    last naming the first such trace; a non-finite entry, or a matrix whose
    factor misses the check (one not positive semidefinite within what the
    factor certifies), raises NumericsError, the latter naming the lowest
    eigenvalue among such matrices.
    """
    rho = _real_array(rho, "rho")
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise NumericsError("matrix entry is not finite; the input was not a valid density matrix")
    if np.any(np.abs(rho - np.swapaxes(rho, -1, -2)) > _SYMMETRY_TOL):
        raise ParameterError("matrix is not symmetric within 1e-12")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > _UNIT_SUM_TOL
    if np.any(off):
        raise ParameterError(
            f"matrix trace {float(trace[off][0])!r} is not 1 within {_UNIT_SUM_TOL}"
        )
    stack = rho.reshape(-1, 4, 4)
    w, left = _pivoted_factor(stack)
    # a NaN remainder is a miss too
    miss = ~(left <= _FACTOR_TOL * np.max(np.diagonal(stack, axis1=-2, axis2=-1), axis=-1))
    if np.any(miss):
        lowest = float(np.min(np.linalg.eigvalsh(stack[miss])))
        raise NumericsError(
            f"eigenvalue {lowest} leaves rho outside what its pivoted Cholesky factor "
            "certifies as positive semidefinite; the input was not a valid density matrix"
        )
    tau = np.swapaxes(w, -1, -2) @ (_FLIP_SIGNS[:, None] * w[:, ::-1])
    s = _sorted_magnitudes(np.linalg.eigvalsh(tau))
    c = np.clip(s[3] - s[2] - s[1] - s[0], 0.0, 1.0)
    return _float_or_array(c.reshape(rho.shape[:-2]))


def eof_from_concurrence(c: float | np.ndarray) -> float | np.ndarray:
    """Entanglement of formation h(x), x = (1 + sqrt(1 - C^2)) / 2 and h the
    binary entropy, clamped to [0, 1].

    y = 1 - x is formed as C^2 / (2 (1 + sqrt((1 - C)(1 + C)))) and log x as
    log1p(-y), so nothing cancels: E_F keeps its relative precision at a
    small C, where 1 - x would lose the digits of C^2 / 4.  c is a float,
    giving a float, or an array, giving an array of its shape.  A C within
    1e-12 of [0, 1] is clamped into it; any other C, a non-finite one, or
    one that is not a real number (see errors._real_array) raises
    ParameterError.
    """
    c = np.clip(_in_range(c, "concurrence", -1e-12, 1.0 + 1e-12), 0.0, 1.0)
    y = c * c / (2.0 * (1.0 + np.sqrt((1.0 - c) * (1.0 + c))))
    # 0 log 0 = 0 without taking log 0; 0 - s rather than -s, so that a
    # separable state gives +0.0
    y_log_y = y * np.log(np.where(y > 0.0, y, 1.0))
    value = 0.0 - ((1.0 - y) * np.log1p(-y) + y_log_y) / _LN2
    return _float_or_array(np.clip(value, 0.0, 1.0))
