"""Characteristic-quartic eigenvalue oracle, a test-only cross-check.

The characteristic quartic of a 4x4 matrix is expanded by Faddeev-LeVerrier
and solved by a Durand-Kerner iteration in extended precision with
multiplicity-aware polishing.  It shares nothing with the LAPACK route that
`cavent.entanglement` uses, which is what the tests cross-check it against.
The spin flip Y rho Y whose product with rho the oracle solves lives here too:
the factored route of `cavent.entanglement` never forms it.
"""

from __future__ import annotations

import math

import numpy as np

from cavent.errors import NumericsError, ParameterError

_EPS_LD = float(np.finfo(np.longdouble).eps)
_DK_MAX_ITER = 400
_CLUSTER_TOL = 2e-8
IMAG_TOL = 1e-8

_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

# Y = sigma_y x sigma_y as a real matrix: the signs s on the antidiagonal
SPIN_FLIP = np.fliplr(np.diag(_FLIP_SIGNS))


def spin_flipped(rho):
    """Y rho Y for real symmetric rho, Y = sigma_y x sigma_y: entries
    s_i s_j rho[3-i, 3-j] with signs s = (-1, 1, 1, -1).  rho is one 4x4
    matrix or a (..., 4, 4) stack, each matrix flipped alone; other shapes
    raise ParameterError."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    return np.outer(_FLIP_SIGNS, _FLIP_SIGNS) * rho[..., ::-1, ::-1]


def _characteristic_coefficients(m):
    """Monic coefficients [1, b3, b2, b1, b0] of det(x I - m), extended precision."""
    a = np.array(m, dtype=np.longdouble)
    eye = np.eye(4, dtype=np.longdouble)
    coeffs = [np.longdouble(1.0)]
    b = a.copy()
    for k in range(1, 5):
        ak = np.trace(b) / k
        coeffs.append(-ak)
        if k < 4:
            b = a @ (b - ak * eye)
    return coeffs


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [coeffs[i] * (n - i) for i in range(n)]


def _horner(coeffs, x):
    acc = coeffs[0] + x * 0
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _durand_kerner(coeffs):
    """Simultaneous root iteration in extended-precision complex arithmetic."""
    n = len(coeffs) - 1
    radius = 1.0 + max(abs(complex(c)) for c in coeffs[1:])
    seed = np.clongdouble(0.4 + 0.9j)
    roots = [seed ** (k + 1) * np.clongdouble(radius) for k in range(n)]
    tol = 8.0 * _EPS_LD
    best = math.inf
    stall = 0
    for _ in range(_DK_MAX_ITER):
        moved = 0.0
        for i in range(n):
            x = roots[i]
            denom = np.clongdouble(1.0)
            for j in range(n):
                if j != i:
                    denom = denom * (x - roots[j])
            if denom == 0.0:
                roots[i] = x + np.clongdouble(1e-12 * radius)
                moved = math.inf
                continue
            step = _horner(coeffs, x) / denom
            roots[i] = x - step
            moved = max(moved, abs(complex(step)))
        scale = 1.0 + max(abs(complex(x)) for x in roots)
        if moved < tol * scale:
            break
        if moved < 0.5 * best:
            best = moved
            stall = 0
        else:
            stall += 1
            if stall > 40:
                break  # stalled at the noise floor of a multiple root
    return roots


def _newton_real(coeffs, x0, iters=80):
    deriv = _derivative(coeffs)
    x = np.longdouble(x0)
    for _ in range(iters):
        dv = _horner(deriv, x)
        if dv == 0.0:
            break
        step = _horner(coeffs, x) / dv
        x = x - step
        if abs(float(step)) < _EPS_LD * (1.0 + abs(float(x))):
            break
    return float(x)


def _collapse_clusters(coeffs, roots):
    """Replace root clusters by their common value.

    An m-fold root of p is a simple (hence well-conditioned) root of the
    (m-1)-th derivative; Newton on that derivative recovers the cluster
    center far more accurately than the individually scattered iterates, and
    makes conjugate-pair imaginary residue vanish identically.
    """
    roots = sorted(roots, key=lambda z: float(z.real))
    scale = 1.0 + max(abs(complex(z)) for z in roots)
    ctol = _CLUSTER_TOL * scale
    groups = []
    current = [0]
    for i in range(1, len(roots)):
        if any(abs(complex(roots[i] - roots[j])) <= ctol for j in current):
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)

    out = [None] * len(roots)
    for group in groups:
        if len(group) == 1:
            out[group[0]] = complex(roots[group[0]])
            continue
        center = sum(float(roots[i].real) for i in group) / len(group)
        cf = coeffs
        for _ in range(len(group) - 1):
            cf = _derivative(cf)
        polished = _newton_real(cf, center)
        if abs(polished - center) > 4.0 * ctol:
            polished = center  # Newton wandered to a different stationary point
        for i in group:
            out[i] = complex(polished, 0.0)
    return out


def quartic_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 real matrix with a real spectrum, descending.

    Expands det(x I - m) explicitly and solves the quartic numerically; no
    similarity transforms, so the route shares nothing with the LAPACK
    eigensolver it cross-checks.  A residual imaginary part above 1e-8 means
    the spectrum was not real and raises NumericsError.
    """
    coeffs = _characteristic_coefficients(m)
    roots = _collapse_clusters(coeffs, _durand_kerner(coeffs))
    max_imag = max(abs(z.imag) for z in roots)
    if max_imag > IMAG_TOL:
        raise NumericsError(
            f"characteristic roots have residual imaginary part {max_imag:.3e} "
            f"(> {IMAG_TOL}); the spectrum is not real"
        )
    return np.array(sorted((z.real for z in roots), reverse=True))
