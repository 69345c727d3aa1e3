"""Independent ground truth for the two-atom state.

Instead of the ten weighted trigonometric sums, this module writes out the
full joint pure state of (atom 1, atom 2, field) in a truncated Fock basis
and traces the field out numerically.  The joint state is the closed-form
solution of two sequential resonant Jaynes-Cummings transits starting from
both atoms excited: a field component with n photons and amplitude
A_n = sqrt(P_n) spreads over four branches,

    ee keeps n photons with weight cos^2(sqrt(n+1) gt),
    eg and ge hold n+1 photons, gg holds n+2,

so the photon index range extends two past the distribution cutoff.  Agreement
of the traced-out matrix with `dynamics.assemble_rho` validates both paths
end to end.

A second, independent eigenvalue oracle is included: the characteristic
quartic of a 4x4 matrix, expanded by Faddeev-LeVerrier and solved by a
Durand-Kerner iteration in extended precision with multiplicity-aware
polishing.  It cross-checks the LAPACK route used by `entanglement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_rabi_angle
from .errors import NumericsError
from .fields import PhotonDistribution

_EPS_LD = float(np.finfo(np.longdouble).eps)
_DK_MAX_ITER = 400
_CLUSTER_TOL = 2e-8
IMAG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """Real amplitude table over (atom1 level, atom2 level, photon number).

    Level index 0 is the excited state, 1 the ground state; the photon axis
    runs from 0 to n_max + 2 of the source distribution.
    """

    amps: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amps, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm_squared(self) -> float:
        return math.fsum(self.amps.ravel() ** 2)


def tripartite_state(dist: PhotonDistribution, gt: float) -> TripartiteState:
    """Joint atom-atom-field state after both transits at Rabi angle gt."""
    _check_rabi_angle(gt)
    p = dist.probs
    amps = np.zeros((2, 2, len(p) + 2))
    for n in range(len(p)):
        if p[n] == 0.0:
            continue
        a = math.sqrt(p[n])
        t1 = gt * math.sqrt(n + 1.0)
        t2 = gt * math.sqrt(n + 2.0)
        c1, s1 = math.cos(t1), math.sin(t1)
        c2, s2 = math.cos(t2), math.sin(t2)
        amps[0, 0, n] = a * c1 * c1
        amps[0, 1, n + 1] = a * c1 * s1
        amps[1, 0, n + 1] = a * c2 * s1
        amps[1, 1, n + 2] = a * s1 * s2
    return TripartiteState(amps)


def trace_out_field(state: TripartiteState) -> np.ndarray:
    """Partial trace over the photon index: rho_ij = sum_n v_i(n) v_j(n).

    Rows/columns follow dynamics.BASIS; the Gram construction makes the
    output symmetric by construction and positive semidefinite up to roundoff.
    """
    v = state.amps.reshape(4, -1)
    rho = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            rho[i, j] = rho[j, i] = math.fsum(v[i] * v[j])
    return rho


# --- characteristic-quartic eigenvalue oracle -------------------------------


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
