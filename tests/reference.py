"""Reference evaluations that more than one test module checks against.

Each reference takes its formula from the textbook or the paper, not from
`cavent`: the log-space Poissonian, the spectrum of rho * (Y rho Y) by the
eigenvector route, the negativity of the partial transpose, a local
rotation, and the 40-digit concurrence and entanglement of formation.
`exact_rho` is the arithmetic yardstick of the density matrix: the
four-branch amplitude table in 30-digit arithmetic from the program's own
photon distribution, so that it measures the error of the rho and C steps
alone.  `reference_field` is the field at a reference (mean, r), built by the
program.  mpmath is a test-only dependency; the references that need it
skip the calling test when it is missing.
"""

import math

import numpy as np
import pytest

from cavent import SqueezedParams, solve_alpha_for_mean, squeezed_distribution
from quartic_oracle import SPIN_FLIP


def poisson_reference(mean, n_max):
    """Independent log-space Poissonian, the textbook formula term by term."""
    if mean == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.array(
        [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(n_max + 1)]
    )


def eigh_route_spectrum(rho):
    """|eigenvalues| of W^T Y W, ascending, with W = V sqrt(max(D, 0)) from the
    eigendecomposition rho = V D V^T: the square roots of the spectrum of
    rho * (Y rho Y), its eigenvalues clamped to zero."""
    values, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(np.maximum(values, 0.0))
    return np.sort(np.abs(np.linalg.eigvalsh(w.T @ SPIN_FLIP @ w)))


def negativity(rho):
    """N = 2 max(0, -lowest eigenvalue of rho^T_B) for a (..., 4, 4) stack: the
    partial transpose over the second atom swaps its bra and ket indices.
    It shares no formula with the spin flip: a two-qubit rho is entangled
    if and only if N > 0 (Peres, PRL 77, 1413 (1996); Horodecki, Horodecki
    and Horodecki, PLA 223, 1 (1996)), and
    sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C (Verstraete, Audenaert,
    Dehaene and De Moor, J. Phys. A 34, 10327 (2001))."""
    rho = np.asarray(rho)
    split = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    partial = np.swapaxes(split, -3, -1).reshape(rho.shape)
    return 2.0 * np.maximum(0.0, -np.linalg.eigvalsh(partial)[..., 0])


def rotated(rho, theta1, theta2):
    """Conjugate by a product of real single-qubit rotations (a local unitary)."""

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    u = np.kron(rot(theta1), rot(theta2))
    return u @ rho @ u.T


def reference_field(mean, r):
    """The field of mean photon number `mean` at squeezing r; at r = 0 the
    coherent field of `compare`."""
    return squeezed_distribution(SqueezedParams(solve_alpha_for_mean(mean, r), r))


def exact_concurrence(rho):
    """C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) from the eigenvalues
    of the non-symmetric product rho * (Y rho Y) in 40-digit arithmetic, as an
    mpmath number.  rho is a 4x4 numpy array or mpmath matrix."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.matrix(rho.tolist())
        flip = mpmath.matrix(SPIN_FLIP.tolist())
        lam = mpmath.eig(m * flip * m * flip, left=False, right=False)
        rt = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in lam), reverse=True)
        return max(0, rt[0] - rt[1] - rt[2] - rt[3])


def reference_concurrence(rho):
    """exact_concurrence rounded to a float."""
    return float(exact_concurrence(rho))


def exact_eof(c):
    """E_F = h((1 + sqrt(1 - C^2)) / 2), h the binary entropy, in 40-digit
    arithmetic, as an mpmath number; c is a float or an mpmath number."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        if c == 0:
            return c
        x = (1 + mpmath.sqrt(1 - c**2)) / 2
        return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def exact_rho(dist, gt):
    """The two-atom density matrix at one Rabi angle gt, as a 30-digit mpmath
    matrix, from the photon distribution's own doubles.

    Both atoms enter excited; a field component with n photons and amplitude
    sqrt(P_n) spreads over four branches (ee with n photons, eg and ge with
    n + 1, gg with n + 2) weighted by cos and sin of gt sqrt(n + 1) and
    gt sqrt(n + 2).  The trig of the exact phases and every sum of products
    over the photon number are evaluated at 30 digits, so the matrix is
    exact to far below double roundoff.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        phase = [mpmath.mpf(gt) * mpmath.sqrt(k) for k in range(1, len(dist.probs) + 2)]
        cos = [mpmath.cos(x) for x in phase]
        sin = [mpmath.sin(x) for x in phase]
        # each branch over the photon numbers 0 .. n_max + 2
        pad = [mpmath.mpf(0)]
        ee, eg, ge, gg = [], pad[:], pad[:], pad * 2
        for n, p in enumerate(dist.probs.tolist()):
            a = mpmath.sqrt(p)
            ee.append(a * cos[n] * cos[n])
            eg.append(a * cos[n] * sin[n])
            ge.append(a * cos[n + 1] * sin[n])
            gg.append(a * sin[n] * sin[n + 1])
        branches = [ee + pad * 2, eg + pad, ge + pad, gg]
        rho = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(i, 4):
                rho[i, j] = rho[j, i] = mpmath.fdot(branches[i], branches[j])
        return rho
