"""Two-atom reduced density matrix after sequential resonant Jaynes-Cummings transits.

Both atoms enter the single-mode cavity in the excited state, one after the
other, each interacting for the same Rabi angle ``gt`` (coupling constant
times transit time; the two never appear separately).  Tracing the field out
of the joint state leaves a real symmetric 4x4 density matrix in the ordered
product basis

    BASIS = (|e1 e2>, |e1 g2>, |g1 e2>, |g1 g2>)

whose ten independent entries are weighted trigonometric sums over the photon
distribution.  Populations carry weight P_n; coherences between branches that
differ by one (two) photon emissions carry weight sqrt(P_n P_{n-1})
(sqrt(P_n P_{n-2})), with out-of-range indices contributing zero.

A whole grid of angles is evaluated at once, in blocks of about 4096
(angle, n) terms so that peak memory does not grow with the grid.  Every sum
runs over ascending n and is reduced by numpy's pairwise summation along the
contiguous n axis, separately for each angle, so an angle's sums do not
depend on the grid around it.  On the reference grids (means 0.3, 50 and
400) the entries differ from exactly rounded sums (math.fsum) of the same
terms by at most 3.3e-16.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ParameterError
from .fields import PhotonDistribution

BASIS = ("ee", "eg", "ge", "gg")

_EPS = float(np.finfo(float).eps)

# A phase gt*sqrt(n) carries an absolute rounding error of about
# eps*gt*sqrt(n), and so do the trigonometric factors and the density matrix
# built from them.  Angles whose largest phase error exceeds this bound, the
# concurrence tolerance of the oracle check (cli.CONCURRENCE_CHECK_TOL), are
# refused.
PHASE_TOL = 1e-8

# gt x n elements per block of trigonometric factors; bounds peak memory
# independently of the grid length
_BLOCK_ELEMENTS = 4096


class GammaCoefficients(NamedTuple):
    """The ten real sums filling the two-atom density matrix.

    g1, g2, g3, g5 are the populations of ee, eg, ge, gg (their sum is the
    trace); g4 and g6..g10 are the coherences.  Each field is a float for one
    Rabi angle and a (G,) array for a grid of G angles.
    """

    g1: float | np.ndarray
    g2: float | np.ndarray
    g3: float | np.ndarray
    g4: float | np.ndarray
    g5: float | np.ndarray
    g6: float | np.ndarray
    g7: float | np.ndarray
    g8: float | np.ndarray
    g9: float | np.ndarray
    g10: float | np.ndarray


def _check_rabi_angle(gt) -> np.ndarray:
    """gt, one angle or an array of them, as a float array; every angle must be
    finite and >= 0."""
    grid = np.asarray(gt, dtype=float)
    finite = np.isfinite(grid)
    if not np.all(finite):
        raise ParameterError(f"gt must be finite, got {float(grid[~finite].flat[0])!r}")
    if np.any(grid < 0.0):
        raise ParameterError(f"gt must be >= 0, got {float(grid[grid < 0.0].flat[0])}")
    return grid


def _check_phase_precision(grid, levels):
    """Refuse angles whose largest phase gt*sqrt(n_max + 2) carries an absolute
    rounding error above PHASE_TOL."""
    phase_error = float(np.max(grid, initial=0.0)) * math.sqrt(levels + 1) * _EPS
    if phase_error > PHASE_TOL:
        raise NumericsError(
            f"gt up to {float(np.max(grid))!r} is too large for double precision: "
            f"the phases gt*sqrt(n) at n_max = {levels - 1} carry a rounding error "
            f"of {phase_error:.3g}, above {PHASE_TOL}"
        )


def _block_sums(gt, p, w1, w2, roots):
    """The ten sums for a (rows, 1) block of angles, each reduced along n.

    roots[j] = sqrt(j - 1), with sqrt(-1) read as 0, so the windows of
    length n_max + 1 starting at j = 0, 1, 2, 3 hold the phases of n - 1, n,
    n + 1 and n + 2 photons: one cosine and one sine pass serve all four.
    """
    phase = gt * roots
    cos, sin = np.cos(phase), np.sin(phase)
    levels = len(p)
    c0, s0 = cos[:, 1:levels + 1], sin[:, 1:levels + 1]
    c1, s1 = cos[:, 2:levels + 2], sin[:, 2:levels + 2]
    c2, s2 = cos[:, 3:], sin[:, 3:]
    sm = sin[:, :levels]
    c1c1 = c1 * c1
    s1s1 = s1 * s1
    pop = p * s1s1
    coh = w1 * s0

    def total(terms):
        return np.sum(terms, axis=-1)

    return (
        total(p * c1c1 * c1c1),
        total(pop * c1c1),
        total(pop * c2 * c2),
        total(pop * c1 * c2),
        total(pop * s2 * s2),
        total(w2 * c1c1 * s0 * sm),
        total(coh * c1c1 * c0),
        total(coh * c1c1 * c1),
        total(coh * s1s1 * c1),
        total(coh * s1s1 * c2),
    )


def gamma_coefficients(dist: PhotonDistribution, gt: float | np.ndarray) -> GammaCoefficients:
    """Evaluate the ten density-matrix sums for one photon distribution.

    gt is one Rabi angle, giving float fields, or a 1-D array of G angles,
    giving (G,) array fields.  Each angle's sums are the same bits whichever
    grid it sits in.  Raises ParameterError for a negative or non-finite
    angle and NumericsError for an angle too large for its phases to carry
    correct digits (see PHASE_TOL).
    """
    grid = _check_rabi_angle(gt)
    if grid.ndim > 1:
        raise ParameterError(f"gt must be a scalar or a 1-D array, got shape {grid.shape}")
    p = dist.probs
    _check_phase_precision(grid, len(p))
    roots = np.sqrt(np.maximum(np.arange(-1.0, len(p) + 2.0), 0.0))

    # one- and two-photon coherence weights; zero where the index underflows
    w1 = np.zeros_like(p)
    w1[1:] = np.sqrt(p[1:] * p[:-1])
    w2 = np.zeros_like(p)
    w2[2:] = np.sqrt(p[2:] * p[:-2])

    angles = grid.reshape(-1, 1)
    rows = max(1, _BLOCK_ELEMENTS // len(p))
    sums = np.empty((10, len(angles)))
    for start in range(0, len(angles), rows):
        sums[:, start:start + rows] = _block_sums(angles[start:start + rows], p, w1, w2, roots)
    if grid.ndim == 0:
        return GammaCoefficients(*(float(s[0]) for s in sums))
    return GammaCoefficients(*sums)


def assemble_rho(g: GammaCoefficients) -> np.ndarray:
    """Lay the ten coefficients out as the symmetric 4x4 density matrix.

    Row/column order is BASIS; diagonal (g1, g2, g3, g5), upper off-diagonals
    (1,2)=g7, (1,3)=g8, (1,4)=g6, (2,3)=g4, (2,4)=g9, (3,4)=g10 (1-indexed),
    mirrored below.  Float coefficients give one (4, 4) matrix, (G,) array
    coefficients a (G, 4, 4) stack.
    """
    rows = (
        (g.g1, g.g7, g.g8, g.g6),
        (g.g7, g.g2, g.g4, g.g9),
        (g.g8, g.g4, g.g3, g.g10),
        (g.g6, g.g9, g.g10, g.g5),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
