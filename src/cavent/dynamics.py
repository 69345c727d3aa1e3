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
`gamma_coefficients` returns them as rho's upper triangle in row-major
(np.triu_indices(4)) order,

    rho_00, rho_01, rho_02, rho_03, rho_11, rho_12, rho_13, rho_22, rho_23, rho_33,

and `assemble_rho` mirrors that triangle into the matrix.

The sums skip the numerically dead head of a bright distribution.  They start
at L = max(0, c - 2), where c is the first n whose cumulative mass exceeds
eps^2 (eps = 2^-52); the weights of the first kept terms are built from the
kept range alone, so sqrt(P_L P_{L-1}), sqrt(P_L P_{L-2}) and
sqrt(P_{L+1} P_{L-1}) read zero as at n = 0.  Every dropped term or factor is
at most eps^2, so each entry moves by at most ~2 eps^2 (~1e-31) from the
full-range sum.  At <n> = 400 this skips 277 of 506 squeezed (r = 1) and 188
of 560 coherent photon numbers; a dim field (P_0 > eps^2) skips none.

Each cosine and sine comes from one tangent of the half phase: with
t = tan(gt sqrt(k) / 2), cos = (1 - t^2) / (1 + t^2) and
sin = 2t / (1 + t^2).  On AVX-512 CPUs numpy evaluates float64 tan as a
SIMD loop, several times faster than its cos and sin.  The derived factors
are within 2.2e-16 of the exact cosine and sine of the double phase (libm's
are within 5.6e-17), far below the phase's own rounding error
eps*gt*sqrt(k) (see PHASE_TOL).  The Fock oracle keeps libm's cos and sin,
so the two paths share no trig.

A whole grid of angles is evaluated at once, in blocks of about 4096
(angle, n) terms so that peak memory does not grow with the grid.  Each sum
is one dot product along the contiguous n axis (np.vecdot) of its last
factor with the product of the others, so the last multiply and the sum are
one pass.  Every angle's dot product is its own BLAS call and every
element's tangent depends on its phase alone, so an angle's sums do not
depend on the grid around it.  Their bits depend on the BLAS build and on
numpy's SIMD dispatch for tan, as the concurrence's already depend on the
LAPACK build.  On the reference grids (means 0.3, 50 and 400) the entries
differ from exactly rounded sums (math.fsum) of the same terms by at most
4.4e-16, and from exactly rounded sums of terms built from libm's cos and
sin by at most 7.8e-16.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, ParameterError, _real_array
from .fields import PhotonDistribution

BASIS = ("ee", "eg", "ge", "gg")

_EPS = float(np.finfo(float).eps)

# A phase gt*sqrt(n) carries an absolute rounding error of about
# eps*gt*sqrt(n), and so do the trigonometric factors and the density matrix
# built from them; deriving the factors from tan(phase / 2) adds at most
# 2.2e-16 per factor.  Angles whose largest phase error exceeds this bound, the
# concurrence tolerance of the oracle check (cli.CONCURRENCE_CHECK_TOL), are
# refused.
PHASE_TOL = 1e-8

# gt x n elements per block of trigonometric factors; bounds peak memory
# independently of the grid length
_BLOCK_ELEMENTS = 4096

# _MIRROR[i, j] is the position of rho_ij = rho_ji in the upper triangle
_MIRROR = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])


def _check_angles(gt, levels) -> np.ndarray:
    """gt, one angle or a 1-D array of them, as a float array.

    Raises ParameterError for a complex, non-finite or negative angle, one
    that is not a number (a bool, a string, None), or a grid of more than one
    dimension, and NumericsError for angles whose largest phase
    gt*sqrt(n_max + 2), over `levels` = n_max + 1 photon numbers, carries an
    absolute rounding error above PHASE_TOL.
    """
    grid = _real_array(gt, "gt")
    finite = np.isfinite(grid)
    if not np.all(finite):
        raise ParameterError(f"gt must be finite, got {float(grid[~finite].flat[0])!r}")
    if np.any(grid < 0.0):
        raise ParameterError(f"gt must be >= 0, got {float(grid[grid < 0.0].flat[0])}")
    if grid.ndim > 1:
        raise ParameterError(f"gt must be a scalar or a 1-D array, got shape {grid.shape}")
    phase_error = float(np.max(grid, initial=0.0)) * math.sqrt(levels + 1) * _EPS
    if phase_error > PHASE_TOL:
        raise NumericsError(
            f"gt up to {float(np.max(grid))!r} is too large for double precision: "
            f"the phases gt*sqrt(n) at n_max = {levels - 1} carry a rounding error "
            f"of {phase_error:.3g}, above {PHASE_TOL}"
        )
    return grid


def _blocks(count, levels):
    """Slices that cut a grid of `count` angles into blocks of about
    _BLOCK_ELEMENTS (angle, n) terms over `levels` photon numbers."""
    rows = max(1, _BLOCK_ELEMENTS // levels)
    return [slice(start, start + rows) for start in range(0, count, rows)]


def _cos_sin(phase):
    """cos and sin of an array of phases from one tangent of their halves.

    With t = tan(phase / 2), cos = (1 - t^2) / (1 + t^2) and
    sin = 2t / (1 + t^2), each within 2.2e-16 of the exact value (see the
    module docstring).  Each element's bits depend on its phase alone.  The
    sines overwrite `phase`.
    """
    t = np.tan(np.multiply(phase, 0.5, out=phase), out=phase)
    den = np.square(t)
    cos = np.subtract(1.0, den)
    den += 1.0
    cos /= den
    t *= 2.0
    t /= den
    return cos, t


def _block_sums(gt, p, w1, w2, roots):
    """The ten sums for a (rows, 1) block of angles, each a dot product along n,
    in upper-triangle order.

    p, w1 and w2 hold the kept photon numbers n = first .. n_max, and
    roots[j] = sqrt(first + j - 1), with sqrt(-1) read as 0, so the windows
    of length len(p) starting at j = 0, 1, 2, 3 hold the phases of n - 1, n,
    n + 1 and n + 2 photons: one tangent pass serves all four.
    """
    cos, sin = _cos_sin(gt * roots)
    levels = len(p)
    c0, s0 = cos[:, 1:levels + 1], sin[:, 1:levels + 1]
    c1, s1 = cos[:, 2:levels + 2], sin[:, 2:levels + 2]
    c2, s2 = cos[:, 3:], sin[:, 3:]
    sm = sin[:, :levels]
    # the shared leading products, formed in place where a factor is not
    # needed again (coh_c1c1 starts as w1 * s0, s1s1 becomes pop), so that a
    # block peaks at nine arrays of its (rows, n) size
    c1c1 = c1 * c1
    s1s1 = s1 * s1
    coh_c1c1 = w1 * s0
    coh_s1s1 = coh_c1c1 * s1s1
    coh_c1c1 *= c1c1
    pop = np.multiply(p, s1s1, out=s1s1)
    pop_c2 = pop * c2

    return (
        np.vecdot(p * c1c1, c1c1),
        np.vecdot(coh_c1c1, c0),
        np.vecdot(coh_c1c1, c1),
        np.vecdot(w2 * c1c1 * s0, sm),
        np.vecdot(pop, c1c1),
        np.vecdot(pop_c2, c1),
        np.vecdot(coh_s1s1, c1),
        np.vecdot(pop_c2, c2),
        np.vecdot(coh_s1s1, c2),
        np.vecdot(pop * s2, s2),
    )


def gamma_coefficients(dist: PhotonDistribution, gt: float | np.ndarray) -> np.ndarray:
    """Evaluate the ten density-matrix sums for one photon distribution.

    gt is one Rabi angle, giving a (10,) array, or a 1-D array of G angles,
    giving a (G, 10) array; each row is rho's upper triangle in
    np.triu_indices(4) order (see the module docstring).  Each angle's sums
    are the same bits whichever grid it sits in.  The trig factors come from
    one tangent of each half phase, within 2.2e-16 of the exact cosine and
    sine (see the module docstring).  The sums start at the first photon
    number that can reach a result bit, L = max(0, c - 2) with c the first n
    whose cumulative mass exceeds eps^2, which moves each of them by at most
    ~2 eps^2 from the full-range sum (see the module docstring).  Raises
    ParameterError for a complex, negative or non-finite angle or a grid of
    more than one dimension, and NumericsError for an angle too large for its
    phases to carry correct digits (see PHASE_TOL).
    """
    grid = _check_angles(gt, len(dist.probs))
    first = max(0, int(np.argmax(np.cumsum(dist.probs) > _EPS * _EPS)) - 2)
    p = dist.probs[first:]
    roots = np.sqrt(np.maximum(np.arange(first - 1.0, first + len(p) + 2.0), 0.0))

    # one- and two-photon coherence weights; zero where the index leaves the
    # kept range
    w1 = np.zeros_like(p)
    w1[1:] = np.sqrt(p[1:] * p[:-1])
    w2 = np.zeros_like(p)
    w2[2:] = np.sqrt(p[2:] * p[:-2])

    angles = grid.reshape(-1, 1)
    sums = np.empty((len(angles), 10))
    for block in _blocks(len(angles), len(p)):
        sums[block] = np.stack(_block_sums(angles[block], p, w1, w2, roots), axis=-1)
    return sums.reshape(grid.shape + (10,))


def assemble_rho(triangle) -> np.ndarray:
    """Mirror upper triangles into symmetric 4x4 density matrices.

    triangle is a (..., 10) array-like of rho's upper triangle in
    np.triu_indices(4) order, as `gamma_coefficients` returns it; rows and
    columns follow BASIS.  A (10,) triangle gives one (4, 4) matrix, a
    (G, 10) stack a (G, 4, 4) stack.  Any other last axis, or entries that
    are not real numbers (see errors._real_array), raise ParameterError.
    """
    if np.shape(triangle)[-1:] != (10,):
        raise ParameterError(f"expected a (..., 10) upper triangle, got shape {np.shape(triangle)}")
    return _real_array(triangle, "triangle")[..., _MIRROR]
