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

The oracle keeps numpy's libm cos and sin on purpose, while the gamma sums
derive theirs from one tangent of each half phase (see `cavent.dynamics`),
so the two paths share no trigonometry and a fault in either shows.

Like `dynamics.gamma_coefficients`, the state is built for one angle or a
whole grid of angles at once, and the partial trace is one BLAS product per
angle of a stack (see `trace_out_field`).  An angle's state and trace are the
same bits whichever grid it sits in.
"""

from __future__ import annotations

import numpy as np

from .dynamics import _check_angles
from .errors import ParameterError, _real_array
from .fields import PhotonDistribution


def tripartite_state(dist: PhotonDistribution, gt: float | np.ndarray) -> np.ndarray:
    """Joint atom-atom-field state after both transits at Rabi angle gt.

    The state is a read-only real amplitude table over (atom1 level, atom2
    level, photon number).  Level index 0 is the excited state, 1 the ground
    state; the photon axis runs from 0 to n_max + 2 of the source
    distribution.  gt is one angle, giving a (2, 2, n_max + 3) table, or a
    1-D array of G angles, giving a (G, 2, 2, n_max + 3) stack.  Raises
    ParameterError for a complex, negative or non-finite angle or a grid of
    more than one dimension, and NumericsError for an angle too large for its
    phases to carry correct digits (see dynamics.PHASE_TOL).
    """
    p = dist.probs
    levels = len(p)
    grid = _check_angles(gt, levels)
    a = np.sqrt(p)
    # one libm cosine and one sine pass over gt*sqrt(k), k = 1 .. n_max + 2;
    # the windows starting at k = 1 and k = 2 hold the n + 1 and n + 2
    # phases; the sines overwrite the phases, which are not needed after them
    phase = grid[..., None] * np.sqrt(np.arange(1.0, levels + 2.0))
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    c1, s1 = cos[..., :levels], sin[..., :levels]
    c2, s2 = cos[..., 1:], sin[..., 1:]
    amps = np.zeros(grid.shape + (2, 2, levels + 2))
    amps[..., 0, 0, :levels] = a * c1 * c1
    amps[..., 0, 1, 1:levels + 1] = a * c1 * s1
    amps[..., 1, 0, 1:levels + 1] = a * c2 * s1
    amps[..., 1, 1, 2:] = a * s1 * s2
    amps.setflags(write=False)
    return amps


def trace_out_field(amps: np.ndarray) -> np.ndarray:
    """Partial trace over the photon index: rho_ij = sum_n v_i(n) v_j(n).

    amps is an amplitude table or stack as `tripartite_state` returns it, or
    an array-like of one.
    One angle gives a (4, 4) matrix, a stack of G angles a (G, 4, 4) stack.
    Rows/columns follow dynamics.BASIS.  rho = v v^T on the (4, n_max + 3)
    view v of the amplitude table, which numpy evaluates as one BLAS dsyrk
    call per angle and mirrors from one triangle, so the output is exactly
    symmetric and positive semidefinite up to roundoff.  Each angle is its
    own BLAS call, so its bits do not depend on the stack; they depend on the
    BLAS build, as the concurrence's already depend on the LAPACK build.  On
    the reference grids (means 0.3, 50 and 400) the entries differ from
    exactly rounded sums (math.fsum) of the same products by at most 8.9e-16.
    Entries that are not real numbers (a complex, bool or string table; see
    errors._real_array), or an input of another shape than (..., 2, 2, n),
    raise ParameterError: the table is real, and v v^T takes no conjugate.
    """
    amps = _real_array(amps, "amplitude table")
    if amps.ndim < 3 or amps.shape[-3:-1] != (2, 2):
        raise ParameterError(f"expected a (..., 2, 2, n) amplitude table, got shape {amps.shape}")
    # the photon-axis length is given, not -1, so that an empty grid reshapes
    v = amps.reshape(amps.shape[:-3] + (4, amps.shape[-1]))
    return v @ np.swapaxes(v, -1, -2)
