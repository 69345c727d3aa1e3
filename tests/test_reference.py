"""Concurrence against a 40-digit evaluation of a density matrix.

The reference takes the textbook definition directly: the eigenvalues of the
non-symmetric product rho * (Y rho Y) in 40-digit arithmetic, then
C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)).  At that precision the
square roots of tiny eigenvalues are exact to far below double roundoff.
Evaluated on the program's own rho, the comparison measures the error of the
double-precision concurrence route alone; evaluated on the Fock oracle's rho,
whose entries are within 8.9e-16 of exactly rounded (math.fsum) sums over the
field and whose trig factors are libm's cos and sin, it also measures the
error of the gamma sums' dot products and of their tangent-derived trig
factors.  mpmath is a test-only dependency.
"""

import numpy as np
import pytest

from cavent import (
    SqueezedParams,
    assemble_rho,
    concurrence,
    gamma_coefficients,
    solve_alpha_for_mean,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)

mpmath = pytest.importorskip("mpmath")

REFERENCE_TOL = 1e-14

# (field, mean, r, gt_end, steps): the compare --mean 400 --r 1 --gt-end 50
# --steps 128 fields, the oracle-check --field squeezed --mean 50 --r 1
# --gt-end 50 --steps 512 field and the compare --mean 0.3 --r 0.5 --steps 512
# fields
CONFIGS = {
    "coherent-400": ("coherent", 400.0, 0.0, 50.0, 128),
    "squeezed-400": ("squeezed", 400.0, 1.0, 50.0, 128),
    "squeezed-50": ("squeezed", 50.0, 1.0, 50.0, 512),
    "coherent-0.3": ("coherent", 0.3, 0.0, 10.0, 512),
    "squeezed-0.3": ("squeezed", 0.3, 0.5, 10.0, 512),
}


def _grid(name):
    # a coherent field is the squeezed field at r = 0
    _, mean, r, gt_end, steps = CONFIGS[name]
    dist = squeezed_distribution(SqueezedParams(solve_alpha_for_mean(mean, r), r))
    return dist, np.linspace(0.0, gt_end, steps)


def reference_concurrence(rho):
    with mpmath.workdps(40):
        m = mpmath.matrix(rho.tolist())
        flip = mpmath.matrix(4, 4)
        for i, sign in enumerate((-1, 1, 1, -1)):
            flip[i, 3 - i] = sign
        lam = mpmath.eig(m * flip * m * flip, left=False, right=False)
        rt = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in lam), reverse=True)
        return float(max(0, rt[0] - rt[1] - rt[2] - rt[3]))


# the grid points where the symmetrized sqrt(rho) route erred most:
# 2.6e-10, 5.0e-11 and 4.6e-13 from the reference
@pytest.mark.parametrize(
    "name,index", [("coherent-400", 3), ("squeezed-400", 5), ("squeezed-50", 4)]
)
def test_worst_points_of_the_square_root_route(name, index):
    dist, grid = _grid(name)
    rho = assemble_rho(gamma_coefficients(dist, float(grid[index])))
    assert abs(concurrence(rho) - reference_concurrence(rho)) < REFERENCE_TOL


# at gt ~ 4.7554, where C ~ 0.043 and rho has eigenvalues down to 1e-5, a
# factor W = V sqrt(D) from the eigenvectors of rho erred by 2.6e-14; the
# pivoted Cholesky factor takes no square root of an eigenvalue
def test_worst_point_of_the_dim_coherent_field():
    dist, grid = _grid("coherent-0.3")
    rho = assemble_rho(gamma_coefficients(dist, float(grid[243])))
    assert abs(concurrence(rho) - reference_concurrence(rho)) < REFERENCE_TOL


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_strided_grid(name):
    dist, grid = _grid(name)
    for gt in grid[1::16]:
        rho = assemble_rho(gamma_coefficients(dist, float(gt)))
        assert abs(concurrence(rho) - reference_concurrence(rho)) < REFERENCE_TOL


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_strided_grid_against_the_fock_oracle(name):
    dist, grid = _grid(name)
    strided = grid[1::16]
    values = concurrence(assemble_rho(gamma_coefficients(dist, strided)))
    for gt, c in zip(strided.tolist(), values.tolist()):
        rho = trace_out_field(tripartite_state(dist, gt))
        assert abs(c - reference_concurrence(rho)) < REFERENCE_TOL
