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
factors.  Evaluated on `exact_rho`, the four-branch table of the program's
own photon distribution in 30-digit arithmetic, it is the yardstick of the
rho and C steps together: the program's rho and C are each compared with it.
mpmath is a test-only dependency.
"""

import numpy as np
import pytest

from cavent import (
    assemble_rho,
    concurrence,
    gamma_coefficients,
    trace_out_field,
    tripartite_state,
)
from reference import exact_rho, reference_concurrence, reference_field

mpmath = pytest.importorskip("mpmath")

REFERENCE_TOL = 1e-14
# the program's rho and C against the exact branch table of the same
# photon distribution; the worst readings, both at mean 400, r 1, are
# 1.36e-14 in rho and 1.10e-14 in C
YARDSTICK_TOL = 2e-14

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
    return reference_field(mean, r), np.linspace(0.0, gt_end, steps)


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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_strided_grid_against_the_exact_branch_table(name):
    dist, grid = _grid(name)
    strided = grid[1::len(grid) // 16]
    rho = assemble_rho(gamma_coefficients(dist, strided))
    values = concurrence(rho)
    for gt, program, c in zip(strided.tolist(), rho.tolist(), values.tolist()):
        exact = exact_rho(dist, gt)
        deviation = max(abs(exact[i, j] - program[i][j]) for i in range(4) for j in range(4))
        assert deviation < YARDSTICK_TOL
        assert abs(c - reference_concurrence(exact)) < YARDSTICK_TOL
