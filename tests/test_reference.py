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
rho and C steps together: the program's rho and C are each compared with it,
and so is every C and E_F cell as the CSV prints it.  The negativity of the
partial transpose brackets the program's C by a route that shares no formula
with the spin flip.  mpmath is a test-only dependency.
"""

import numpy as np
import pytest

from cavent import (
    assemble_rho,
    concurrence,
    eof_from_concurrence,
    gamma_coefficients,
    trace_out_field,
    tripartite_state,
)
from cavent.cli import _fmt
from reference import (
    exact_concurrence,
    exact_eof,
    exact_rho,
    negativity,
    reference_concurrence,
    reference_field,
)

mpmath = pytest.importorskip("mpmath")

REFERENCE_TOL = 1e-14
# the program's rho and C against the exact branch table of the same
# photon distribution; the worst readings, both at mean 400, r 1, are
# 1.36e-14 in rho and 1.10e-14 in C
YARDSTICK_TOL = 2e-14
# a printed cell against the 40-digit value, in units of its 12th significant
# digit; the worst readings are 0.49 for C and 0.55 for E_F (131 for E_F
# while 1 - x cancelled)
PRINTED_UNITS = 2.0
# the negativity bounds hold within this; C and N read above ZERO_BAND at
# the same points, the smallest such C being 5.1e-4
BOUND_SLACK = 1e-14
ZERO_BAND = 1e-9

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


def last_digit_units(printed, exact):
    """|printed - exact| in units of the 12th significant digit of exact, a
    40-digit mpmath number; an exact zero must print as 0."""
    if exact == 0:
        return 0.0 if float(printed) == 0.0 else float("inf")
    with mpmath.workdps(40):
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(exact))) - 11)
        return float(abs(mpmath.mpf(printed) - exact) / unit)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_printed_cells_of_the_strided_grid(name):
    dist, grid = _grid(name)
    strided = grid[1::16]
    values = concurrence(assemble_rho(gamma_coefficients(dist, strided)))
    eof = eof_from_concurrence(values)
    for gt, c, e in zip(strided.tolist(), values.tolist(), eof.tolist()):
        exact = exact_concurrence(exact_rho(dist, gt))
        assert last_digit_units(_fmt(c), exact) <= PRINTED_UNITS
        assert last_digit_units(_fmt(e), exact_eof(exact)) <= PRINTED_UNITS


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_negativity_brackets_the_concurrence(name):
    dist, grid = _grid(name)
    rho = assemble_rho(gamma_coefficients(dist, grid[1::16]))
    c = concurrence(rho)
    n = negativity(rho)
    assert np.all(np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c) <= n + BOUND_SLACK)
    assert np.all(n <= c + BOUND_SLACK)
    # entangled by one criterion exactly where entangled by the other
    assert np.array_equal(c > ZERO_BAND, n > ZERO_BAND)
