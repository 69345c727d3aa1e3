"""Property tests of the concurrence and the two-atom density matrix.

hypothesis is a test-only dependency.  Examples are derandomized and no
example database is written, so every run checks the same inputs.
"""

import math

import numpy as np
import pytest

from cavent import (
    SqueezedParams,
    assemble_rho,
    concurrence,
    gamma_coefficients,
    squeezed_distribution,
)
from reference import rotated

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

settings = hypothesis.settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)

entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
gram_factors = st.lists(entries, min_size=16, max_size=16)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False)
amplitudes = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
# means up to ~1000, where the gamma sums skip the dead head (alpha >~ 8.5)
bright_amplitudes = st.floats(8.5, 31.6, allow_nan=False, allow_infinity=False)
squeezings = st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False)
rabi_angles = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)


def density(factors, mixing):
    """(1 - mixing) G G^T / tr + mixing I / 4: a density matrix whose smallest
    eigenvalue is at least mixing / 4."""
    g = np.array(factors).reshape(4, 4)
    gram = g @ g.T
    trace = np.trace(gram)
    pure = gram / trace if trace > 0.0 else np.eye(4) / 4.0
    return (1.0 - mixing) * pure + mixing * np.eye(4) / 4.0


@settings
@hypothesis.given(gram_factors, st.floats(0.0, 1.0))
def test_concurrence_lies_in_unit_interval(factors, mixing):
    assert 0.0 <= concurrence(density(factors, mixing)) <= 1.0


@settings
@hypothesis.given(gram_factors, st.floats(0.01, 1.0), angles, angles)
def test_concurrence_invariant_under_local_rotations(factors, mixing, theta1, theta2):
    # mixing >= 0.01 keeps rho full rank: at a rank-deficient rho, C moves by
    # about the square root of a perturbation, so roundoff alone is not small
    rho = density(factors, mixing)
    turned = rotated(rho, theta1, theta2)
    turned = 0.5 * (turned + turned.T)
    assert concurrence(turned) == pytest.approx(concurrence(rho), abs=1e-10)


@settings
@hypothesis.given(amplitudes, squeezings, rabi_angles)
def test_rho_is_a_density_matrix(alpha, r, gt):
    rho = assemble_rho(gamma_coefficients(squeezed_distribution(SqueezedParams(alpha, r)), gt))
    assert np.array_equal(rho, rho.T)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10


@settings
@hypothesis.given(
    st.one_of(amplitudes, bright_amplitudes),
    squeezings,
    st.lists(rabi_angles, min_size=1, max_size=40),
)
def test_batched_equals_per_point(alpha, r, grid):
    dist = squeezed_distribution(SqueezedParams(alpha, r))
    batched = assemble_rho(gamma_coefficients(dist, np.array(grid)))
    per_point = np.array([assemble_rho(gamma_coefficients(dist, gt)) for gt in grid])
    assert np.array_equal(batched, per_point)
    assert np.array_equal(concurrence(batched), [concurrence(rho) for rho in per_point])
