import math

import numpy as np
import pytest

from cavent import (
    CoherentParams,
    NumericsError,
    ParameterError,
    assemble_rho,
    binary_entropy,
    coherent_distribution,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    gamma_coefficients,
    quartic_eigenvalues,
    spin_flipped,
)

# -x log2 x - (1-x) log2 (1-x) at x = 0.9, frozen from a direct evaluation
H_OF_09 = 0.46899559358928117


def rotated(rho, theta1, theta2):
    """Conjugate by a product of real single-qubit rotations (a local unitary)."""

    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    u = np.kron(rot(theta1), rot(theta2))
    return u @ rho @ u.T


class TestSpinFlipped:
    def test_product_state(self, product_state):
        assert np.array_equal(spin_flipped(product_state), np.diag([0.0, 0.0, 0.0, 1.0]))

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4.0
        assert np.array_equal(spin_flipped(rho), rho)

    def test_bell_state_is_fixed_point(self, bell_state):
        assert np.array_equal(spin_flipped(bell_state), bell_state)

    def test_involution(self, make_random_density):
        rho = make_random_density(np.random.default_rng(7))
        assert np.array_equal(spin_flipped(spin_flipped(rho)), rho)


class TestConcurrence:
    def test_product_state_is_separable(self, product_state):
        assert concurrence(product_state) == 0.0

    def test_bell_state_is_maximal(self, bell_state):
        assert concurrence(bell_state) == pytest.approx(1.0, abs=1e-10)

    def test_werner_half(self, make_werner):
        assert concurrence(make_werner(0.5)) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.4, 0.5, 0.8, 1.0])
    def test_werner_family_analytic(self, make_werner, p):
        # C = max(0, (3p - 1)/2) for the Werner family
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(make_werner(p)) == pytest.approx(expected, abs=1e-10)

    def test_werner_half_quartic_cross_check(self, make_werner):
        rho = make_werner(0.5)
        lam = np.clip(quartic_eigenvalues(rho @ spin_flipped(rho)), 0.0, None)
        rt = np.sqrt(lam)
        assert rt[0] - rt[1] - rt[2] - rt[3] == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_local_rotation_invariance(self, make_werner, seed):
        rng = np.random.default_rng(seed)
        dist = coherent_distribution(CoherentParams(1.0))
        states = [
            make_werner(0.7),
            assemble_rho(gamma_coefficients(dist, 2.0)),
            assemble_rho(gamma_coefficients(dist, 5.1)),
        ]
        for rho in states:
            reference = concurrence(rho)
            theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            assert concurrence(rotated(rho, theta1, theta2)) == pytest.approx(
                reference, abs=1e-10
            )

    def test_roundoff_negative_eigenvalue_is_clamped(self):
        rho = rotated(np.diag([0.6, 0.4, 5e-9, -5e-9]), 0.3, 0.8)
        assert 0.0 <= concurrence(rho) <= 1.0

    def test_genuinely_negative_eigenvalue_raises(self):
        rho = rotated(np.diag([0.7, 0.4, 0.0, -0.1]), 0.3, 0.8)
        with pytest.raises(NumericsError):
            concurrence(rho)

    def test_rejects_asymmetric_input(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ParameterError):
            concurrence(m)

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            concurrence(np.zeros((3, 4)))

    def test_rejects_non_finite_input(self):
        rho = np.eye(4) / 4.0
        rho[0, 0] = float("nan")
        with pytest.raises(NumericsError):
            concurrence(rho)

    def test_range_on_random_states(self, make_random_density):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = concurrence(make_random_density(rng))
            assert 0.0 <= c <= 1.0

    def test_single_matrix_gives_a_float(self, bell_state):
        assert type(concurrence(bell_state)) is float


class TestStackedConcurrence:
    @pytest.fixture
    def stack(self, make_random_density, make_werner, bell_state, product_state):
        rng = np.random.default_rng(5)
        dist = coherent_distribution(CoherentParams(1.0))
        return np.concatenate(
            [
                np.array([make_random_density(rng) for _ in range(6)]),
                np.array([make_werner(0.2), make_werner(0.8), bell_state, product_state]),
                assemble_rho(gamma_coefficients(dist, np.linspace(0.0, 10.0, 9))),
            ]
        )

    def test_equals_per_matrix_calls(self, stack):
        values = concurrence(stack)
        assert values.shape == (len(stack),)
        assert np.array_equal(values, [concurrence(rho) for rho in stack])

    def test_keeps_leading_shape(self, stack):
        values = concurrence(stack[:12].reshape(3, 4, 4, 4))
        assert values.shape == (3, 4)
        assert np.array_equal(values.ravel(), concurrence(stack[:12]))

    def test_rejects_bad_shapes(self, stack):
        for shape in [(5, 3, 4), (5, 4, 3), (4,), (16,)]:
            with pytest.raises(ParameterError):
                concurrence(np.zeros(shape))

    def test_rejects_one_asymmetric_entry(self, stack):
        stack[7, 0, 1] += 1e-6
        with pytest.raises(ParameterError):
            concurrence(stack)

    def test_rejects_one_negative_spectrum(self, stack):
        stack[3] = rotated(np.diag([0.7, 0.4, 0.0, -0.1]), 0.3, 0.8)
        with pytest.raises(NumericsError):
            concurrence(stack)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_one_non_finite_entry(self, stack, bad):
        stack[11, 2, 2] = bad
        with pytest.raises(NumericsError):
            concurrence(stack)

    def test_clamps_roundoff_in_one_entry(self, stack):
        stack[0] = rotated(np.diag([0.6, 0.4, 5e-9, -5e-9]), 0.3, 0.8)
        values = concurrence(stack)
        assert np.all((0.0 <= values) & (values <= 1.0))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_frozen_value(self):
        assert binary_entropy(0.9) == pytest.approx(H_OF_09, abs=1e-12)

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.47):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)

    def test_tolerates_roundoff_overshoot(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    @pytest.mark.parametrize("x", [-1e-3, 1.001, -2e-11, 1.0 + 2e-11, float("nan")])
    def test_rejects_out_of_domain(self, x):
        with pytest.raises(ParameterError):
            binary_entropy(x)


class TestEntanglementOfFormation:
    def test_extremes(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_frozen_value(self):
        # C = 0.6 maps to h(0.9)
        assert eof_from_concurrence(0.6) == pytest.approx(H_OF_09, abs=1e-12)

    def test_monotone_on_dense_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = [eof_from_concurrence(float(c)) for c in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_composed_results(self, bell_state, product_state, make_werner):
        assert entanglement_of_formation(product_state) == (0.0, 0.0)
        c, eof = entanglement_of_formation(bell_state)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert eof == pytest.approx(1.0, abs=1e-10)
        c, eof = entanglement_of_formation(make_werner(0.5))
        assert c == pytest.approx(0.25, abs=1e-10)
        assert eof == pytest.approx(eof_from_concurrence(0.25), abs=1e-12)
