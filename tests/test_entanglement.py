import itertools
import math

import numpy as np
import pytest

from cavent import (
    NumericsError,
    ParameterError,
    PhotonDistribution,
    SqueezedParams,
    assemble_rho,
    concurrence,
    eof_from_concurrence,
    gamma_coefficients,
    squeezed_distribution,
)
from cavent.entanglement import _pivoted_factor, _sorted_magnitudes
from quartic_oracle import quartic_eigenvalues, spin_flipped
from reference import exact_eof, rotated

# -x log2 x - (1-x) log2 (1-x) at x = 0.9, frozen from a direct evaluation
H_OF_09 = 0.46899559358928117

EPS = 2.0**-52
# the concurrence module's documented accuracy of W W^T = rho, in units of
# eps * max diag(rho), for a positive semidefinite rho
FACTOR_BOUND = 16
# the lowest eigenvalue a kept factor certifies (see the concurrence module)
CERTIFIED = -1.5e-14


def refused_eigenvalue(rho):
    """The eigenvalue `concurrence` names when it refuses rho."""
    with pytest.raises(NumericsError, match="eigenvalue") as info:
        concurrence(rho)
    return float(str(info.value).split()[1])


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

    def test_stack_flips_each_matrix_alone(self, make_random_density):
        rng = np.random.default_rng(11)
        stack = np.array([make_random_density(rng) for _ in range(3)])
        flipped = spin_flipped(stack)
        assert flipped.shape == (3, 4, 4)
        for rho, each in zip(stack, flipped):
            assert np.array_equal(each, spin_flipped(rho))

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 3)])
    def test_rejects_a_non_4x4_shape(self, shape):
        with pytest.raises(ParameterError):
            spin_flipped(np.zeros(shape))


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
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
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

    def test_a_negative_eigenvalue_of_5e_9_is_refused(self):
        # far below the -1.5e-14 that a kept factor certifies
        rho = rotated(np.diag([0.6, 0.4, 5e-9, -5e-9]), 0.3, 0.8)
        assert refused_eigenvalue(rho) == pytest.approx(-5e-9, abs=1e-15)

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

    def test_rejects_complex_input(self):
        # (|eg> + i|ge>) / sqrt(2) has C = 1; its real part alone has C = 0
        psi = np.array([0.0, 1.0, 1.0j, 0.0]) / math.sqrt(2.0)
        with pytest.raises(ParameterError, match="rho must be real"):
            concurrence(np.outer(psi, psi.conj()))

    @pytest.mark.parametrize("dtype", [str, bool, object])
    def test_rejects_entries_that_are_not_numbers(self, bell_state, dtype):
        # bell_state as strings reads as C = 1 once numpy converts it
        with pytest.raises(ParameterError, match="rho must be a real number"):
            concurrence(bell_state.astype(dtype))

    def test_range_on_random_states(self, make_random_density):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = concurrence(make_random_density(rng))
            assert 0.0 <= c <= 1.0

    def test_accepts_nested_lists(self, bell_state, make_werner):
        assert concurrence(bell_state.tolist()) == concurrence(bell_state)
        stack = np.array([bell_state, make_werner(0.5)])
        assert np.array_equal(concurrence(stack.tolist()), concurrence(stack))

    def test_single_matrix_gives_a_float(self, bell_state):
        assert type(concurrence(bell_state)) is float


def rank_two_mixture():
    """(|Psi+><Psi+| + |gg><gg|) / 2 with Psi+ = (|eg> + |ge>)/sqrt(2): C = 1/2."""
    rho = np.zeros((4, 4))
    rho[1, 1] = rho[1, 2] = rho[2, 1] = rho[2, 2] = 0.25
    rho[3, 3] = 0.5
    return rho


def small_pivot_state(d):
    """Eigenvalues about 0.9, 0.1 and +-3.5e-9, which the gate refuses.  The
    pivots go 2, 0, 1: the third pivot, about d, meets an off-diagonal -5e-9
    whose column entry b / sqrt(d) puts b^2 / d on the diagonal of W W^T."""
    rho = np.zeros((4, 4))
    rho[0, 0] = 0.1
    rho[1, 1] = rho[1, 2] = rho[2, 1] = 0.45
    rho[2, 2] = 0.45 + d
    rho[2, 3] = rho[3, 2] = 5e-9
    return rho


def factor_deviation(rho):
    """max |W W^T - rho| / (eps * max diag(rho)) for each matrix of a stack."""
    w, _ = _pivoted_factor(rho)
    deviation = np.abs(w @ np.swapaxes(w, -1, -2) - rho).max(axis=(-2, -1))
    return deviation / (EPS * rho.diagonal(axis1=-2, axis2=-1).max(axis=-1))


class TestPivotedFactor:
    @pytest.fixture
    def states(self, product_state, bell_state):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        # (rho, exact C, rank)
        return {
            "product": (product_state, 0.0, 1),
            "bell": (bell_state, 1.0, 1),
            "gt=0": (assemble_rho(gamma_coefficients(dist, 0.0)), 0.0, 1),
            "rank-2 mixture": (rank_two_mixture(), 0.5, 2),
        }

    @pytest.mark.parametrize("name", ["product", "bell", "gt=0", "rank-2 mixture"])
    def test_low_rank_states(self, states, name):
        rho, exact, rank = states[name]
        assert concurrence(rho) == exact
        w = _pivoted_factor(rho[None])[0][0]
        assert factor_deviation(rho[None])[0] <= FACTOR_BOUND
        # the factorization stops at the rank: the remaining columns are zero
        assert np.count_nonzero(np.abs(w).max(axis=0)) == rank
        assert np.all(w[:, rank:] == 0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_states_of_each_rank(self, rank):
        rng = np.random.default_rng(40 + rank)
        g = rng.standard_normal((2000, 4, rank)) * rng.choice([1.0, 1e-3, 1e-6], (2000, 1, rank))
        rho = g @ np.swapaxes(g, -1, -2)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
        rho = 0.5 * (rho + np.swapaxes(rho, -1, -2))
        assert np.all(factor_deviation(rho) <= FACTOR_BOUND)
        # the remainder check keeps every such factor, so the stack is accepted
        _, left = _pivoted_factor(rho)
        assert np.all(left <= FACTOR_BOUND * EPS * rho.diagonal(axis1=-2, axis2=-1).max(axis=-1))
        values = concurrence(rho)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_stops_at_the_first_pivot_at_or_below_the_tolerance(self):
        # tolerance: 4 * 2^-53 * max diag(rho), the default of LAPACK's dpstrf
        tol = 4 * 2.0**-53
        at = _pivoted_factor(np.diag([1.0, tol, 0.0, 0.0])[None])[0][0]
        above = _pivoted_factor(np.diag([1.0, 2.0 * tol, 0.0, 0.0])[None])[0][0]
        assert np.count_nonzero(at) == 1
        assert np.count_nonzero(above) == 2
        # the tolerance scales with the largest diagonal entry
        scaled = _pivoted_factor(np.diag([0.25, 0.25 * tol, 0.0, 0.0])[None])[0][0]
        assert np.count_nonzero(scaled) == 1

    def test_pivots_on_the_largest_diagonal_entry(self):
        w = _pivoted_factor(np.diag([0.1, 0.2, 0.3, 0.4])[None])[0][0]
        assert np.array_equal(w, np.sqrt(np.diag([0.1, 0.2, 0.3, 0.4]))[:, ::-1])


class TestPositiveSemidefiniteGate:
    def test_refuses_an_eigenvalue_below_the_bound(self):
        rho = rotated(np.diag([0.6, 0.4, 2e-8, -2e-8]), 0.3, 0.8)
        with pytest.raises(NumericsError, match="eigenvalue") as info:
            concurrence(rho)
        # the message names the offending eigenvalue
        named = float(str(info.value).split()[1])
        assert named == pytest.approx(-2e-8, abs=1e-15)

    def test_refuses_it_inside_a_stack(self, make_random_density):
        rng = np.random.default_rng(3)
        stack = np.array([make_random_density(rng) for _ in range(9)])
        stack[6] = rotated(np.diag([0.6, 0.4, 2e-8, -2e-8]), 0.3, 0.8)
        with pytest.raises(NumericsError, match="eigenvalue") as info:
            concurrence(stack)
        assert float(str(info.value).split()[1]) == pytest.approx(-2e-8, abs=1e-15)

    def test_refuses_a_trace_other_than_one(self, bell_state):
        # the trace keeps max diag(rho), and with it the factor check's
        # 16 eps * max diag, near 1; at 1e7 that check would span 3.6e-8
        large = np.diag([1e7, 1e7, 1e7, -2e-8])
        for rho in (0.0 * bell_state, 0.5 * bell_state, 3.0 * bell_state, large):
            with pytest.raises(ParameterError, match="trace") as info:
                concurrence(rho)
            assert float(str(info.value).split()[2]) == np.trace(rho)
            # a stack names its first such trace
            with pytest.raises(ParameterError, match="trace") as info:
                concurrence(np.array([bell_state, rho, 2.0 * bell_state]))
            assert float(str(info.value).split()[2]) == np.trace(rho)

    @pytest.mark.parametrize("drift", [-9e-7, 9e-7])
    def test_accepts_a_trace_within_the_tolerance(self, bell_state, drift):
        assert concurrence((1.0 + drift) * bell_state) == pytest.approx(
            min(1.0 + drift, 1.0), abs=1e-12
        )

    @pytest.mark.parametrize("drift", [-1.1e-6, 1.1e-6])
    def test_refuses_a_trace_just_outside_the_tolerance(self, bell_state, drift):
        with pytest.raises(ParameterError, match="is not 1 within 1e-06"):
            concurrence((1.0 + drift) * bell_state)

    def test_refuses_the_state_of_a_short_distribution(self):
        # a distribution whose kept sum is 0.8 would give a state of trace
        # 0.8; it is refused where it is made
        with pytest.raises(ParameterError, match="must be 1 within 1e-06"):
            PhotonDistribution(np.array([0.5, 0.3]), 0.2)

    def test_a_nan_remainder_is_refused(self, monkeypatch, make_random_density):
        rho = make_random_density(np.random.default_rng(6))
        w = _pivoted_factor(rho[None])[0]
        monkeypatch.setattr(
            "cavent.entanglement._pivoted_factor", lambda stack: (w.copy(), np.full(1, np.nan))
        )
        # the message names the lowest eigenvalue of the matrix that missed
        assert refused_eigenvalue(rho) == np.linalg.eigvalsh(rho[None])[0, 0]

    def test_refuses_5e_9_alone_and_inside_a_stack(self, make_random_density):
        rho = rotated(np.diag([0.6, 0.4, 5e-9, -5e-9]), 0.3, 0.8)
        rng = np.random.default_rng(4)
        stack = np.array([make_random_density(rng) for _ in range(5)] + [rho])
        named = refused_eigenvalue(rho)
        assert named == pytest.approx(-5e-9, abs=1e-15)
        assert refused_eigenvalue(stack) == named


class TestIndefiniteInput:
    @pytest.mark.parametrize("d", [1e-12, 1e-15, 3e-16])
    def test_a_small_pivot_that_blows_up_the_factor_is_refused(self, d):
        rho = small_pivot_state(d)
        _, left = _pivoted_factor(rho[None])
        assert left[0] > 1e-6  # the pivoted factor misses rho
        named = refused_eigenvalue(rho)
        assert named == np.linalg.eigvalsh(rho[None])[0, 0]
        assert named == pytest.approx(-3.5e-9, rel=0.1)

    def test_refuses_exactly_what_the_factor_cannot_certify(self):
        rng = np.random.default_rng(12)
        values = rng.dirichlet(np.ones(4), 3000) * rng.choice([1.0, 0.0], (3000, 4), p=[0.6, 0.4])
        # the negative eigenvalue spans the -1.5e-14 a kept factor certifies
        values[:, 0] = -(10.0 ** rng.uniform(-18.0, -8.0, 3000))
        values[:, 1:] += rng.choice([0.0, 1e-9, 1e-5], (3000, 3))
        # trace 1: rescale the nonnegative eigenvalues, after giving a unit
        # one to each row that has none
        values[~np.any(values[:, 1:] > 0.0, axis=1), 1] = 1.0
        values[:, 1:] *= ((1.0 - values[:, 0]) / values[:, 1:].sum(axis=1))[:, None]
        q, _ = np.linalg.qr(rng.standard_normal((3000, 4, 4)))
        rho = (q * values[:, None, :]) @ np.swapaxes(q, -1, -2)
        rho = 0.5 * (rho + np.swapaxes(rho, -1, -2))
        lowest = np.linalg.eigvalsh(rho)[:, 0]
        kept = np.ones(len(rho), dtype=bool)
        for i, m in enumerate(rho):
            try:
                concurrence(m)
            except NumericsError:
                kept[i] = False
        assert not np.any(kept & (lowest < CERTIFIED - 1e-15))
        assert np.all(lowest[kept] >= CERTIFIED)
        # both sides of the bound occur, and a stack names its lowest miss
        assert 0 < np.count_nonzero(kept) < len(rho)
        assert refused_eigenvalue(rho) == lowest[~kept].min()


class TestInputIsNotModified:
    def test_single_matrix(self, make_random_density):
        rho = make_random_density(np.random.default_rng(8))
        kept = rho.copy()
        concurrence(rho)
        assert np.array_equal(rho, kept)

    def test_stack_of_one_moved_from_another_axis(self, make_random_density):
        # a (4, 4, 1) array with its last axis moved to the front is a
        # C-contiguous (1, 4, 4) view of the caller's memory
        base = make_random_density(np.random.default_rng(9))[:, :, None].copy()
        stack = np.moveaxis(base, -1, 0)
        assert stack.flags.c_contiguous and np.shares_memory(stack, base)
        kept = base.copy()
        concurrence(stack)
        assert np.array_equal(base, kept)

    def test_read_only_input(self, make_random_density):
        rng = np.random.default_rng(10)
        stack = np.array([make_random_density(rng) for _ in range(3)])
        expected = concurrence(stack.copy())
        stack.flags.writeable = False
        assert np.array_equal(concurrence(stack), expected)


class TestStackedConcurrence:
    @pytest.fixture
    def stack(self, make_random_density, make_werner, bell_state, product_state):
        rng = np.random.default_rng(5)
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
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

    def test_refuses_5e_9_in_one_entry(self, stack):
        stack[0] = rotated(np.diag([0.6, 0.4, 5e-9, -5e-9]), 0.3, 0.8)
        assert refused_eigenvalue(stack) == pytest.approx(-5e-9, abs=1e-15)


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class TestSortedMagnitudes:
    """The compare-exchange network gives np.sort(np.abs(v), axis=-1) bitwise."""

    def assert_sort_bits(self, values):
        network = np.stack(_sorted_magnitudes(values), axis=-1)
        assert np.array_equal(bits(network), bits(np.sort(np.abs(values), axis=-1)))

    @pytest.mark.parametrize(
        "row",
        [
            [0.1, -0.7, 0.3, 2.0],
            [0.0, 0.0, 0.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0],
            [0.5, -0.5, 0.25, -0.25],
            [-0.5, 0.5, 0.5, -0.5],
            [1.0, 0.0, 1.0, -0.0],
            [3e-300, -3e-300, 0.0, 5e-324],
        ],
        ids=[
            "distinct", "zeros", "signed-zeros", "opposite-pairs", "opposite-ties",
            "ones-and-zeros", "tiny",
        ],
    )
    def test_every_order_of_a_row(self, row):
        self.assert_sort_bits(np.array(list(itertools.permutations(row))))

    def test_random_stack_of_few_distinct_magnitudes(self):
        # 4,096 rows over 9 values: nearly every tie pattern occurs
        rng = np.random.default_rng(2)
        values = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1e-300, -1e-300, 0.25], (4096, 4))
        self.assert_sort_bits(values)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_spectra_of_indefinite_matrices_of_each_rank(self, rank):
        # the rest of the spectrum is roundoff of either sign around zero
        rng = np.random.default_rng(rank)
        w = rng.standard_normal((256, 4, rank))
        signs = rng.choice([-1.0, 1.0], (256, 1, rank))
        self.assert_sort_bits(np.linalg.eigvalsh((w * signs) @ np.swapaxes(w, -1, -2)))


class TestEntanglementOfFormation:
    OUT_OF_DOMAIN = "^concurrence must be finite and >= -1e-12 and <= 1.000000000001, got "

    def test_extremes(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == 1.0

    def test_frozen_value(self):
        # C = 0.6 maps to h(0.9)
        assert eof_from_concurrence(0.6) == pytest.approx(H_OF_09, abs=1e-12)

    def test_tolerates_roundoff_overshoot(self):
        assert eof_from_concurrence(-1e-13) == 0.0
        assert eof_from_concurrence(1.0 + 1e-13) == 1.0

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), 2.0, -3.0, -2e-11, 1.0 + 2e-11])
    def test_rejects_out_of_domain(self, c):
        # an impossible concurrence must not read as maximal entanglement
        with pytest.raises(ParameterError, match=self.OUT_OF_DOMAIN):
            eof_from_concurrence(c)

    @pytest.mark.parametrize(
        "c", ["0.5", True, None, 0.5 + 0j, np.array([0.5, 0.25j]), [0.1, [0.2]]]
    )
    def test_rejects_what_is_not_a_real_number(self, c):
        with pytest.raises(ParameterError, match="concurrence must be (a )?real"):
            eof_from_concurrence(c)

    def test_float_in_float_out(self):
        for c in (0.0, 0.6, 1.0, np.float64(0.6), np.array(0.6)):
            assert type(eof_from_concurrence(c)) is float

    def test_array_path_equals_scalar_path(self):
        grid = np.linspace(0.0, 1.0, 20001)
        values = eof_from_concurrence(grid)
        assert values.shape == grid.shape
        scalar = np.array([eof_from_concurrence(c) for c in grid.tolist()])
        assert np.abs(values - scalar).max() <= 1e-16

    def test_array_path_matches_a_40_digit_evaluation(self):
        # C from 1e-12, where 1 - x is 2.5e-25, to 1
        grid = np.concatenate([np.linspace(0.0, 1.0, 2001), np.logspace(-12.0, 0.0, 241)])
        values = eof_from_concurrence(grid)
        exact = np.array([float(exact_eof(c)) for c in grid.tolist()])
        assert np.all(np.abs(values - exact) <= 4 * EPS * exact)

    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-6, 1e-3, 0.1, 0.6, 0.9, 0.999, 1.0 - 1e-9])
    def test_matches_a_40_digit_evaluation(self, c):
        # 1 - x is formed without cancelling, so the bound is relative
        assert eof_from_concurrence(c) == pytest.approx(float(exact_eof(c)), rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), -2e-12, 1.0 + 2e-12])
    def test_array_rejects_out_of_domain(self, c):
        with pytest.raises(ParameterError, match=self.OUT_OF_DOMAIN):
            eof_from_concurrence(np.array([0.2, 0.5, c, 0.7]))

    def test_array_clamps_roundoff_overshoot(self):
        values = eof_from_concurrence(np.array([-1e-12, -1e-13, 0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-12]))
        assert np.array_equal(values, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        # a separable state gives +0.0, which the CSV prints as "0", not "-0"
        assert not np.any(np.signbit(values))

    def test_monotone_on_dense_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        values = [eof_from_concurrence(float(c)) for c in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_composed_results(self, bell_state, product_state, make_werner):
        c = concurrence(product_state)
        assert (c, eof_from_concurrence(c)) == (0.0, 0.0)
        c = concurrence(bell_state)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert eof_from_concurrence(c) == pytest.approx(1.0, abs=1e-10)
        c = concurrence(make_werner(0.5))
        assert c == pytest.approx(0.25, abs=1e-10)
        assert eof_from_concurrence(c) == pytest.approx(eof_from_concurrence(0.25), abs=1e-12)
