import math
import tracemalloc

import numpy as np
import pytest

from cavent import (
    NumericsError,
    ParameterError,
    SqueezedParams,
    assemble_rho,
    gamma_coefficients,
    solve_alpha_for_mean,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)
import cavent.dynamics as dynamics
from cavent.cli import CONCURRENCE_CHECK_TOL
from cavent.dynamics import PHASE_TOL
from reference import reference_field

EPS = float(np.finfo(float).eps)

# the (i, j) of each entry gamma_coefficients returns, and where the
# populations rho_ii sit among them
TRIU = list(zip(*(index.tolist() for index in np.triu_indices(4))))
DIAGONAL = [k for k, (i, j) in enumerate(TRIU) if i == j]


def vacuum_entries(gt):
    """Closed forms of the nonzero entries rho_ij, i <= j, for a
    single-photon-free cavity (P_0 = 1, P_n>0 = 0); the other five vanish."""
    c1, s1 = math.cos(gt), math.sin(gt)
    c2, s2 = math.cos(math.sqrt(2.0) * gt), math.sin(math.sqrt(2.0) * gt)
    return {
        (0, 0): c1**4,
        (1, 1): c1**2 * s1**2,
        (2, 2): c2**2 * s1**2,
        (1, 2): s1**2 * c1 * c2,
        (3, 3): s1**2 * s2**2,
    }


def full_range_factors(dist, grid):
    """The factors of the ten sums over every n = 0 .. n_max in one unblocked
    pass: the evaluation before the dead head of a bright distribution was
    skipped.  Each sum is a pair (x, y) of its last factor y and the product
    x of the others, formed as in dynamics._block_sums from the same
    tangent-derived trig factors (dynamics._cos_sin) and listed in the same
    upper-triangle order, so where nothing is skipped np.vecdot(x, y) gives
    the program's bits."""
    p = dist.probs
    n = np.arange(len(p), dtype=float)
    gt = np.reshape(grid, (-1, 1))

    def trig(k):
        return dynamics._cos_sin(gt * np.sqrt(np.maximum(n + k, 0.0)))

    (_, sm), (c0, s0), (c1, s1), (c2, s2) = (trig(k) for k in (-1, 0, 1, 2))
    w1 = np.zeros_like(p)
    w1[1:] = np.sqrt(p[1:] * p[:-1])
    w2 = np.zeros_like(p)
    w2[2:] = np.sqrt(p[2:] * p[:-2])
    c1c1, s1s1 = c1 * c1, s1 * s1
    pop, coh = p * s1s1, w1 * s0
    pop_c2, coh_c1c1, coh_s1s1 = pop * c2, coh * c1c1, coh * s1s1
    return (
        (p * c1c1, c1c1),
        (coh_c1c1, c0),
        (coh_c1c1, c1),
        (w2 * c1c1 * s0, sm),
        (pop, c1c1),
        (pop_c2, c1),
        (coh_s1s1, c1),
        (pop_c2, c2),
        (coh_s1s1, c2),
        (pop * s2, s2),
    )


def full_range_sums(dist, grid):
    """The ten sums over every n = 0 .. n_max, one dot product per angle,
    as a (G, 10) array like gamma_coefficients'."""
    return np.stack([np.vecdot(x, y) for x, y in full_range_factors(dist, grid)], axis=-1)


def compare_fields(mean, r):
    """The squeezed (a) and coherent (b) fields of compare at this mean."""
    return reference_field(mean, r), reference_field(mean, 0.0)


class TestGammaCoefficients:
    def test_zero_angle(self, vacuum):
        dist = squeezed_distribution(SqueezedParams(1.3, 0.0))
        g = gamma_coefficients(dist, 0.0)
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        assert all(value == 0.0 for value in g[1:])

    @pytest.mark.parametrize("gt", [0.3, 1.0, math.pi / 2, 2.7, 9.9])
    def test_vacuum_closed_forms(self, vacuum, gt):
        g = gamma_coefficients(vacuum, gt)
        expected = vacuum_entries(gt)
        for value, entry in zip(g, TRIU):
            if entry in expected:
                assert value == pytest.approx(expected[entry], abs=1e-12), entry
            else:
                assert value == 0.0, entry

    @pytest.mark.parametrize(
        "alpha,r,gt",
        [(1.0, 0.0, 1.0), (math.sqrt(0.3), 0.0, 2.2), (1.0, 0.5, 5.5), (7.0, 1.0, 0.8)],
    )
    def test_population_completeness(self, alpha, r, gt):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        populations = gamma_coefficients(dist, gt)[DIAGONAL].tolist()
        assert sum(populations) == pytest.approx(1.0, abs=1e-10)
        for value in populations:
            assert 0.0 <= value <= 1.0

    def test_rejects_bad_angles(self, vacuum):
        with pytest.raises(ParameterError):
            gamma_coefficients(vacuum, -0.1)
        with pytest.raises(ParameterError):
            gamma_coefficients(vacuum, float("nan"))
        with pytest.raises(ParameterError):
            gamma_coefficients(vacuum, float("inf"))

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_rejects_one_bad_angle_in_a_grid(self, vacuum, bad):
        grid = np.linspace(0.0, 5.0, 40)
        grid[17] = bad
        with pytest.raises(ParameterError):
            gamma_coefficients(vacuum, grid)

    def test_rejects_a_two_dimensional_grid(self, vacuum):
        with pytest.raises(ParameterError):
            gamma_coefficients(vacuum, np.ones((2, 3)))

    @pytest.mark.parametrize(
        "gt", [1.0 + 1.0j, np.array([1.0 + 1.0j, 2.0]), np.array([1.0 + 0.0j])],
        ids=["scalar", "array", "zero-imaginary"],
    )
    def test_rejects_complex_angles(self, vacuum, gt):
        # a cast to float would drop the imaginary part with only a warning
        with pytest.raises(ParameterError, match="gt must be real"):
            gamma_coefficients(vacuum, gt)

    @pytest.mark.parametrize(
        "gt", ["1.5", True, np.array([True]), [1.0, "2"], None],
        ids=["string", "bool", "bool-array", "mixed-list", "none"],
    )
    def test_rejects_angles_that_are_not_numbers(self, vacuum, gt):
        with pytest.raises(ParameterError, match="gt must be a real number"):
            gamma_coefficients(vacuum, gt)

    @pytest.mark.parametrize(
        "gt,grid", [(2, 2.0), (np.float32(1.0), 1.0), ([1, 2.5], [1.0, 2.5])],
        ids=["int", "float32", "int-and-float-list"],
    )
    def test_accepts_integer_and_float_angles(self, vacuum, gt, grid):
        expected = gamma_coefficients(vacuum, np.array(grid))
        assert np.array_equal(gamma_coefficients(vacuum, gt), expected)


class TestGrids:
    def test_grid_equals_stacked_scalar_calls_bitwise(self):
        # 26 angles per block at n_max 152; at mean 400 the 229 photon numbers
        # kept of 506 give 17 per block.  100 angles span four and six blocks.
        grid = np.linspace(0.0, 50.0, 100)
        for mean in (50.0, 400.0):
            dist = squeezed_distribution(SqueezedParams(solve_alpha_for_mean(mean, 1.0), 1.0))
            batched = gamma_coefficients(dist, grid)
            scalar = [gamma_coefficients(dist, gt) for gt in grid.tolist()]
            assert np.array_equal(batched, scalar), mean

    def test_row_does_not_depend_on_the_grid_it_sits_in(self):
        # the squeezed field of compare --mean 400 --r 1 (n_max 505)
        dist = squeezed_distribution(SqueezedParams(solve_alpha_for_mean(400.0, 1.0), 1.0))
        grid = np.linspace(0.0, 50.0, 512)
        picks = [3, 200, 511]
        small = gamma_coefficients(dist, grid[picks])
        large = gamma_coefficients(dist, grid)
        assert np.array_equal(small, large[picks])

    def test_stacked_rho_matches_scalar_layout(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        grid = np.array([0.0, 0.9, 3.3])
        stack = assemble_rho(gamma_coefficients(dist, grid))
        assert stack.shape == (3, 4, 4)
        for rho, gt in zip(stack, grid.tolist()):
            assert np.array_equal(rho, assemble_rho(gamma_coefficients(dist, gt)))

    def test_scalar_angle_gives_its_grid_row(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        g = gamma_coefficients(dist, 0.9)
        assert g.shape == (10,) and g.dtype == np.float64
        assert np.array_equal(g, gamma_coefficients(dist, np.array([0.2, 0.9, 3.3]))[1])

    def test_peak_memory_is_bounded_by_blocks(self):
        # the coherent field of compare --mean 400 (n_max 559); unblocked, the
        # trig factors of its 128 angles take ~4.5 MiB
        dist = squeezed_distribution(SqueezedParams(20.0, 0.0))
        grid = np.linspace(0.0, 50.0, 128)
        tracemalloc.start()
        try:
            gamma_coefficients(dist, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDeadHead:
    @pytest.mark.parametrize("field", [0, 1], ids=["squeezed", "coherent"])
    def test_bright_field_skips_its_dead_head(self, monkeypatch, field):
        dist = compare_fields(400.0, 1.0)[field]
        kept = []
        block_sums = dynamics._block_sums

        def spy(gt, p, *rest):
            kept.append(p)
            return block_sums(gt, p, *rest)

        monkeypatch.setattr(dynamics, "_block_sums", spy)
        gamma_coefficients(dist, 1.0)
        first = len(dist.probs) - len(kept[0])
        assert np.array_equal(kept[0], dist.probs[first:])
        assert first > 150
        assert math.fsum(dist.probs[:first]) <= EPS * EPS

    @pytest.mark.parametrize("field", [0, 1], ids=["squeezed", "coherent"])
    def test_bright_sums_match_the_full_range(self, field):
        # the grids of compare --mean 400 --r 1 --gt-end 50 --steps 128
        dist = compare_fields(400.0, 1.0)[field]
        grid = np.linspace(0.0, 50.0, 128)
        sums = gamma_coefficients(dist, grid)
        assert np.max(np.abs(sums - full_range_sums(dist, grid))) <= 1e-15

    @pytest.mark.parametrize("field", [0, 1], ids=["squeezed", "coherent"])
    def test_dim_sums_are_the_full_range_bits(self, field):
        dist = compare_fields(0.3, 0.5)[field]
        grid = np.linspace(0.0, 10.0, 512)
        assert np.array_equal(gamma_coefficients(dist, grid), full_range_sums(dist, grid))


class TestSummationAccuracy:
    @pytest.mark.parametrize(
        "field,mean,r,gt_end,steps",
        [
            (0, 0.3, 0.5, 10.0, 512),
            (0, 50.0, 1.0, 50.0, 512),
            (0, 400.0, 1.0, 50.0, 128),
            (1, 400.0, 1.0, 50.0, 128),
        ],
        ids=["squeezed-0.3", "squeezed-50", "squeezed-400", "coherent-400"],
    )
    def test_sums_are_within_1e_15_of_exactly_rounded_ones(self, field, mean, r, gt_end, steps):
        # the fields of the reference sweeps, compares and oracle-check; the
        # largest difference measured is 4.4e-16, at mean 0.3
        dist = compare_fields(mean, r)[field]
        grid = np.linspace(0.0, gt_end, steps)
        sums = gamma_coefficients(dist, grid)
        exact = [
            [math.fsum(row) for row in (x * y).tolist()]
            for x, y in full_range_factors(dist, grid)
        ]
        assert np.max(np.abs(sums.T - exact)) <= 1e-15


class TestTangentTrig:
    # the largest phase an accepted angle can reach (see PHASE_TOL)
    LIMIT = PHASE_TOL / EPS

    def phases(self):
        rng = np.random.default_rng(20)
        quarter = math.pi / 2.0
        far = rng.integers(64, int(self.LIMIT / quarter), 64)
        turns = np.concatenate([np.arange(1.0, 64.0), far])
        near = turns * quarter
        return np.concatenate(
            [
                rng.uniform(0.0, self.LIMIT, 1000),
                10.0 ** rng.uniform(-8.0, math.log10(self.LIMIT), 1000),
                rng.uniform(0.0, 50.0 * math.sqrt(562.0), 1000),
                near,
                np.nextafter(near, 0.0),
                np.nextafter(near, np.inf),
            ]
        )

    def test_zero_phase_is_exact(self):
        cos, sin = dynamics._cos_sin(np.zeros(3))
        assert np.all(cos == 1.0) and np.all(sin == 0.0)

    def test_within_2_5e_16_of_30_digit_trig(self):
        # the worst error measured over 0.9 million such phases is 2.2e-16,
        # against 5.6e-17 for libm's cos and sin
        mpmath = pytest.importorskip("mpmath")
        phases = self.phases()
        cos, sin = dynamics._cos_sin(phases.copy())
        with mpmath.workdps(30):
            cos_error = [abs(c - mpmath.cos(x)) for c, x in zip(cos.tolist(), phases.tolist())]
            sin_error = [abs(s - mpmath.sin(x)) for s, x in zip(sin.tolist(), phases.tolist())]
        assert float(max(cos_error)) <= 2.5e-16
        assert float(max(sin_error)) <= 2.5e-16


class TestPhasePrecision:
    def test_tolerance_is_the_concurrence_check_tolerance(self):
        assert PHASE_TOL == CONCURRENCE_CHECK_TOL

    def test_refuses_angles_whose_phases_lose_their_digits(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, 1e300)
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, np.array([0.0, 1.0, 1e300]))

    def test_threshold(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        edge = PHASE_TOL / (math.sqrt(dist.n_max + 2) * np.finfo(float).eps)
        gamma_coefficients(dist, 0.99 * edge)
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, 1.01 * edge)


class TestAssembleRho:
    def test_layout(self):
        g = gamma_coefficients(squeezed_distribution(SqueezedParams(1.0, 0.0)), 0.9)
        rho = assemble_rho(g)
        assert rho.shape == (4, 4)
        assert np.array_equal(rho[np.triu_indices(4)], g)
        assert np.array_equal(rho, rho.T)

    @pytest.mark.parametrize("shape", [(9,), (4, 4), (3, 11)])
    def test_refuses_what_is_not_a_triangle(self, shape):
        with pytest.raises(ParameterError, match="upper triangle"):
            assemble_rho(np.zeros(shape))

    @pytest.mark.parametrize("entry", ["1", True, None])
    def test_refuses_entries_that_are_not_numbers(self, entry):
        with pytest.raises(ParameterError, match="triangle must be a real number"):
            assemble_rho([entry] * 10)

    def test_zero_angle_state(self):
        dist = squeezed_distribution(SqueezedParams(0.7, 0.0))
        rho = assemble_rho(gamma_coefficients(dist, 0.0))
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
        off = rho - np.diag(np.diag(rho))
        assert np.all(off == 0.0)
        assert np.all(np.diag(rho)[1:] == 0.0)

    def test_vacuum_quarter_pi_support(self, vacuum):
        # at gt = pi/2 the ee population cos^4(pi/2) vanishes
        rho = assemble_rho(gamma_coefficients(vacuum, math.pi / 2.0))
        assert abs(rho[0, 0]) < 1e-32
        assert np.max(np.abs(rho[0, :])) < 1e-16
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gt", [0.0, 0.37, 1.8, 6.4])
    def test_trace_is_population_sum(self, gt):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.3))
        g = gamma_coefficients(dist, gt)
        rho = assemble_rho(g)
        assert np.trace(rho) == sum(g[DIAGONAL].tolist())


class TestInvariantsOnGrid:
    GRID = np.linspace(0.0, 10.0, 21)

    @pytest.mark.parametrize("alpha,r", [(math.sqrt(0.3), 0.0), (1.0, 0.5), (7.0, 1.0)])
    def test_trace_psd_and_oracle(self, alpha, r):
        dist = squeezed_distribution(SqueezedParams(alpha, r), 1e-14)
        for gt in self.GRID:
            gt = float(gt)
            rho = assemble_rho(gamma_coefficients(dist, gt))
            assert abs(np.trace(rho) - 1.0) < 1e-10
            values = np.linalg.eigvalsh(rho)
            assert values.min() > -1e-10
            oracle = trace_out_field(tripartite_state(dist, gt))
            assert np.max(np.abs(rho - oracle)) < 1e-10

    def test_supported_envelope_edge(self):
        # heaviest supported field: alpha=20, r=3 needs ~5000 Fock levels
        dist = squeezed_distribution(SqueezedParams(20.0, 3.0))
        for gt in (0.0, 1.7):
            rho = assemble_rho(gamma_coefficients(dist, gt))
            assert abs(np.trace(rho) - 1.0) < 1e-10
            values = np.linalg.eigvalsh(rho)
            assert values.min() > -1e-10
            oracle = trace_out_field(tripartite_state(dist, gt))
            assert np.max(np.abs(rho - oracle)) < 1e-10
