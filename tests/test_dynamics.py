import math
import tracemalloc

import numpy as np
import pytest

from cavent import (
    CoherentParams,
    NumericsError,
    ParameterError,
    SqueezedParams,
    assemble_rho,
    coherent_distribution,
    gamma_coefficients,
    solve_alpha_for_mean,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)
from cavent.cli import CONCURRENCE_CHECK_TOL
from cavent.dynamics import PHASE_TOL


def vacuum_gammas(gt):
    """Closed forms for a single-photon-free cavity (P_0 = 1, P_n>0 = 0)."""
    c1, s1 = math.cos(gt), math.sin(gt)
    c2, s2 = math.cos(math.sqrt(2.0) * gt), math.sin(math.sqrt(2.0) * gt)
    return {
        "g1": c1**4,
        "g2": c1**2 * s1**2,
        "g3": c2**2 * s1**2,
        "g4": s1**2 * c1 * c2,
        "g5": s1**2 * s2**2,
    }


@pytest.fixture
def vacuum():
    return coherent_distribution(CoherentParams(0.0))


class TestGammaCoefficients:
    def test_zero_angle(self, vacuum):
        dist = coherent_distribution(CoherentParams(1.3))
        g = gamma_coefficients(dist, 0.0)
        assert g.g1 == pytest.approx(1.0, abs=1e-12)
        assert all(value == 0.0 for value in g[1:])

    @pytest.mark.parametrize("gt", [0.3, 1.0, math.pi / 2, 2.7, 9.9])
    def test_vacuum_closed_forms(self, vacuum, gt):
        g = gamma_coefficients(vacuum, gt)
        expected = vacuum_gammas(gt)
        for name, value in expected.items():
            assert getattr(g, name) == pytest.approx(value, abs=1e-12), name
        for name in ("g6", "g7", "g8", "g9", "g10"):
            assert getattr(g, name) == 0.0

    @pytest.mark.parametrize(
        "alpha,r,gt",
        [(1.0, 0.0, 1.0), (math.sqrt(0.3), 0.0, 2.2), (1.0, 0.5, 5.5), (7.0, 1.0, 0.8)],
    )
    def test_population_completeness(self, alpha, r, gt):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        g = gamma_coefficients(dist, gt)
        assert g.g1 + g.g2 + g.g3 + g.g5 == pytest.approx(1.0, abs=1e-10)
        for name in ("g1", "g2", "g3", "g5"):
            assert 0.0 <= getattr(g, name) <= 1.0

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


class TestGrids:
    def test_grid_equals_stacked_scalar_calls_bitwise(self):
        dist = squeezed_distribution(SqueezedParams(solve_alpha_for_mean(50.0, 1.0), 1.0))
        # 26 angles per block at n_max 152: 100 angles span four blocks
        grid = np.linspace(0.0, 50.0, 100)
        batched = gamma_coefficients(dist, grid)
        for name in batched._fields:
            scalar = [getattr(gamma_coefficients(dist, gt), name) for gt in grid.tolist()]
            assert np.array_equal(getattr(batched, name), scalar), name

    def test_row_does_not_depend_on_the_grid_it_sits_in(self):
        # the squeezed field of compare --mean 400 --r 1 (n_max 505)
        dist = squeezed_distribution(SqueezedParams(solve_alpha_for_mean(400.0, 1.0), 1.0))
        grid = np.linspace(0.0, 50.0, 512)
        picks = [3, 200, 511]
        small = gamma_coefficients(dist, grid[picks])
        large = gamma_coefficients(dist, grid)
        for name in small._fields:
            assert np.array_equal(getattr(small, name), getattr(large, name)[picks]), name

    def test_stacked_rho_matches_scalar_layout(self):
        dist = coherent_distribution(CoherentParams(1.0))
        grid = np.array([0.0, 0.9, 3.3])
        stack = assemble_rho(gamma_coefficients(dist, grid))
        assert stack.shape == (3, 4, 4)
        for rho, gt in zip(stack, grid.tolist()):
            assert np.array_equal(rho, assemble_rho(gamma_coefficients(dist, gt)))

    def test_scalar_angle_gives_floats(self):
        g = gamma_coefficients(coherent_distribution(CoherentParams(1.0)), 0.9)
        assert all(type(value) is float for value in g)

    def test_peak_memory_is_bounded_by_blocks(self):
        # the coherent field of compare --mean 400 (n_max 559); unblocked, the
        # trig factors of its 128 angles take ~4.5 MiB
        dist = coherent_distribution(CoherentParams(20.0))
        grid = np.linspace(0.0, 50.0, 128)
        tracemalloc.start()
        try:
            gamma_coefficients(dist, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPhasePrecision:
    def test_tolerance_is_the_concurrence_check_tolerance(self):
        assert PHASE_TOL == CONCURRENCE_CHECK_TOL

    def test_refuses_angles_whose_phases_lose_their_digits(self):
        dist = coherent_distribution(CoherentParams(1.0))
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, 1e300)
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, np.array([0.0, 1.0, 1e300]))

    def test_threshold(self):
        dist = coherent_distribution(CoherentParams(1.0))
        edge = PHASE_TOL / (math.sqrt(dist.n_max + 2) * np.finfo(float).eps)
        gamma_coefficients(dist, 0.99 * edge)
        with pytest.raises(NumericsError):
            gamma_coefficients(dist, 1.01 * edge)


class TestAssembleRho:
    def test_layout(self):
        g = gamma_coefficients(coherent_distribution(CoherentParams(1.0)), 0.9)
        rho = assemble_rho(g)
        expected = np.array(
            [
                [g.g1, g.g7, g.g8, g.g6],
                [g.g7, g.g2, g.g4, g.g9],
                [g.g8, g.g4, g.g3, g.g10],
                [g.g6, g.g9, g.g10, g.g5],
            ]
        )
        assert np.array_equal(rho, expected)
        assert np.array_equal(rho, rho.T)

    def test_zero_angle_state(self):
        dist = coherent_distribution(CoherentParams(0.7))
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
        assert np.trace(rho) == g.g1 + g.g2 + g.g3 + g.g5


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
