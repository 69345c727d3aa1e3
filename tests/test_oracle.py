import math
import tracemalloc

import numpy as np
import pytest

from cavent import (
    NumericsError,
    ParameterError,
    SqueezedParams,
    assemble_rho,
    concurrence,
    gamma_coefficients,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)
from cavent.cli import SweepConfig, run_oracle_check
from cavent.dynamics import PHASE_TOL, _blocks

from quartic_oracle import quartic_eigenvalues, spin_flipped
from reference import eigh_route_spectrum, reference_field

# (mean, r, gt_end, steps) of the reference grids
REFERENCE_GRIDS = [(0.3, 0.5, 10.0, 512), (50.0, 1.0, 50.0, 512), (400.0, 1.0, 50.0, 128)]


def fsum_trace(amps):
    """The per-point partial trace the batched one replaced: exactly rounded
    sums of the same products, one (2, 2, n) amplitude table at a time."""
    v = amps.reshape(4, -1)
    rho = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            rho[i, j] = rho[j, i] = math.fsum(v[i] * v[j])
    return rho


def tau_route_squares(rho):
    """Squared eigenvalue magnitudes of W^T Y W with rho = W W^T, descending:
    the spectrum of rho * spin_flipped(rho) by the eigenvector route."""
    return eigh_route_spectrum(rho)[::-1] ** 2


class TestTripartiteAmplitudes:
    def test_zero_angle_keeps_atoms_excited(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        amps = tripartite_state(dist, 0.0)
        expected = np.sqrt(dist.probs)
        assert np.max(np.abs(amps[0, 0, : len(expected)] - expected)) == 0.0
        assert np.max(np.abs(amps[0, 1])) == 0.0
        assert np.max(np.abs(amps[1, 0])) == 0.0
        assert np.max(np.abs(amps[1, 1])) == 0.0

    def test_vacuum_has_four_branches(self, vacuum):
        gt = 0.8
        amps = tripartite_state(vacuum, gt)
        c1, s1 = math.cos(gt), math.sin(gt)
        c2, s2 = math.cos(math.sqrt(2.0) * gt), math.sin(math.sqrt(2.0) * gt)
        assert amps[0, 0, 0] == pytest.approx(c1 * c1, abs=1e-15)
        assert amps[0, 1, 1] == pytest.approx(c1 * s1, abs=1e-15)
        assert amps[1, 0, 1] == pytest.approx(c2 * s1, abs=1e-15)
        assert amps[1, 1, 2] == pytest.approx(s1 * s2, abs=1e-15)
        assert np.count_nonzero(amps) == 4

    @pytest.mark.parametrize(
        "alpha,r,gt", [(1.0, 0.0, 0.6), (math.sqrt(0.3), 0.0, 3.1), (2.0, 0.7, 1.4)]
    )
    def test_unit_norm(self, alpha, r, gt):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        norm = np.sum(tripartite_state(dist, gt) ** 2, axis=(-3, -2, -1))
        assert norm == pytest.approx(1.0, abs=1e-10)
        # one norm per angle of a grid
        grid = np.array([0.0, gt, 2.0 * gt, 7.5])
        norms = np.sum(tripartite_state(dist, grid) ** 2, axis=(-3, -2, -1))
        assert norms.shape == grid.shape
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert norms[1] == norm

    def test_branch_photon_offsets(self):
        # eg/ge branches live one photon above the source index, gg two above
        dist = squeezed_distribution(SqueezedParams(0.9, 0.0))
        amps = tripartite_state(dist, 1.1)
        assert amps[0, 1, 0] == 0.0
        assert amps[1, 0, 0] == 0.0
        assert np.max(np.abs(amps[1, 1, :2])) == 0.0

    def test_rejects_negative_angle(self, vacuum):
        with pytest.raises(ParameterError):
            tripartite_state(vacuum, -1.0)

    def test_rejects_a_grid_of_more_than_one_dimension(self, vacuum):
        with pytest.raises(ParameterError):
            tripartite_state(vacuum, np.zeros((2, 3)))

    def test_refuses_angles_whose_phases_lose_their_digits(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.5))
        with pytest.raises(NumericsError):
            tripartite_state(dist, 1e300)
        with pytest.raises(NumericsError):
            tripartite_state(dist, np.array([0.0, 1.0, 1e300]))

    def test_phase_threshold_is_that_of_the_gamma_sums(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        edge = PHASE_TOL / (math.sqrt(dist.n_max + 2) * np.finfo(float).eps)
        tripartite_state(dist, 0.99 * edge)
        gamma_coefficients(dist, 0.99 * edge)
        for refuse in (tripartite_state, gamma_coefficients):
            with pytest.raises(NumericsError):
                refuse(dist, 1.01 * edge)

    @pytest.mark.parametrize(
        "gt", [0.5 + 0.5j, np.array([1.0 + 0.5j])], ids=["scalar", "array"]
    )
    def test_rejects_complex_angles(self, vacuum, gt):
        with pytest.raises(ParameterError, match="gt must be real"):
            tripartite_state(vacuum, gt)

    @pytest.mark.parametrize(
        "gt", ["1.5", True, np.array([True]), [1.0, "2"], None],
        ids=["string", "bool", "bool-array", "mixed-list", "none"],
    )
    def test_rejects_angles_that_are_not_numbers(self, vacuum, gt):
        with pytest.raises(ParameterError, match="gt must be a real number"):
            tripartite_state(vacuum, gt)

    @pytest.mark.parametrize(
        "gt,grid", [(2, 2.0), (np.float32(1.0), 1.0), ([1, 2.5], [1.0, 2.5])],
        ids=["int", "float32", "int-and-float-list"],
    )
    def test_accepts_integer_and_float_angles(self, vacuum, gt, grid):
        expected = tripartite_state(vacuum, np.array(grid))
        assert np.array_equal(tripartite_state(vacuum, gt), expected)

    def test_grid_shape(self):
        dist = squeezed_distribution(SqueezedParams(0.9, 0.0))
        stack = tripartite_state(dist, np.array([0.0, 1.1, 2.0]))
        assert stack.shape == (3, 2, 2, dist.n_max + 3)
        assert tripartite_state(dist, 1.1).shape == (2, 2, dist.n_max + 3)

    def test_oracle_block_holds_its_amplitude_table_once(self):
        # one block of oracle-check at mean 50, r 1: 26 angles over n_max 152
        dist = reference_field(50.0, 1.0)
        block = np.linspace(0.0, 50.0, 512)[_blocks(512, len(dist.probs))[0]]
        tripartite_state(dist, block)
        tracemalloc.start()
        try:
            amps = tripartite_state(dist, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not amps.flags.writeable
        # the table takes 126 KiB; with a second copy of it the peak was
        # 2.77 tables, now it is 2.26
        assert peak < 2.5 * amps.nbytes


class TestTraceOutField:
    def test_zero_angle(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        rho = trace_out_field(tripartite_state(dist, 0.0))
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_vacuum_x_shape(self, vacuum):
        # only the eg/ge branches share a photon index, so a single coherence
        rho = trace_out_field(tripartite_state(vacuum, 0.8))
        off = rho - np.diag(np.diag(rho))
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[2, 1] = True
        assert abs(rho[1, 2]) > 1e-3
        assert np.all(off[~mask] == 0.0)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)

    def test_matches_analytic_route(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        rho_sum = assemble_rho(gamma_coefficients(dist, 0.7))
        rho_oracle = trace_out_field(tripartite_state(dist, 0.7))
        assert np.max(np.abs(rho_sum - rho_oracle)) < 1e-10

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (3, 2, 5), (2, 3, 5), (1, 4, 5)])
    def test_rejects_a_shape_without_2x2_levels(self, shape):
        with pytest.raises(ParameterError):
            trace_out_field(np.zeros(shape))

    def test_rejects_a_complex_table(self):
        # v v^T takes no conjugate: amplitude 1j would give rho_00 = -1
        amps = np.zeros((2, 2, 3), dtype=complex)
        amps[0, 0, 0] = 1j
        with pytest.raises(ParameterError, match="complex"):
            trace_out_field(amps)

    @pytest.mark.parametrize("dtype", [bool, str, object])
    def test_rejects_a_table_that_is_not_numbers(self, dtype):
        # a bool table would give a bool matrix, a string table no matrix
        amps = np.zeros((2, 2, 3), dtype=dtype)
        with pytest.raises(ParameterError, match="must be a real number"):
            trace_out_field(amps)

    def test_accepts_an_array_like(self):
        # as concurrence, eof_from_concurrence and gamma_coefficients do
        dist = squeezed_distribution(SqueezedParams(1.5, 0.4))
        amps = tripartite_state(dist, np.array([0.7, 2.3]))
        assert np.array_equal(trace_out_field(amps.tolist()), trace_out_field(amps))

    def test_is_gram_symmetric(self):
        dist = squeezed_distribution(SqueezedParams(1.5, 0.4))
        rho = trace_out_field(tripartite_state(dist, 2.3))
        assert np.array_equal(rho, rho.T)

    def test_empty_grid_gives_an_empty_stack(self, vacuum):
        # as gamma_coefficients, assemble_rho and concurrence do
        rho = trace_out_field(tripartite_state(vacuum, np.zeros(0)))
        assert rho.shape == (0, 4, 4)
        assert concurrence(rho).shape == (0,)


class TestBatchedOracle:
    def test_angle_gives_the_same_bits_in_any_grid(self):
        # 26 angles per block at n_max 152: the 512 angles span 20 blocks
        dist = reference_field(50.0, 1.0)
        grid = np.linspace(0.0, 50.0, 512)
        whole = tripartite_state(dist, grid)
        rho_whole = trace_out_field(whole)
        rho_blocked = np.empty_like(rho_whole)
        for block in _blocks(len(grid), len(dist.probs)):
            rho_blocked[block] = trace_out_field(tripartite_state(dist, grid[block]))
        assert np.array_equal(rho_blocked, rho_whole)
        # single angles on both sides of block boundaries, and at the ends
        edges = [0, 25, 26, 27, 51, 52, 255, 259, 260, 493, 494, 511]
        for k in edges:
            alone = tripartite_state(dist, grid[k])
            assert np.array_equal(alone, whole[k]), k
            assert np.array_equal(trace_out_field(alone), rho_whole[k]), k

    @pytest.mark.parametrize("mean,r,gt_end,steps", REFERENCE_GRIDS)
    def test_pairwise_trace_matches_fsum_trace(self, mean, r, gt_end, steps):
        dist = reference_field(mean, r)
        amps = tripartite_state(dist, np.linspace(0.0, gt_end, steps))
        rho = trace_out_field(amps)
        exact = np.array([fsum_trace(table) for table in amps])
        assert np.max(np.abs(rho - exact)) < 1e-15

    def test_stack_is_exactly_symmetric(self):
        dist = reference_field(0.3, 0.5)
        rho = trace_out_field(tripartite_state(dist, np.linspace(0.0, 10.0, 64)))
        assert np.array_equal(rho, np.swapaxes(rho, -1, -2))

    def test_oracle_check_peak_memory_is_bounded_by_blocks(self):
        # unblocked, the amplitude table and trace products of all 512 angles
        # take ~6.8 MiB
        cfg = SweepConfig("squeezed", target_mean=50.0, r=1.0, gt_end=50.0, gt_steps=512)
        tracemalloc.start()
        try:
            report = run_oracle_check(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1 << 20


class TestQuarticEigenvalues:
    def test_diagonal(self):
        assert np.array_equal(
            quartic_eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0])), [4.0, 3.0, 2.0, 1.0]
        )

    def test_product_state_product_is_nilpotent(self, product_state):
        m = product_state @ spin_flipped(product_state)
        assert np.max(np.abs(m)) == 0.0
        assert np.max(np.abs(quartic_eigenvalues(m))) < 1e-12

    def test_bell_projector(self, bell_state):
        values = quartic_eigenvalues(bell_state @ spin_flipped(bell_state))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(values[1:])) < 1e-12

    def test_werner_triple_root(self, make_werner):
        rho = make_werner(0.5)
        values = quartic_eigenvalues(rho @ spin_flipped(rho))
        assert values[0] == pytest.approx(0.390625, abs=1e-10)
        assert np.max(np.abs(values[1:] - 0.015625)) < 1e-10

    def test_rejects_complex_spectrum(self):
        rotation = np.zeros((4, 4))
        rotation[0, 1], rotation[1, 0] = -1.0, 1.0  # eigenvalues +-i
        rotation[2, 2], rotation[3, 3] = 0.1, 0.2
        with pytest.raises(NumericsError):
            quartic_eigenvalues(rotation)

    def test_route_agreement_on_random_density_matrices(self, make_random_density):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            rho = make_random_density(rng)
            lam = tau_route_squares(rho)
            quartic = quartic_eigenvalues(rho @ spin_flipped(rho))
            worst = max(worst, float(np.max(np.abs(quartic - lam))))
        assert worst < 1e-8


class TestFullPipelineEquivalence:
    @pytest.mark.parametrize(
        "alpha,r", [(0.0, 0.0), (1.0, 0.0), (0.17, 0.5), (math.sqrt(50.0 - math.sinh(1.0) ** 2), 1.0)]
    )
    def test_concurrence_agreement(self, alpha, r):
        dist = squeezed_distribution(SqueezedParams(alpha, r), 1e-14)
        for gt in np.linspace(0.0, 10.0, 9):
            gt = float(gt)
            rho_sum = assemble_rho(gamma_coefficients(dist, gt))
            rho_oracle = trace_out_field(tripartite_state(dist, gt))
            assert abs(concurrence(rho_sum) - concurrence(rho_oracle)) < 1e-8

    @pytest.mark.parametrize(
        "alpha,r", [(math.sqrt(0.3), 0.0), (0.17, 0.5), (math.sqrt(50.0 - math.sinh(1.0) ** 2), 1.0)]
    )
    def test_eigen_oracle_agreement_and_spectrum_reality(self, alpha, r):
        # both eigenvalue routes applied to rho * rho~ across the sweep grid,
        # and the spectrum of rho itself stays nonnegative up to roundoff
        dist = squeezed_distribution(SqueezedParams(alpha, r), 1e-14)
        for gt in np.linspace(0.0, 10.0, 17):
            rho = assemble_rho(gamma_coefficients(dist, float(gt)))
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
            quartic = quartic_eigenvalues(rho @ spin_flipped(rho))
            assert np.max(np.abs(quartic - tau_route_squares(rho))) < 1e-8
