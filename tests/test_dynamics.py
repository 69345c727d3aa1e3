import math

import numpy as np
import pytest

from cavent import (
    CoherentParams,
    ParameterError,
    SqueezedParams,
    assemble_rho,
    coherent_distribution,
    gamma_coefficients,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)


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
