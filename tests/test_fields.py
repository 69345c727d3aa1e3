import math

import numpy as np
import pytest

from cavent import (
    CoherentParams,
    NumericsError,
    ParameterError,
    SqueezedParams,
    coherent_distribution,
    mean_photon,
    quadrature_variances,
    solve_alpha_for_mean,
    squeezed_distribution,
)

ULP_QUARTER = 2.0**-54  # spacing of doubles at 0.25


def poisson_reference(mean, n_max):
    """Independent log-space Poissonian, the textbook formula term by term."""
    if mean == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.array(
        [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(n_max + 1)]
    )


def exact_poisson(alpha, n_max):
    """Poissonian P_0..P_n_max of amplitude alpha in 40-digit arithmetic,
    rounded to doubles, and the 40-digit probability of more than n_max
    photons."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m = mpmath.mpf(alpha) ** 2
        terms = [mpmath.exp(-m)]
        for n in range(1, n_max + 1):
            terms.append(terms[-1] * m / n)
        return np.array([float(p) for p in terms]), float(1 - mpmath.fsum(terms))


def squeezed_reference(alpha, r, n_max):
    """Independent evaluation of the closed-form Hermite-polynomial distribution.

    P_n = (nu/2mu)^n / (n! mu) * exp(-beta^2 (1 - nu/mu)) * H_n(beta/sqrt(2 mu nu))^2,
    assembled in log space with H_n from the textbook upward recurrence.
    Only usable while H_n stays inside double range (moderate n).
    """
    mu, nu = math.cosh(r), math.sinh(r)
    beta = (mu + nu) * alpha
    if nu == 0.0:
        return poisson_reference(alpha * alpha, n_max)
    x = beta / math.sqrt(2.0 * mu * nu)
    herm = [1.0, 2.0 * x]
    while len(herm) <= n_max:
        k = len(herm) - 1
        herm.append(2.0 * x * herm[k] - 2.0 * k * herm[k - 1])
    log_pref = -beta * beta * (1.0 - nu / mu) - math.log(mu)
    out = []
    for n in range(n_max + 1):
        if herm[n] == 0.0:
            out.append(0.0)
            continue
        logp = (
            log_pref
            - math.lgamma(n + 1)
            + n * math.log(nu / (2.0 * mu))
            + 2.0 * math.log(abs(herm[n]))
        )
        out.append(math.exp(logp))
    return np.array(out)


class TestCoherentDistribution:
    def test_vacuum(self):
        dist = coherent_distribution(CoherentParams(0.0))
        assert dist.probs.tolist() == [1.0]
        assert dist.n_max == 0
        assert dist.tail_mass == 0.0

    def test_ground_probability_alpha_one(self):
        dist = coherent_distribution(CoherentParams(1.0))
        assert dist.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_poisson_mode_at_mean_50(self):
        dist = coherent_distribution(CoherentParams(math.sqrt(50.0)))
        assert int(np.argmax(dist.probs)) in (49, 50)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0, math.sqrt(50.0), 20.0])
    def test_matches_reference_formula(self, alpha):
        dist = coherent_distribution(CoherentParams(alpha))
        ref = poisson_reference(alpha * alpha, dist.n_max)
        assert np.max(np.abs(dist.probs - ref)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 7.0, 20.0])
    def test_normalization_window(self, alpha):
        tail_tol = 1e-12
        dist = coherent_distribution(CoherentParams(alpha), tail_tol)
        total = math.fsum(dist.probs)
        assert 1.0 - tail_tol <= total <= 1.0
        assert 0.0 <= dist.tail_mass <= tail_tol
        assert np.all(dist.probs >= 0.0) and np.all(dist.probs <= 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            CoherentParams(float("nan"))
        with pytest.raises(ParameterError):
            CoherentParams(float("inf"))
        with pytest.raises(ParameterError):
            CoherentParams(-0.5)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_bad_tail_tol(self, tail_tol):
        with pytest.raises(ParameterError):
            coherent_distribution(CoherentParams(1.0), tail_tol)

    def test_unattainable_tail_tolerance(self):
        # renormalizing leaves the sum one ulp below 1: tail_mass 1.1e-16
        with pytest.raises(NumericsError):
            coherent_distribution(CoherentParams(0.5), 1e-17)

    def test_tight_tail_tolerance_met_at_mean_400(self):
        dist = coherent_distribution(CoherentParams(20.0), 1e-15)
        _, discarded = exact_poisson(20.0, dist.n_max)
        assert discarded <= 1e-15

    @pytest.mark.parametrize("mean", [400, 2060, 5000])
    def test_bright_field_matches_exact_poissonian(self, mean):
        alpha = math.sqrt(mean)
        dist = coherent_distribution(CoherentParams(alpha))
        ref, discarded = exact_poisson(alpha, dist.n_max)
        bulk = ref > 1e-6 * ref.max()
        assert np.max(np.abs(dist.probs[bulk] / ref[bulk] - 1.0)) < 1e-12
        assert discarded <= 1e-12

    def test_probs_are_read_only(self):
        dist = coherent_distribution(CoherentParams(1.0))
        with pytest.raises(ValueError):
            dist.probs[0] = 0.0

    def test_direct_construction_is_validated(self):
        from cavent import PhotonDistribution

        with pytest.raises(ParameterError):
            PhotonDistribution(np.array([0.5, -0.1]), 0.0)
        with pytest.raises(ParameterError):
            PhotonDistribution(np.array([0.5, 1.2]), 0.0)
        with pytest.raises(ParameterError):
            PhotonDistribution(np.array([]), 0.0)
        with pytest.raises(ParameterError):
            PhotonDistribution(np.array([1.0]), -1e-3)


class TestSqueezedDistribution:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0, math.sqrt(50.0)])
    def test_r_zero_reduces_to_poissonian(self, alpha):
        sq = squeezed_distribution(SqueezedParams(alpha, 0.0))
        ref = poisson_reference(alpha * alpha, sq.n_max)
        assert np.max(np.abs(sq.probs - ref)) < 1e-12

    def test_squeezed_vacuum_parity(self):
        dist = squeezed_distribution(SqueezedParams(0.0, 0.5))
        assert np.max(np.abs(dist.probs[1::2])) < 1e-14

    def test_squeezed_vacuum_pairs_closed_form(self):
        # P_2m = (2m)! / (4^m m!^2) tanh(r)^2m / cosh(r)
        r = 0.5
        dist = squeezed_distribution(SqueezedParams(0.0, r))
        for m in range(8):
            exact = math.comb(2 * m, m) / 4.0**m * math.tanh(r) ** (2 * m) / math.cosh(r)
            assert dist.probs[2 * m] == pytest.approx(exact, rel=1e-12)

    def test_squeezed_vacuum_mean(self):
        dist = squeezed_distribution(SqueezedParams(0.0, 0.5))
        assert mean_photon(dist) == pytest.approx(math.sinh(0.5) ** 2, abs=1e-10)

    @pytest.mark.parametrize(
        "alpha,r",
        [(0.0, 0.3), (0.5, 0.5), (1.0, 1.0), (3.0, 0.5), (math.sqrt(50.0 - math.sinh(1.0) ** 2), 1.0)],
    )
    def test_matches_reference_formula(self, alpha, r):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        ref = squeezed_reference(alpha, r, dist.n_max)
        assert np.max(np.abs(dist.probs - ref)) < 1e-12

    @pytest.mark.parametrize(
        "alpha,r",
        [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (3.0, 2.0), (20.0, 0.0), (20.0, 3.0), (0.0, 3.0)],
    )
    def test_normalization_envelope(self, alpha, r):
        tail_tol = 1e-12
        dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        total = math.fsum(dist.probs)
        assert 1.0 - tail_tol <= total <= 1.0
        assert 0.0 <= dist.tail_mass <= tail_tol

    @pytest.mark.parametrize("alpha,r", [(0.0, 0.0), (0.7, 0.3), (2.0, 1.0), (7.0, 1.0), (20.0, 3.0)])
    def test_moment_identity(self, alpha, r):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        assert mean_photon(dist) == pytest.approx(alpha * alpha + math.sinh(r) ** 2, abs=1e-6)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ParameterError):
            SqueezedParams(1.0, -0.1)

    def test_vacuum_mean_is_zero(self):
        assert mean_photon(coherent_distribution(CoherentParams(0.0))) == 0.0

    def test_mean_of_low_photon_field(self):
        dist = coherent_distribution(CoherentParams(math.sqrt(0.3)))
        assert mean_photon(dist) == pytest.approx(0.3, abs=1e-8)

    def test_mean_50_with_unit_squeezing(self):
        alpha = solve_alpha_for_mean(50.0, 1.0)
        dist = squeezed_distribution(SqueezedParams(alpha, 1.0))
        assert mean_photon(dist) == pytest.approx(50.0, abs=1e-6)


class TestBrightSqueezedField:
    """Means where the seed amplitude c_0 leaves the normal double range at r = 1
    (subnormal at 840, zero at 900)."""

    @pytest.fixture(params=[840.0, 900.0])
    def bright(self, request):
        alpha = solve_alpha_for_mean(request.param, 1.0)
        return alpha, squeezed_distribution(SqueezedParams(alpha, 1.0))

    def test_normalized(self, bright):
        _, dist = bright
        assert 1.0 - 1e-12 <= math.fsum(dist.probs) <= 1.0
        assert dist.tail_mass <= 1e-12

    def test_matches_closed_hermite_form(self, bright):
        mpmath = pytest.importorskip("mpmath")
        alpha, dist = bright
        with mpmath.workdps(30):
            mu, nu = mpmath.cosh(1), mpmath.sinh(1)
            beta = (mu + nu) * mpmath.mpf(alpha)
            x = beta / mpmath.sqrt(2 * mu * nu)
            scale = mpmath.exp(-beta**2 * (1 - nu / mu)) / mu
            ratio = nu / (2 * mu)
            ref = np.array(
                [
                    float(scale * ratio**n * mpmath.hermite(n, x) ** 2 / mpmath.factorial(n))
                    for n in range(dist.n_max + 1)
                ]
            )
        assert np.max(np.abs(dist.probs - ref)) < 1e-12
        bulk = ref > 1e-8
        assert np.max(np.abs(dist.probs[bulk] / ref[bulk] - 1.0)) < 1e-10


class TestTailContract:
    def test_squeezed_below_double_precision_raises(self):
        # renormalizing leaves the sum one ulp below 1: tail_mass 1.1e-16
        with pytest.raises(NumericsError):
            squeezed_distribution(SqueezedParams(0.5, 0.0), 1e-17)

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-15, 1e-16, 1e-17])
    @pytest.mark.parametrize("alpha,r", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (3.0, 1.0), (7.0, 2.0)])
    def test_tail_mass_within_tolerance_or_refused(self, alpha, r, tail_tol):
        builders = [lambda: squeezed_distribution(SqueezedParams(alpha, r), tail_tol)]
        if r == 0.0:
            builders.append(lambda: coherent_distribution(CoherentParams(alpha), tail_tol))
        for build in builders:
            try:
                dist = build()
            except NumericsError:
                assert tail_tol < 1e-12
                continue
            assert dist.tail_mass <= tail_tol
            assert 1.0 - tail_tol <= math.fsum(dist.probs) <= 1.0


class TestQuadratureVariances:
    def test_coherent_limit(self):
        da1, da2 = quadrature_variances(SqueezedParams(1.0, 0.0))
        assert (da1, da2) == (0.5, 0.5)

    def test_unit_squeezing(self):
        da1, da2 = quadrature_variances(SqueezedParams(0.0, 1.0))
        assert da1 == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-15)
        assert da2 == pytest.approx(math.exp(1.0) / 2.0, rel=1e-15)

    def test_half_squeezing_values(self):
        da1, da2 = quadrature_variances(SqueezedParams(0.0, 0.5))
        assert da1 == pytest.approx(0.3032653298563167, abs=1e-15)
        assert da2 == pytest.approx(0.8243606353500641, abs=1e-15)

    @pytest.mark.parametrize("r", np.linspace(0.0, 3.0, 31).tolist())
    def test_uncertainty_product(self, r):
        da1, da2 = quadrature_variances(SqueezedParams(0.0, r))
        assert abs(da1 * da2 - 0.25) <= ULP_QUARTER
        if r > 1e-12:
            assert da1 < 0.5 < da2


class TestSolveAlphaForMean:
    def test_no_squeezing(self):
        assert solve_alpha_for_mean(0.3, 0.0) == pytest.approx(math.sqrt(0.3), abs=1e-15)

    def test_with_squeezing(self):
        alpha = solve_alpha_for_mean(0.3, 0.5)
        assert alpha == pytest.approx(0.168699978044984, abs=1e-12)
        assert alpha * alpha + math.sinh(0.5) ** 2 == pytest.approx(0.3, abs=1e-15)

    def test_infeasible_target(self):
        with pytest.raises(ParameterError):
            solve_alpha_for_mean(0.1, 1.0)  # sinh^2(1) ~ 1.381 > 0.1

    def test_boundary_target(self):
        assert solve_alpha_for_mean(math.sinh(1.0) ** 2, 1.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ParameterError):
            solve_alpha_for_mean(-1.0, 0.0)
        with pytest.raises(ParameterError):
            solve_alpha_for_mean(1.0, -0.5)
