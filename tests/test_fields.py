import functools
import math

import numpy as np
import pytest

from cavent import (
    NumericsError,
    ParameterError,
    SqueezedParams,
    solve_alpha_for_mean,
    squeezed_distribution,
)
import cavent.fields as fields
from reference import poisson_reference


def mean_photon(dist):
    """Mean photon number sum(n * P_n) of a truncated distribution."""
    return math.fsum(np.arange(len(dist.probs)) * dist.probs)


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


@functools.lru_cache(maxsize=None)
def exact_mass_past(alpha, r, n_end):
    """40-digit mass past n, for n = 0..n_end, of the squeezed coherent field,
    from the amplitude recurrence run in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu, nu = mpmath.cosh(r), mpmath.sinh(r)
        beta = (mu + nu) * mpmath.mpf(alpha)
        c_prev, c = mpmath.mpf(0), mpmath.exp(-(beta**2) * (1 - nu / mu) / 2) / mpmath.sqrt(mu)
        past, total = [], mpmath.mpf(0)
        for n in range(n_end + 1):
            total += c * c
            past.append(float(1 - total))
            c_prev, c = c, (beta * c - nu * mpmath.sqrt(n) * c_prev) / (mu * mpmath.sqrt(n + 1))
        return past


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
        dist = squeezed_distribution(SqueezedParams(0.0, 0.0))
        assert dist.probs.tolist() == [1.0]
        assert dist.n_max == 0
        assert dist.tail_mass == 0.0

    def test_ground_probability_alpha_one(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
        assert dist.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_poisson_mode_at_mean_50(self):
        dist = squeezed_distribution(SqueezedParams(math.sqrt(50.0), 0.0))
        assert int(np.argmax(dist.probs)) in (49, 50)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0, math.sqrt(50.0), 20.0])
    def test_matches_reference_formula(self, alpha):
        dist = squeezed_distribution(SqueezedParams(alpha, 0.0))
        ref = poisson_reference(alpha * alpha, dist.n_max)
        assert np.max(np.abs(dist.probs - ref)) < 1e-13

    def test_rejects_bad_alpha(self):
        # a bool, a string or None is not a number, even where numpy would
        # convert it to one
        for alpha in (float("nan"), float("inf"), -0.5, True, "1", None, [1.0]):
            with pytest.raises(ParameterError):
                SqueezedParams(alpha, 0.0)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, -1e-3, 2.0, "1e-12", None, 1e-12 + 0j])
    def test_rejects_bad_tail_tol(self, tail_tol):
        with pytest.raises(ParameterError):
            squeezed_distribution(SqueezedParams(1.0, 0.0), tail_tol)

    @pytest.mark.parametrize("mean", [400, 5000])
    def test_tight_tail_tolerance_met(self, mean):
        alpha = math.sqrt(mean)
        dist = squeezed_distribution(SqueezedParams(alpha, 0.0), 1e-15)
        _, discarded = exact_poisson(alpha, dist.n_max)
        assert discarded <= 1e-15

    @pytest.mark.parametrize("mean", [400, 2060, 5000])
    def test_bright_field_matches_exact_poissonian(self, mean):
        alpha = math.sqrt(mean)
        dist = squeezed_distribution(SqueezedParams(alpha, 0.0))
        ref, discarded = exact_poisson(alpha, dist.n_max)
        bulk = ref > 1e-6 * ref.max()
        assert np.max(np.abs(dist.probs[bulk] / ref[bulk] - 1.0)) < 1e-12
        assert discarded <= 1e-12

    def test_probs_are_read_only(self):
        dist = squeezed_distribution(SqueezedParams(1.0, 0.0))
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
        # entries and tail masses that are not numbers
        for probs, tail_mass in (
            (["0.5", "0.5"], 0.0), ([True], 0.0), ([None], 0.0), ([0.5, [0.5]], 0.0),
            ([1.0], "0"), ([1.0], None),
        ):
            with pytest.raises(ParameterError):
                PhotonDistribution(probs, tail_mass)

    # a sum short of 1 is refused whatever tail_mass says: its state's trace
    # would be that sum
    @pytest.mark.parametrize(
        "probs,tail_mass",
        [([1.0, 1.0, 1.0], 0.0), ([0.5, 0.3], 0.0), ([0.5, 0.3], 0.2), ([0.9], 0.1)],
    )
    def test_unnormalized_construction_is_refused(self, probs, tail_mass):
        from cavent import PhotonDistribution

        with pytest.raises(ParameterError, match="must be 1"):
            PhotonDistribution(np.array(probs), tail_mass)

    @pytest.mark.parametrize(
        "probs,tail_mass",
        [([1.0], 0.0), ([0.5, 0.5], 0.0), ([0.5, 0.5], 0.1)],
    )
    def test_normalized_construction_is_accepted(self, probs, tail_mass):
        from cavent import PhotonDistribution

        assert PhotonDistribution(np.array(probs), tail_mass).tail_mass == tail_mass
        # a list of floats is a vector of real numbers too
        assert np.array_equal(PhotonDistribution(probs, tail_mass).probs, probs)


class TestSqueezedDistribution:
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
        [(0.0, 0.0), (0.3, 0.0), (1.0, 0.0), (7.0, 0.0), (20.0, 0.0)]
        + [(0.5, 0.5), (1.0, 1.0), (3.0, 2.0), (20.0, 3.0), (0.0, 3.0)],
    )
    def test_normalization_envelope(self, alpha, r):
        tail_tol = 1e-12
        dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        total = math.fsum(dist.probs)
        assert 1.0 - tail_tol <= total <= 1.0
        assert 0.0 <= dist.tail_mass <= tail_tol
        assert np.all(dist.probs >= 0.0) and np.all(dist.probs <= 1.0)

    @pytest.mark.parametrize("alpha,r", [(0.0, 0.0), (0.7, 0.3), (2.0, 1.0), (7.0, 1.0), (20.0, 3.0)])
    def test_moment_identity(self, alpha, r):
        dist = squeezed_distribution(SqueezedParams(alpha, r))
        assert mean_photon(dist) == pytest.approx(alpha * alpha + math.sinh(r) ** 2, abs=1e-6)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ParameterError):
            SqueezedParams(1.0, -0.1)

    @pytest.mark.parametrize("r", [711.0, 1e300])
    def test_rejects_squeezing_whose_cosh_overflows(self, r):
        # cosh overflows a double past _R_MAX ~ 710.476
        with pytest.raises(ParameterError, match="r must be finite and >= 0.0 and <= 710.47586"):
            SqueezedParams(1.0, r)

    def test_squeezing_bound_is_the_cosh_overflow_edge(self):
        # r's one bound is where libm's cosh leaves the doubles
        edge = fields._R_MAX
        assert SqueezedParams(1.0, edge).r == edge and math.isfinite(math.cosh(edge))
        past = float(np.nextafter(edge, math.inf))
        with pytest.raises(OverflowError):
            math.cosh(past)
        for r in (past, 711.0):
            with pytest.raises(ParameterError, match="^r must be finite and >= 0.0 and <= "):
                SqueezedParams(1.0, r)
            with pytest.raises(ParameterError, match="^r must be finite and >= 0.0 and <= "):
                solve_alpha_for_mean(1.0, r)

    @pytest.mark.parametrize(
        "alpha,r", [(1e200, 0.0), (1e154, 0.0), (1.0, 710.0), (math.sqrt(199_999.0), 0.0)]
    )
    def test_mean_beyond_the_term_cap_is_refused(self, alpha, r):
        # alpha^2 overflows at 1e200, sinh^2(r) at r = 710; at 1e154 the mean is
        # 1e308.  A mean of 199,999 passes the check before the loop, whose
        # 200,000 terms then end inside the distribution's bulk.
        with pytest.raises(NumericsError, match="within 200000 terms"):
            squeezed_distribution(SqueezedParams(alpha, r))

    def test_mean_of_low_photon_field(self):
        dist = squeezed_distribution(SqueezedParams(math.sqrt(0.3), 0.0))
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
    # ROADMAP item 4's grid: refused by the 2^-52 rule, whichever way the last
    # bit of the renormalized sum falls
    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_below_double_precision_refused_by_rule(self, alpha, r):
        with pytest.raises(NumericsError, match="unattainable in double precision"):
            squeezed_distribution(SqueezedParams(alpha, r), 1e-17)

    @pytest.mark.parametrize("tail_tol", [2.0**-52, 2.0**-53, 1e-300, 5e-324])
    def test_refusal_threshold_is_two_to_the_minus_52(self, tail_tol):
        params = SqueezedParams(1.0, 0.5)
        if tail_tol >= 2.0**-52:
            assert squeezed_distribution(params, tail_tol).tail_mass <= tail_tol
        else:
            with pytest.raises(NumericsError, match="at least 2\\*\\*-52"):
                squeezed_distribution(params, tail_tol)

    # one division by the exactly rounded sum leaves each quotient and the
    # sum within a relative 2^-53, so the renormalized vector sums to 1
    # within 2^-52
    @pytest.mark.parametrize("tail_tol", [2.0**-52, 1e-12])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.2, 7.0, 20.0, 30.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_renormalized_tail_mass_values(self, alpha, r, tail_tol):
        dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        assert abs(math.fsum(dist.probs) - 1.0) <= 2.0**-52

    # a loose tolerance truncates near the mean, and the kept sum, short of 1
    # by up to the tolerance, is renormalized, not refused
    @pytest.mark.parametrize("tail_tol", [1e-5, 1e-4, 1e-3, 0.5])
    @pytest.mark.parametrize("mean,r", [(400.0, 0.0), (400.0, 1.0), (50.0, 1.0)])
    def test_loose_tolerance_is_renormalized(self, mean, r, tail_tol):
        params = SqueezedParams(solve_alpha_for_mean(mean, r), r)
        dist = squeezed_distribution(params, tail_tol)
        assert dist.n_max < squeezed_distribution(params).n_max
        assert abs(math.fsum(dist.probs) - 1.0) <= 2.0**-52

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-15, 1e-16, 1e-17])
    @pytest.mark.parametrize("alpha,r", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (3.0, 1.0), (7.0, 2.0)])
    def test_tail_mass_within_tolerance_or_refused(self, alpha, r, tail_tol):
        try:
            dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        except NumericsError:
            assert tail_tol < 1e-12
            return
        assert dist.tail_mass <= tail_tol
        assert 1.0 - tail_tol <= math.fsum(dist.probs) <= 1.0


class TestTailFromTerms:
    # (alpha, r): means 0.3, 50, 400 and 2000 at every feasible r in 0..3,
    # and two squeezed vacua
    FIELDS = [
        pytest.param(solve_alpha_for_mean(mean, r), r, id=f"mean{mean:g}-r{r:g}")
        for mean in (0.3, 50.0, 400.0, 2000.0)
        for r in (0.0, 1.0, 2.0, 3.0)
        if mean >= math.sinh(r) ** 2
    ] + [pytest.param(0.0, r, id=f"vacuum-r{r:g}") for r in (0.5, 1.0)]
    TOLS = [1e-6, 1e-12, 1e-15]

    @classmethod
    def mass_past(cls, alpha, r):
        # up to the n_max of the tightest tolerance at the default margin,
        # the most terms any case here keeps
        n_end = squeezed_distribution(SqueezedParams(alpha, r), min(cls.TOLS)).n_max
        return exact_mass_past(alpha, r, n_end)

    @pytest.mark.parametrize("tail_tol", TOLS)
    @pytest.mark.parametrize("alpha,r", FIELDS)
    def test_discarded_mass_is_tail_mass(self, alpha, r, tail_tol):
        past = self.mass_past(alpha, r)
        dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        assert past[dist.n_max] <= tail_tol
        assert abs(dist.tail_mass - past[dist.n_max]) <= 1e-3 * past[dist.n_max]

    # Cauchy-Schwarz bounds the dropped coherences by the tails:
    # sum_{n > n_max} sqrt(P_n P_{n-2}) <= sqrt(tail_{n_max+1} tail_{n_max-1}),
    # tail_m the mass from m on; a margin of 2 puts n_max - 2 at or past the
    # cut, so both tails are at most tail_tol
    @pytest.mark.parametrize("margin", [2, fields.TAIL_MARGIN])
    @pytest.mark.parametrize("tail_tol", TOLS)
    @pytest.mark.parametrize("alpha,r", FIELDS)
    def test_dropped_coherences_within_tolerance(self, monkeypatch, alpha, r, tail_tol, margin):
        past = self.mass_past(alpha, r)
        monkeypatch.setattr(fields, "TAIL_MARGIN", margin)
        dist = squeezed_distribution(SqueezedParams(alpha, r), tail_tol)
        assert math.sqrt(past[dist.n_max] * past[dist.n_max - 2]) <= tail_tol


class TestNormalizationSum:
    # (mean, r) from dim to the brightest fields, the seed rescaling of
    # mean >~ 800 at r = 1 included; r = 1 cannot reach mean 0.3
    FIELDS = [
        (mean, r)
        for mean in (0.3, 50.0, 400.0, 805.0, 5000.0)
        for r in (0.0, 0.5, 1.0)
        if mean > 1.0 or r < 1.0
    ]

    @pytest.mark.parametrize("tail_tol", [1e-6, 1e-12, 1e-16, 1e-17])
    @pytest.mark.parametrize("mean,r", FIELDS)
    def test_ordered_sum_gives_the_natural_order_bits(self, monkeypatch, mean, r, tail_tol):
        params = SqueezedParams(solve_alpha_for_mean(mean, r), r)

        def build():
            try:
                return squeezed_distribution(params, tail_tol)
            except NumericsError as err:
                return str(err)

        ordered = build()
        # the sum as it was taken before: math.fsum over ascending n
        monkeypatch.setattr(fields, "_exact_sum", math.fsum)
        natural = build()
        if isinstance(natural, str):
            assert ordered == natural
        else:
            assert np.array_equal(ordered.probs, natural.probs)
            assert ordered.tail_mass == natural.tail_mass

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ordered_sum_is_fsum_over_hundreds_of_decades(self, seed):
        rng = np.random.default_rng(seed)
        arr = 10.0 ** rng.uniform(-320.0, 0.0, 1000)
        arr[rng.integers(0, 1000, 50)] = 0.0
        arr[rng.integers(0, 1000, 50)] = arr[7]
        assert fields._exact_sum(arr) == math.fsum(arr.tolist())


class TestSolveAlphaForMean:
    def test_no_squeezing(self):
        assert solve_alpha_for_mean(0.3, 0.0) == pytest.approx(math.sqrt(0.3), abs=1e-15)

    def test_with_squeezing(self):
        alpha = solve_alpha_for_mean(0.3, 0.5)
        assert alpha == pytest.approx(0.168699978044984, abs=1e-12)
        assert alpha * alpha + math.sinh(0.5) ** 2 == pytest.approx(0.3, abs=1e-15)

    # sinh^2(1) ~ 1.381 > 0.1; sinh(r)^2 overflows from r ~ 355.4, sinh(r) past
    # _R_MAX ~ 710.476, which is refused as out of range
    @pytest.mark.parametrize("target,r", [(0.1, 1.0), (1.0, 356.0), (1.0, 710.0)])
    def test_infeasible_target(self, target, r):
        with pytest.raises(ParameterError, match="is infeasible"):
            solve_alpha_for_mean(target, r)

    def test_boundary_target(self):
        assert solve_alpha_for_mean(math.sinh(1.0) ** 2, 1.0) == 0.0
        # the vacuum: mean 0 is a target, not a refusal
        assert solve_alpha_for_mean(0.0, 0.0) == 0.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ParameterError):
            solve_alpha_for_mean(-1.0, 0.0)
        with pytest.raises(ParameterError):
            solve_alpha_for_mean(1.0, -0.5)
        # and inputs that are not numbers
        for target, r in ((True, 0.0), ("1", 0.0), (None, 0.0), (1.0, "0"), (1.0, False)):
            with pytest.raises(ParameterError):
                solve_alpha_for_mean(target, r)
