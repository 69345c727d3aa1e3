"""Photon-number statistics of coherent and squeezed coherent cavity fields.

A coherent field of real amplitude ``alpha`` has the Poissonian distribution
P_n = exp(-<n>) <n>^n / n! with mean photon number <n> = alpha^2.  A squeezed
coherent field with squeezing parameter ``r >= 0`` has the Hermite-polynomial
distribution; here it is generated from the Fock amplitudes c_n of the state,
which satisfy the three-term recurrence

    c_{n+1} = (beta c_n - nu sqrt(n) c_{n-1}) / (mu sqrt(n+1)),

with mu = cosh r, nu = sinh r, beta = (mu + nu) alpha and seed
c_0 = exp(-beta^2 (1 - nu/mu) / 2) / sqrt(mu).  The recurrence is
mathematically equivalent to the closed-form expression but does not overflow
(the direct form multiplies n!, (nu/2mu)^n and H_n^2, which blows up past
n ~ 150 at <n> = 50).  P_n = c_n^2 throughout; amplitudes are real and
nonnegative because alpha is restricted to real values >= 0.

Distributions are truncated at the smallest n reaching cumulative mass
1 - tail_tol, plus a safety margin that protects the sqrt(P_n P_{n-2})
cross terms used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, ParameterError

TAIL_MARGIN = 10
_MAX_TERMS = 200_000
_NORM_DRIFT_TOL = 1e-6


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CoherentParams:
    """Real, nonnegative coherent amplitude. Mean photon number is alpha**2."""

    alpha: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha)
        if self.alpha < 0.0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class SqueezedParams:
    """Real amplitude alpha >= 0 and squeezing parameter r >= 0.

    r < 0 (the super-Poissonian regime) needs a complex Hermite argument and a
    phase convention we do not support; it is rejected rather than guessed.
    """

    alpha: float
    r: float

    def __post_init__(self):
        _require_finite("alpha", self.alpha)
        _require_finite("r", self.r)
        if self.alpha < 0.0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}")
        if self.r < 0.0:
            raise ParameterError(
                f"r < 0 is an unsupported regime (got r={self.r}); only r >= 0 is implemented"
            )

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> float:
        return math.sinh(self.r)

    @property
    def beta(self) -> float:
        return (self.mu + self.nu) * self.alpha


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Truncated photon-number distribution.

    probs[n] is the probability of n photons for n = 0..n_max; tail_mass is
    the probability discarded by the truncation (always >= 0 and at most the
    construction tolerance).  The probability vector is read-only.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise ParameterError("probs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ParameterError("every probability must lie in [0, 1]")
        if not (0.0 <= self.tail_mass <= 1.0):
            raise ParameterError(f"tail_mass must lie in [0, 1], got {self.tail_mass!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1


class QuadratureVariances(NamedTuple):
    """Pair of field-quadrature standard deviations, da1 * da2 >= 1/4."""

    da1: float
    da2: float


def _check_tail_tol(tail_tol):
    if not (0.0 < tail_tol < 1.0):
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")


class _Truncator:
    """Kahan-compensated cumulative sum with the shared stopping rule.

    Stops TAIL_MARGIN terms after the cumulative mass first reaches
    1 - tail_tol.  If the running sum stops changing well past the mean
    (every remaining term is below one ulp), nothing more can be gained in
    double precision and it stops there instead; `_checked_distribution`
    then refuses a tolerance the plateau does not meet.
    """

    def __init__(self, tail_tol, mean):
        self.tail_tol = tail_tol
        self.mean = mean
        self.cum = 0.0
        self._comp = 0.0
        self._stale = 0
        self._stop_at = None
        self._n = -1

    def add(self, p) -> bool:
        """Feed P_n for the next n; returns True while more terms are needed."""
        self._n += 1
        y = p - self._comp
        t = self.cum + y
        self._comp = (t - self.cum) - y
        self._stale = self._stale + 1 if t == self.cum else 0
        self.cum = t
        if self._stop_at is None:
            if self.cum >= 1.0 - self.tail_tol:
                self._stop_at = self._n + TAIL_MARGIN
            elif self._stale >= 5 and self._n > self.mean + 10:
                self._stop_at = self._n + TAIL_MARGIN
        if self._n >= _MAX_TERMS:
            raise NumericsError(
                f"photon distribution did not reach tail tolerance {self.tail_tol} "
                f"within {_MAX_TERMS} terms"
            )
        return self._stop_at is None or self._n < self._stop_at


def _trim_trailing_zeros(probs):
    while len(probs) > 1 and probs[-1] == 0.0:
        probs.pop()
    return probs


def _checked_distribution(arr, tail_tol):
    """Distribution from truncated probabilities, holding tail_mass <= tail_tol.

    Rescales (at most a few ulp) so the exactly-rounded sum never exceeds 1,
    then refuses a tolerance that double precision did not reach.
    """
    total = math.fsum(arr)
    guard = 0
    while total > 1.0 and guard < 8:
        arr = arr / total
        total = math.fsum(arr)
        guard += 1
    tail_mass = max(0.0, 1.0 - total)
    if tail_mass > tail_tol:
        raise NumericsError(
            f"tail tolerance {tail_tol} is unattainable in double precision: "
            f"the truncated distribution leaves tail mass {tail_mass!r}"
        )
    return PhotonDistribution(arr, tail_mass)


def coherent_distribution(params: CoherentParams, tail_tol: float = 1e-12) -> PhotonDistribution:
    """Poissonian photon distribution of a coherent field, P_n = e^-<n> <n>^n / n!.

    Each term is evaluated in log space (log-gamma for the factorial) so the
    <n> = 50 regime neither overflows nor loses accuracy.
    """
    _check_tail_tol(tail_tol)
    mean = params.alpha * params.alpha
    if mean == 0.0:
        return PhotonDistribution(np.array([1.0]), 0.0)
    log_mean = math.log(mean)
    acc = _Truncator(tail_tol, mean)
    probs = []
    n = 0
    more = True
    while more:
        p = math.exp(-mean + n * log_mean - math.lgamma(n + 1))
        probs.append(p)
        more = acc.add(p)
        n += 1
    return _checked_distribution(np.array(_trim_trailing_zeros(probs)), tail_tol)


def squeezed_distribution(params: SqueezedParams, tail_tol: float = 1e-12) -> PhotonDistribution:
    """Photon distribution of a squeezed coherent field via the stable recurrence.

    P_n = c_n^2 with the Fock amplitudes c_n generated by the three-term
    recurrence (see module docstring).  Normalization is verified, not
    imposed: if the truncated sum drifts from 1 by more than 1e-6 the result
    is rejected, otherwise the vector is renormalized by the measured sum.
    At r = 0 this reproduces the Poissonian of `coherent_distribution` to
    better than 1e-12 pointwise.
    """
    _check_tail_tol(tail_tol)
    mu, nu, beta = params.mu, params.nu, params.beta
    mean = params.alpha * params.alpha + nu * nu
    c_prev = 0.0
    c_cur = math.exp(-0.5 * beta * beta * (1.0 - nu / mu)) / math.sqrt(mu)
    acc = _Truncator(tail_tol, mean)
    probs = []
    n = 0
    more = True
    while more:
        probs.append(c_cur * c_cur)
        more = acc.add(probs[-1])
        c_next = (beta * c_cur - nu * math.sqrt(n) * c_prev) / (mu * math.sqrt(n + 1))
        c_prev, c_cur = c_cur, c_next
        n += 1
    arr = np.array(_trim_trailing_zeros(probs))
    total = math.fsum(arr)
    if abs(total - 1.0) > _NORM_DRIFT_TOL:
        raise NumericsError(
            f"squeezed amplitude recurrence lost normalization: sum(P_n) = {total!r} "
            f"for alpha={params.alpha}, r={params.r}"
        )
    return _checked_distribution(arr / total, tail_tol)


def mean_photon(dist: PhotonDistribution) -> float:
    """Mean photon number sum(n * P_n) of a truncated distribution."""
    n = np.arange(len(dist.probs), dtype=float)
    return math.fsum(n * dist.probs)


def quadrature_variances(params: SqueezedParams) -> QuadratureVariances:
    """Quadrature standard deviations (e^-r / 2, e^r / 2) of the squeezed field.

    da2 is derived as 0.25/da1 so the minimum-uncertainty product da1*da2
    equals 1/4 to within one rounding; r = 0 gives the coherent value
    (1/2, 1/2) exactly.
    """
    da1 = 0.5 * math.exp(-params.r)
    return QuadratureVariances(da1, 0.25 / da1)


def solve_alpha_for_mean(target_mean: float, r: float) -> float:
    """Amplitude alpha giving mean photon number alpha^2 + sinh^2(r) == target_mean.

    Raises ParameterError if the squeezing alone already exceeds the target
    (target_mean < sinh^2 r).
    """
    _require_finite("target_mean", target_mean)
    _require_finite("r", r)
    if target_mean < 0.0:
        raise ParameterError(f"target_mean must be >= 0, got {target_mean}")
    if r < 0.0:
        raise ParameterError(f"r must be >= 0, got {r}")
    squeeze_mean = math.sinh(r) ** 2
    if target_mean < squeeze_mean:
        raise ParameterError(
            f"target mean {target_mean} is infeasible: squeezing r={r} alone "
            f"contributes sinh^2(r) = {squeeze_mean}"
        )
    return math.sqrt(target_mean - squeeze_mean)
