"""Photon-number statistics of coherent and squeezed coherent cavity fields.

A squeezed coherent field with real amplitude ``alpha >= 0`` and squeezing
parameter ``r >= 0`` has the Hermite-polynomial distribution; here it is
generated from the Fock amplitudes c_n of the state, which satisfy the
three-term recurrence

    c_{n+1} = (beta c_n - nu sqrt(n) c_{n-1}) / (mu sqrt(n+1)),

with mu = cosh r, nu = sinh r, beta = (mu + nu) alpha and seed
c_0 = exp(-beta^2 (1 - nu/mu) / 2) / sqrt(mu).  The recurrence is
mathematically equivalent to the closed-form expression but does not overflow
(the direct form multiplies n!, (nu/2mu)^n and H_n^2, which blows up past
n ~ 150 at <n> = 50).  The amplitudes are real, because alpha and r are, but
for r > 0 they change sign: at <n> = 0.3, r = 0.5, 22 of the 44 c_n are
negative.  P_n = c_n^2 throughout, which drops that sign, so the downstream
sums see the state sum_n |c_n| |n>, not the squeezed coherent state.  Moving
to the signed amplitudes is an open item of ROADMAP.md.  For r = 0 every
c_n >= 0.

A coherent field is the squeezed field at r = 0, and it is generated by the
same recurrence: c_0 = exp(-alpha^2 / 2), c_{n+1} = alpha c_n / sqrt(n+1),
the Poissonian P_n = exp(-<n>) <n>^n / n! with mean photon number
<n> = alpha^2.

Distributions are truncated at the smallest n reaching cumulative mass
1 - tail_tol, plus a safety margin that protects the sqrt(P_n P_{n-2})
cross terms used downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError

DEFAULT_TAIL_TOL = 1e-12
TAIL_MARGIN = 10
_MAX_TERMS = 200_000
_NORM_DRIFT_TOL = 1e-6
_LN2 = math.log(2.0)
_SEED_EXP = -1000


def _exact_sum(arr) -> float:
    """The correctly rounded sum of a nonnegative vector, by math.fsum over
    its terms largest first.  The order does not change the result, only the
    time: a bright distribution spans hundreds of decades (P_0 ~ 1e-174 at
    <n> = 400), and in ascending n order fsum carries up to 261 partial sums
    from term to term there, largest first at most 20."""
    return math.fsum(np.sort(arr)[::-1].tolist())


def _terms_exhausted(tail_tol) -> NumericsError:
    return NumericsError(
        f"photon distribution did not reach tail tolerance {tail_tol} within {_MAX_TERMS} terms"
    )


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SqueezedParams:
    """Real amplitude alpha >= 0 and squeezing parameter r >= 0, with cosh r
    finite in double precision (r below about 710.48).

    r < 0 (phase squeezing, a super-Poissonian field) stays refused until it is
    checked against an independent reference (ROADMAP item 10); the recurrence
    itself needs no complex argument there.
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
        try:
            math.cosh(self.r)
        except OverflowError:
            raise ParameterError(f"r={self.r} is too large: cosh(r) overflows a double") from None


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Truncated photon-number distribution.

    probs[n] is the probability of n photons for n = 0..n_max; sum(probs) +
    tail_mass must be 1 within 1e-6.  squeezed_distribution sets tail_mass to
    1 - sum of its renormalized vector (0, 2^-53 or 2^-52), not to the mass
    the truncation discarded (ROADMAP item 4).  The vector is read-only.
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
        total = float(np.sum(arr)) + self.tail_mass
        if abs(total - 1.0) > _NORM_DRIFT_TOL:
            raise ParameterError(f"sum(probs) + tail_mass must be 1 within 1e-6, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return len(self.probs) - 1


def squeezed_distribution(
    params: SqueezedParams, tail_tol: float = DEFAULT_TAIL_TOL
) -> PhotonDistribution:
    """Photon distribution of a squeezed coherent field via the stable recurrence.

    P_n = c_n^2 with the Fock amplitudes c_n generated by the three-term
    recurrence (see module docstring); r = 0 gives the coherent field.
    Normalization is verified, not imposed: a truncated sum outside
    [1 - tail_tol - 1e-6, 1 + 1e-6] is rejected, otherwise the vector is
    renormalized by the measured sum.

    The terms are summed with Kahan compensation, and generation stops
    TAIL_MARGIN terms after the cumulative mass first reaches 1 - tail_tol.
    If the running sum stops changing well past the mean (every remaining
    term is below one ulp), nothing more can be gained in double precision
    and it stops there.  A tail_tol below 2^-52 is refused: renormalized,
    every field leaves 1 - sum at 0, 2^-53 or 2^-52, so roundoff would decide.
    """
    if not (0.0 < tail_tol < 1.0):
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    if tail_tol < sys.float_info.epsilon:
        raise NumericsError(
            f"tail tolerance {tail_tol} is unattainable in double precision: "
            f"it must be at least 2**-52 = {sys.float_info.epsilon!r}"
        )
    mu, nu = math.cosh(params.r), math.sinh(params.r)
    beta = (mu + nu) * params.alpha
    mean = params.alpha * params.alpha + nu * nu
    # The mass lies around n = mean, a share of it of order one at n >= mean
    # (half for a bright coherent field, a third for a strongly squeezed one):
    # a field whose mean is not below _MAX_TERMS, or is infinite, cannot be
    # gathered by the loop below, and its seed may not even be representable.
    if not mean < _MAX_TERMS:
        raise _terms_exhausted(tail_tol)
    exponent = -0.5 * beta * beta * (1.0 - nu / mu)
    c_prev = 0.0
    c_cur = math.exp(exponent) / math.sqrt(mu)
    # A seed below the normal double range (mean >~ 800 at r = 1) would lose
    # its bits, so the recurrence then runs on amplitudes scaled by 2^shift,
    # starting near 2^_SEED_EXP; ldexp undoes the scale exactly, and it is
    # paid back once the scaled amplitudes pass 1.
    shift = 0
    if c_cur < sys.float_info.min:
        shift = _SEED_EXP - math.floor((exponent - 0.5 * math.log(mu)) / _LN2)
        c_cur = math.exp(exponent + shift * _LN2) / math.sqrt(mu)
    probs = []
    cum = comp = 0.0
    stale = 0
    stop_at = None
    for n in range(_MAX_TERMS):
        c = math.ldexp(c_cur, -shift)
        p = c * c
        probs.append(p)
        y = p - comp
        t = cum + y
        comp = (t - cum) - y
        stale = stale + 1 if t == cum else 0
        cum = t
        if stop_at is None and (cum >= 1.0 - tail_tol or (stale >= 5 and n > mean + 10)):
            stop_at = n + TAIL_MARGIN
        if n == stop_at:
            break
        c_next = (beta * c_cur - nu * math.sqrt(n) * c_prev) / (mu * math.sqrt(n + 1))
        c_prev, c_cur = c_cur, c_next
        if shift and c_cur > 1.0:
            drop = min(shift, math.frexp(c_cur)[1])
            c_prev, c_cur = math.ldexp(c_prev, -drop), math.ldexp(c_cur, -drop)
            shift -= drop
    else:
        raise _terms_exhausted(tail_tol)
    while len(probs) > 1 and probs[-1] == 0.0:
        probs.pop()
    arr = np.array(probs)
    total = _exact_sum(arr)
    if not 1.0 - tail_tol - _NORM_DRIFT_TOL <= total <= 1.0 + _NORM_DRIFT_TOL:
        raise NumericsError(
            f"squeezed amplitude recurrence lost normalization: sum(P_n) = {total!r} "
            f"for alpha={params.alpha}, r={params.r}"
        )
    # renormalize by the measured sum, exactly rounded whatever the order of
    # the terms (see _exact_sum); while it still exceeds 1 (by a few ulp),
    # divide by it again, at most 8 more times.  Each quotient and the sum
    # are within a relative 2^-53, so the exact sum of the quotients exceeds
    # (1 - 2^-53) / (1 + 2^-53) > 1 - 2^-52, and fsum cannot round it lower.
    for _ in range(9):
        arr = arr / total
        total = _exact_sum(arr)
        if not total > 1.0:
            break
    return PhotonDistribution(arr, max(0.0, 1.0 - total))


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
    try:
        squeeze_mean = math.sinh(r) ** 2
    except OverflowError:  # from r ~ 355.4: more than any finite mean
        squeeze_mean = math.inf
    if target_mean < squeeze_mean:
        raise ParameterError(
            f"target mean {target_mean} is infeasible: squeezing r={r} alone "
            f"contributes sinh^2(r) = {squeeze_mean}"
        )
    return math.sqrt(target_mean - squeeze_mean)
