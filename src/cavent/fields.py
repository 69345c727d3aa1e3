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

A distribution is cut at the smallest n whose tail, the mass past n summed
from the terms themselves, is at most tail_tol, and kept for TAIL_MARGIN
more terms.  Any margin of at least 2 also bounds the sqrt(P_n P_{n-2})
coherences used downstream: by Cauchy-Schwarz the dropped ones sum to at
most sqrt(tail_{n_max+1} tail_{n_max-1}) <= tail_tol, tail_m the mass from
m on, and the rest of the margin is headroom.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import _UNIT_SUM_TOL, NumericsError, ParameterError, _in_range, _real_number

DEFAULT_TAIL_TOL = 1e-12
TAIL_MARGIN = 10
_MAX_TERMS = 200_000
# r's one bound: the largest r whose cosh, the recurrence's mu, is finite in
# double precision (~710.476)
_R_MAX = math.acosh(sys.float_info.max)
_LN2 = math.log(2.0)
_SEED_EXP = -1000
_TAIL_FLOOR = 2.0**-30


def _exact_sum(arr) -> float:
    """The correctly rounded sum of a nonnegative vector, by math.fsum over
    its terms largest first.  The order does not change the result, only the
    time: a bright distribution spans hundreds of decades (P_0 ~ 1e-174 at
    <n> = 400), and in ascending n order fsum carries up to 261 partial sums
    from term to term there, largest first at most 20.  The builtin sorted
    orders the terms: a fresh process that never calls a numpy sort does not
    page in numpy's sort kernels."""
    return math.fsum(sorted(arr.tolist(), reverse=True))


def _terms_exhausted(tail_tol) -> NumericsError:
    return NumericsError(
        f"photon distribution did not reach tail tolerance {tail_tol} within {_MAX_TERMS} terms"
    )


@dataclass(frozen=True)
class SqueezedParams:
    """Real amplitude alpha >= 0 and squeezing parameter 0 <= r <= _R_MAX =
    acosh(DBL_MAX) ~ 710.476, the largest r whose cosh is finite in double
    precision; both are stored as floats.

    r < 0 (phase squeezing, a super-Poissonian field) stays refused until it is
    checked against an independent reference (ROADMAP item 10); the recurrence
    itself needs no complex argument there.
    """

    alpha: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real_number(self.alpha, "alpha", 0.0))
        object.__setattr__(self, "r", _real_number(self.r, "r", 0.0, _R_MAX))


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Truncated photon-number distribution.

    probs[n] is the probability of n photons for n = 0..n_max, and tail_mass
    reports the generated mass past n_max that the truncation discarded.
    squeezed_distribution generates terms only up to a point and leaves out
    the mass beyond it, which read below a relative 1e-5 of tail_mass (see
    there), so the mass past n_max can exceed tail_mass by that share
    (ROADMAP item 14).  sum(probs) must be 1 within 1e-6 whatever tail_mass
    says: the two-atom state's trace is that sum, and `concurrence` refuses a
    trace off 1 by more than 1e-6.  squeezed_distribution renormalizes the
    kept terms over 0..n_max, so its sum is 1.  The vector is read-only.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        arr = np.array(_in_range(self.probs, "probs", 0.0, 1.0))
        if arr.ndim != 1 or len(arr) == 0:
            raise ParameterError("probs must be a nonempty 1-D vector")
        object.__setattr__(self, "tail_mass", _real_number(self.tail_mass, "tail_mass", 0.0, 1.0))
        total = float(np.sum(arr))
        if abs(total - 1.0) > _UNIT_SUM_TOL:
            raise ParameterError(f"sum(probs) must be 1 within {_UNIT_SUM_TOL}, got {total!r}")
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

    Generation stops TAIL_MARGIN terms past the first n > mean where two
    successive terms (a squeezed vacuum has no odd ones) are below
    _TAIL_FLOOR * tail_tol.  The mass past each n is then summed from the
    last term back, smallest first, so it is accurate in relative terms; the
    cut is the first n where it is at most tail_tol, n_max lies TAIL_MARGIN
    past it (less any trailing zero terms), and tail_mass is the mass past
    n_max.  What lies beyond the last generated term is left out; it read
    below a relative 1e-5 of tail_mass at every mean to 40,000 and r to 4.

    Normalization is verified, not imposed: a kept sum outside
    [1 - tail_tol - 1e-6, 1 + 1e-6] is rejected, otherwise the kept terms
    are divided once by their exactly rounded sum.  A tail_tol below 2^-52
    is refused: the entries of rho carry a relative roundoff of about 2^-52
    anyway, so a tighter tail buys nothing.
    """
    if not 0.0 < (tail_tol := _real_number(tail_tol, "tail_tol")) < 1.0:
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
    floor = _TAIL_FLOOR * tail_tol
    stop_at = None
    for n in range(_MAX_TERMS):
        c = math.ldexp(c_cur, -shift)
        p = c * c
        probs.append(p)
        if stop_at is None and n > mean and p < floor and probs[-2] < floor:
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
    arr = np.array(probs)
    # beyond[n]: the mass past n, summed from the smallest terms up
    beyond = np.append(np.cumsum(arr[:0:-1])[::-1], 0.0)
    cut = int(np.argmax(beyond <= tail_tol))
    n_max = int(np.flatnonzero(arr[: cut + TAIL_MARGIN + 1])[-1])
    arr = arr[: n_max + 1]
    total = _exact_sum(arr)
    if not 1.0 - tail_tol - _UNIT_SUM_TOL <= total <= 1.0 + _UNIT_SUM_TOL:
        raise NumericsError(
            f"squeezed amplitude recurrence lost normalization: sum(P_n) = {total!r} "
            f"for alpha={params.alpha}, r={params.r}"
        )
    return PhotonDistribution(arr / total, float(beyond[n_max]))


def solve_alpha_for_mean(target_mean: float, r: float) -> float:
    """Amplitude alpha giving mean photon number alpha^2 + sinh^2(r) == target_mean.

    Raises ParameterError if the squeezing alone already exceeds the target
    (target_mean < sinh^2 r).
    """
    target_mean = _real_number(target_mean, "target_mean", 0.0)
    r = _real_number(r, "r", 0.0, _R_MAX)
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
