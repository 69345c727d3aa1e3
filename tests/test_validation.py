"""The one validation layer, `cavent.errors`, seen from the public entry points.

* every numeric input is refused with ParameterError when it is not finite or
  lies past a finite bound of its closed range, and the message names the
  parameter and the value;
* each finite bound itself is accepted;
* a number numpy represents otherwise than as a Python float (a long double,
  a float32, a 0-d array) is computed with as the float the layer returns:
  the results carry that float's bits, and the records stay hashable.
"""

import math

import numpy as np
import pytest

from cavent import (
    ParameterError,
    PhotonDistribution,
    SqueezedParams,
    eof_from_concurrence,
    gamma_coefficients,
    solve_alpha_for_mean,
    squeezed_distribution,
    tripartite_state,
)
import cavent.fields as fields
from cavent.cli import SweepConfig, run_sweep

DIST = squeezed_distribution(SqueezedParams(1.0, 0.5))

# entry point and parameter: (a call that feeds the value to that parameter
# alone, the name its refusal gives, the closed range [low, high])
ENTRY_POINTS = {
    "SqueezedParams alpha": (lambda x: SqueezedParams(x, 0.0), "alpha", 0.0, math.inf),
    "SqueezedParams r": (lambda x: SqueezedParams(1.0, x), "r", 0.0, fields._R_MAX),
    "solve_alpha_for_mean target_mean": (
        lambda x: solve_alpha_for_mean(x, 0.0), "target_mean", 0.0, math.inf
    ),
    "solve_alpha_for_mean r": (lambda x: solve_alpha_for_mean(1.0, x), "r", 0.0, fields._R_MAX),
    # the second entry keeps the sum at 1 wherever the first is in range
    "PhotonDistribution probs": (
        lambda x: PhotonDistribution([x, 1.0 - x], 0.0), "probs", 0.0, 1.0
    ),
    "PhotonDistribution tail_mass": (
        lambda x: PhotonDistribution([1.0], x), "tail_mass", 0.0, 1.0
    ),
    "gamma_coefficients gt": (
        lambda x: gamma_coefficients(DIST, np.array([0.5, x, 2.0])), "gt", 0.0, math.inf
    ),
    "tripartite_state gt": (lambda x: tripartite_state(DIST, x), "gt", 0.0, math.inf),
    "eof_from_concurrence": (
        eof_from_concurrence, "concurrence", -1e-12, 1.0 + 1e-12
    ),
    "SweepConfig gt_start": (
        lambda x: SweepConfig("coherent", alpha=1.0, gt_start=x), "gt_start", -math.inf, math.inf
    ),
    "SweepConfig gt_end": (
        lambda x: SweepConfig("coherent", alpha=1.0, gt_end=x), "gt_end", -math.inf, math.inf
    ),
}

REFUSED = [
    (entry, value)
    for entry, (_, _, low, high) in ENTRY_POINTS.items()
    for value in [math.nan, math.inf, -math.inf]
    + [float(np.nextafter(low, -math.inf))] * math.isfinite(low)
    + [float(np.nextafter(high, math.inf))] * math.isfinite(high)
]

# at r = _R_MAX squeezing alone exceeds every finite mean, so
# solve_alpha_for_mean refuses it as infeasible, past the range rule
ACCEPTED = [
    (entry, edge)
    for entry, (_, _, low, high) in ENTRY_POINTS.items()
    for edge in (low, high)
    if math.isfinite(edge) and (entry, edge) != ("solve_alpha_for_mean r", fields._R_MAX)
]


@pytest.mark.parametrize("entry,value", REFUSED, ids=str)
def test_refuses_what_is_not_finite_or_in_range(entry, value):
    call, name, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be finite") as info:
        call(value)
    assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("entry,edge", ACCEPTED, ids=str)
def test_accepts_each_finite_bound(entry, edge):
    ENTRY_POINTS[entry][0](edge)


# numbers that are not Python floats, each near 0.3
NUMPY_NUMBERS = [np.longdouble("0.3"), np.float32(0.3), np.array(0.3)]
NUMPY_IDS = ["longdouble", "float32", "0-d array"]


@pytest.mark.parametrize("x", NUMPY_NUMBERS, ids=NUMPY_IDS)
def test_squeezed_params_store_the_float(x):
    params = SqueezedParams(x, x)
    assert type(params.alpha) is float and type(params.r) is float
    assert params == SqueezedParams(float(x), float(x))
    assert hash(params) == hash(SqueezedParams(float(x), float(x)))


@pytest.mark.parametrize("x", NUMPY_NUMBERS, ids=NUMPY_IDS)
def test_solve_alpha_for_mean_computes_with_the_float(x):
    # a long double mean used to give 0.16869997804498402 where the float gives
    # 0.168699978044984, and run_sweep a different C cell
    alpha = solve_alpha_for_mean(x, 0.5)
    assert type(alpha) is float and alpha == solve_alpha_for_mean(float(x), 0.5)
    assert solve_alpha_for_mean(1.0, x) == solve_alpha_for_mean(1.0, float(x))


@pytest.mark.parametrize("x", NUMPY_NUMBERS, ids=NUMPY_IDS)
def test_a_sweep_computes_with_the_float(x):
    result = run_sweep(SweepConfig("squeezed", target_mean=x, r=0.5))
    expected = run_sweep(SweepConfig("squeezed", target_mean=float(x), r=0.5))
    assert all(np.array_equal(a, b) for a, b in zip(result, expected))


@pytest.mark.parametrize("x", NUMPY_NUMBERS, ids=NUMPY_IDS)
def test_tail_tolerance_and_mass_are_floats(x):
    # 0.3 is a loose tolerance, but a tolerance
    dist = squeezed_distribution(SqueezedParams(1.0, 0.5), x)
    expected = squeezed_distribution(SqueezedParams(1.0, 0.5), float(x))
    assert np.array_equal(dist.probs, expected.probs) and dist.tail_mass == expected.tail_mass
    assert type(PhotonDistribution([1.0], x).tail_mass) is float


@pytest.mark.parametrize("x", NUMPY_NUMBERS, ids=NUMPY_IDS)
def test_sweep_config_stores_the_floats(x):
    cfg = SweepConfig("squeezed", alpha=1.0, r=x, gt_start=x, gt_end=x + 10.0)
    expected = SweepConfig("squeezed", alpha=1.0, r=float(x), gt_start=float(x),
                           gt_end=float(x + 10.0))
    assert all(type(v) is float for v in (cfg.r, cfg.gt_start, cfg.gt_end))
    assert cfg == expected and hash(cfg) == hash(expected)
    assert np.array_equal(cfg.gt_grid(), expected.gt_grid())
