import numpy as np
import pytest

from cavent import SqueezedParams, squeezed_distribution


@pytest.fixture
def bell_state():
    """|Phi+> = (|ee> + |gg>)/sqrt(2) as a density matrix."""
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


@pytest.fixture
def product_state():
    """Both atoms excited: |ee><ee|."""
    return np.diag([1.0, 0.0, 0.0, 0.0])


@pytest.fixture
def make_werner(bell_state):
    """p * |Phi+><Phi+| + (1-p) * I/4."""

    def build(p):
        return p * bell_state + (1.0 - p) * np.eye(4) / 4.0

    return build


@pytest.fixture
def make_random_density():
    """Seeded random full-rank real density matrices (Gram construction)."""

    def build(rng):
        g = rng.standard_normal((4, 4))
        rho = g @ g.T
        return rho / np.trace(rho)

    return build


@pytest.fixture
def vacuum():
    """The empty cavity: P_0 = 1."""
    return squeezed_distribution(SqueezedParams(0.0, 0.0))
