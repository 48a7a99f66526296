import numpy as np
import pytest

from bcfrac import (
    Phi4,
    ProductFunction,
    Quadrature1D,
    RectDomain,
    ScalarWeightFn,
    WeightPair,
)


@pytest.fixture
def unit_rect():
    return RectDomain(0, 1, 0, 1, 0, 1, 0, 1)


@pytest.fixture
def linear_phi():
    return Phi4.linear()


@pytest.fixture
def classical_weights():
    return WeightPair.classical()


@pytest.fixture
def poly_field():
    return ProductFunction.from_holomorphic(
        lambda z: z**2 - 0.5 * z + 0.25j, lambda z: 2.0 * z - 0.5
    )


@pytest.fixture
def identity_weight():
    return ScalarWeightFn(
        phi=lambda t: t,
        dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lo=0.0,
        hi=1.0,
        slope=1.0,
    )


@pytest.fixture
def cubic_weight():
    return ScalarWeightFn(
        phi=lambda t: t + t**3, dphi=lambda t: 1.0 + 3.0 * t**2, lo=0.0, hi=1.0
    )


@pytest.fixture
def quad_default():
    return Quadrature1D(n=512)
