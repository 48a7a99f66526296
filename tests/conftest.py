import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.special import gamma

from bcfrac import (
    Phi4,
    PlaneFunction,
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
    return Phi4.fractal(1, 1, 1, 1)


@pytest.fixture
def classical_weights():
    return WeightPair.classical()


@pytest.fixture
def poly_field():
    return ProductFunction.from_holomorphic(
        lambda z: z**2 - 0.5 * z + 0.25j, lambda z: 2.0 * z - 0.5
    )


@pytest.fixture
def mixed_field():
    """``z^2 * conj(z)`` in both components: neither holomorphic nor
    anti-holomorphic, with anti-holomorphic derivative ``z^2``."""

    def f(x, y):
        z = x + 1j * y
        return z**2 * np.conjugate(z)

    def fdx(x, y):
        z = x + 1j * y
        return 2 * z * np.conjugate(z) + z**2

    def fdy(x, y):
        z = x + 1j * y
        return 2j * z * np.conjugate(z) - 1j * z**2

    pf = PlaneFunction(f, fdx, fdy)
    return ProductFunction(pf, pf)


@pytest.fixture
def exp_sin_field():
    """``exp(x) * sin(3y)`` in both components: smooth, not a polynomial."""
    pf = PlaneFunction(
        f=lambda x, y: np.exp(x) * np.sin(3 * y) + 0j,
        dx=lambda x, y: np.exp(x) * np.sin(3 * y) + 0j,
        dy=lambda x, y: 3 * np.exp(x) * np.cos(3 * y) + 0j,
    )
    return ProductFunction(pf, pf)


@pytest.fixture
def identity_weight():
    return ScalarWeightFn(
        phi=lambda t: t,
        dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lo=0.0,
        hi=1.0,
        exponent=1.0,
    )


@pytest.fixture
def cubic_weight():
    return ScalarWeightFn(
        phi=lambda t: t + t**3, dphi=lambda t: 1.0 + 3.0 * t**2, lo=0.0, hi=1.0
    )


@pytest.fixture
def quad_default():
    return Quadrature1D(n=512)


def _sigma_one_cr(coeffs, w: complex, alpha: float, x, y):
    """Closed-form component of the proportional CR operator of the
    holomorphic polynomial field ``sum_k coeffs[k] z^k`` at the proportion
    ``(1, 0, 1, 0)``, with the ``linear`` phi on the unit rectangle, the left
    side, classical weights, trace base point component ``w`` and order
    ``alpha`` on the x axis.

    With sigma = 1 on x the trace integral is the Riemann-Liouville integral
    of order ``beta = 1 - alpha`` (from 0) of ``t -> P(t + i Im w) = sum_j
    a_j t^j``, and ``d/dx I^beta[t^j](x) = Gamma(j+1)/Gamma(j+beta) *
    x^(j+beta-1)``; the sigma = 0 y axis is the identity, so its partial is
    ``i P'(Re w + i y)``.  ``Dphi`` is 2."""
    P = Polynomial(coeffs)
    a = P(Polynomial([1j * w.imag, 1.0])).coef
    beta = 1.0 - alpha
    x = np.asarray(x, dtype=float)[..., None]
    j = np.arange(a.size)
    dgx = np.sum(a * gamma(j + 1.0) / gamma(j + beta) * x ** (j + beta - 1.0), axis=-1)
    dgy = 1j * P.deriv()(w.real + 1j * np.asarray(y, dtype=float))
    return (dgx + 1j * dgy) / 2.0


@pytest.fixture
def sigma_one_cr():
    return _sigma_one_cr
