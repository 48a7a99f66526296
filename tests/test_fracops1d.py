import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from bcfrac import (
    DomainError,
    FracSpec,
    Phi4,
    Quadrature1D,
    RectDomain,
    ScalarWeightFn,
    StepError,
    hausdorff_derivative,
    prop_derivative,
    prop_frac_derivative,
    prop_frac_integral,
    tabulate,
)
from bcfrac import fracops1d


def brute_force_left_integral(f, alpha, sigma, phi, dphi, a, t, n=100_000):
    """Independent midpoint-rule oracle on a strongly graded mesh, written
    straight from the defining integral.

    Floating point cannot place mesh points closer to ``t`` than machine
    epsilon relatively, so a mass of order ``eps^alpha`` at the singular end
    is out of reach for any pointwise rule; usable down to ~1e-8 for
    ``alpha = 0.5``."""
    s = np.linspace(0.0, 1.0, n + 1) ** 4.0
    tau_edges = t - (t - a) * s[::-1]
    mid = 0.5 * (tau_edges[1:] + tau_edges[:-1])
    dt = np.diff(tau_edges)
    keep = dt > 0
    mid, dt = mid[keep], dt[keep]
    c = (sigma - 1.0) / sigma
    kern = np.exp(c * (phi(t) - phi(mid))) * (phi(t) - phi(mid)) ** (alpha - 1.0)
    total = np.sum(kern * f(mid) * dphi(mid) * dt)
    return total / (sigma**alpha * gamma(alpha))


class TestPropDerivative:
    def test_sigma_one_is_scaled_derivative(self, cubic_weight):
        f, df = np.sin, np.cos
        t = 0.6
        got = prop_derivative(f, df, cubic_weight, 1.0, t)
        assert abs(got - np.cos(t) / (1 + 3 * t**2)) < 1e-14

    def test_kernel_element_annihilated(self, identity_weight):
        sigma = 0.3
        rate = (sigma - 1.0) / sigma
        f = lambda t: np.exp(rate * t)
        df = lambda t: rate * np.exp(rate * t)
        got = prop_derivative(f, df, identity_weight, sigma, 0.4)
        assert abs(got) < 1e-14

    def test_direct_evaluation(self):
        w = ScalarWeightFn(phi=lambda t: t**3, dphi=lambda t: 3 * t**2, lo=1.0, hi=2.0)
        got = prop_derivative(lambda t: t**2, lambda t: 2 * t, w, 0.5, 1.5)
        expected = 0.5 * 1.5**2 + 0.5 * (2 * 1.5) / (3 * 1.5**2)
        assert abs(got - expected) < 1e-14
        assert abs(expected - 1.34722) < 1e-4

    def test_domain_error(self, identity_weight):
        with pytest.raises(DomainError):
            prop_derivative(np.sin, np.cos, identity_weight, 0.5, 2.0)

    def test_linearity(self, cubic_weight):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=2)
        f1, df1 = np.sin, np.cos
        f2, df2 = lambda t: t**2, lambda t: 2 * t
        t = 0.55
        lhs = prop_derivative(
            lambda u: a * f1(u) + b * f2(u), lambda u: a * df1(u) + b * df2(u),
            cubic_weight, 0.6, t)
        rhs = a * prop_derivative(f1, df1, cubic_weight, 0.6, t) + b * prop_derivative(
            f2, df2, cubic_weight, 0.6, t)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestPropFracIntegral:
    def test_classical_constant(self, identity_weight):
        got = prop_frac_integral(
            lambda t: np.ones_like(t), FracSpec(0.5, 1.0, identity_weight),
            "left", 1.0, Quadrature1D(n=2048))
        assert abs(got - 2.0 / np.sqrt(np.pi)) < 1e-6

    def test_near_order_one_recovers_plain_integral(self, identity_weight):
        got = prop_frac_integral(
            lambda t: t, FracSpec(1 - 1e-8, 1.0, identity_weight),
            "left", 1.0, Quadrature1D(n=2048))
        assert abs(got - 0.5) < 1e-5

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_eigenfunction_closed_form(self, cubic_weight, alpha):
        # tempered power input: closed form validated first by the
        # brute-force oracle (at the order it can resolve), then pinned
        # against the engine at both orders and both schemes
        sigma, beta = 0.6, 1.5
        c = (sigma - 1.0) / sigma
        phi = lambda t: t + t**3
        dphi = lambda t: 1 + 3 * t**2
        f = lambda tau: np.exp(c * phi(tau)) * phi(tau) ** (beta - 1.0)
        t = 0.9
        closed = (gamma(beta) / (sigma**alpha * gamma(beta + alpha))
                  * np.exp(c * phi(t)) * phi(t) ** (beta + alpha - 1.0))
        if alpha == 0.5:
            oracle = brute_force_left_integral(f, alpha, sigma, phi, dphi, 0.0, t)
            assert abs(oracle - closed) < 1e-5
        for scheme, n in (("graded", 2048), ("gauss_jacobi", 256)):
            got = prop_frac_integral(f, FracSpec(alpha, sigma, cubic_weight),
                                     "left", t, Quadrature1D(n=n, scheme=scheme))
            assert abs(got - closed) < 1e-5

    def test_sigma_one_power_rule(self, identity_weight):
        alpha, beta, t = 0.25, 1.5, 0.8
        closed = gamma(beta) / gamma(beta + alpha) * t ** (beta + alpha - 1)
        got = prop_frac_integral(lambda tau: tau ** (beta - 1), FracSpec(alpha, 1.0, identity_weight),
                                 "left", t, Quadrature1D(n=256, scheme="gauss_jacobi"))
        assert abs(got - closed) < 1e-8

    def test_right_side_mirror(self, identity_weight):
        # right integral of 1 from b: (b - t)^alpha / Gamma(alpha + 1)
        alpha, t = 0.5, 0.25
        got = prop_frac_integral(lambda tau: np.ones_like(tau), FracSpec(alpha, 1.0, identity_weight),
                                 "right", t, Quadrature1D(n=2048))
        assert abs(got - (1 - t) ** alpha / gamma(1 + alpha)) < 1e-6

    def test_linearity(self, cubic_weight, quad_default):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        spec = FracSpec(0.4, 0.8, cubic_weight)
        t = np.array([0.3, 0.7])
        lhs = prop_frac_integral(lambda u: a * np.sin(u) + b * u**2, spec, "left", t, quad_default)
        rhs = a * prop_frac_integral(np.sin, spec, "left", t, quad_default) \
            + b * prop_frac_integral(lambda u: u**2, spec, "left", t, quad_default)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(lhs)))

    def test_sigma_zero_is_identity_limit(self, cubic_weight, quad_default):
        got = prop_frac_integral(np.cos, FracSpec(0.5, 0.0, cubic_weight), "left", 0.4, quad_default)
        assert abs(got - np.cos(0.4)) < 1e-14

    def test_domain_errors(self, identity_weight, quad_default):
        spec = FracSpec(0.5, 1.0, identity_weight)
        with pytest.raises(DomainError):
            prop_frac_integral(np.sin, spec, "left", 1.5, quad_default)
        with pytest.raises(ValueError):
            prop_frac_integral(np.sin, spec, "up", 0.5, quad_default)

    def test_graded_convergence_order(self, cubic_weight):
        # smooth input, graded mesh at the automatic grading: order >= 2
        spec = FracSpec(0.5, 1.0, cubic_weight)
        ref = prop_frac_integral(np.sin, spec, "left", 0.9,
                                 Quadrature1D(n=400, scheme="gauss_jacobi"))
        errs = [abs(prop_frac_integral(np.sin, spec, "left", 0.9, Quadrature1D(n=n)) - ref)
                for n in (128, 256, 512)]
        order = np.polyfit(np.log2([128, 256, 512]), np.log2(errs), 1)[0]
        assert -order >= 2.0


SCHEMES_AND_SIDES = [(scheme, side) for scheme in ("graded", "gauss_jacobi")
                     for side in ("left", "right")]


class TestTargetDedup:
    """Repeated targets are evaluated once and mapped back unchanged."""

    XS = np.array([0.05, 0.9, 0.3, 0.3, 0.62, 0.5, 0.17])

    def spec(self, weight):
        return FracSpec(0.45, 0.7, weight)

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_tiled_targets_equal_tiled_result(self, cubic_weight, scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        once = prop_frac_integral(np.cos, self.spec(cubic_weight), side, self.XS, q)
        tiled = prop_frac_integral(np.cos, self.spec(cubic_weight), side, np.tile(self.XS, 64), q)
        assert np.array_equal(tiled, np.tile(once, 64))

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_shape_and_scalar_kept(self, cubic_weight, scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        spec = self.spec(cubic_weight)
        grid = np.tile(self.XS[:4], (3, 1))
        got = prop_frac_integral(np.cos, spec, side, grid, q)
        assert got.shape == grid.shape
        assert np.array_equal(got[0], got[2])
        one = prop_frac_integral(np.cos, spec, side, 0.3, q)
        assert np.ndim(one) == 0
        assert one == got[0, 2]

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_integrand_sees_one_row_per_distinct_target(self, cubic_weight, scheme, side):
        rows = []

        def counting(tau):
            rows.append(np.shape(tau)[0])
            return np.cos(tau)

        ts = np.tile(self.XS, 64)
        prop_frac_integral(counting, self.spec(cubic_weight), side, ts,
                           Quadrature1D(n=64, scheme=scheme))
        assert sum(rows) == len(np.unique(ts))

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_checks_still_raise(self, identity_weight, scheme, side):
        spec = FracSpec(0.3, 0.8, identity_weight)
        bad = np.tile(self.XS, 64)
        bad[100] = 1.5
        with pytest.raises(DomainError):
            prop_frac_integral(np.cos, spec, side, bad, Quadrature1D(n=16, scheme=scheme))


class TestWeightPipeline:
    """The product-trapezoid weights and the blocked evaluation loop."""

    XS = np.array([0.05, 0.9, 0.3, 0.62, 0.5, 0.17, 0.999])

    @pytest.mark.parametrize("beta", [0.4, 1e-5])  # both branches of _panel_weights
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_row_sums_integrate_a_constant_exactly(self, cubic_weight, beta, side):
        # with f = 1 and sigma = 1 the rule integrates v^(beta-1)/Gamma(beta)
        # over [0, L], L the extent of the mesh in v: L^beta / Gamma(beta+1)
        p = FracSpec(beta, 1.0, cubic_weight)
        tau, wts = fracops1d._rule(p, side, self.XS, Quadrature1D(n=512))
        big_l = np.abs(cubic_weight.phi(self.XS) - cubic_weight.phi(tau[:, -1]))
        expected = big_l**beta / gamma(beta + 1.0)
        assert np.allclose(wts.sum(axis=1), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_block_size_never_changes_a_result(self, cubic_weight, identity_weight, monkeypatch,
                                               scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        for weight in (cubic_weight, identity_weight):  # general and affine weights
            spec = FracSpec(0.45, 0.7, weight)
            results = []
            for rows in (1, 3, self.XS.size):
                monkeypatch.setattr(fracops1d, "_CHUNK_ELEMENTS", rows * q.n)
                results.append(prop_frac_integral(np.cos, spec, side, self.XS, q))
            assert all(np.array_equal(r, results[-1]) for r in results)


def affine_weight(offset, lo, hi, declared=True):
    """``phi(t) = offset + t``, with or without the declared exponent 1."""
    return ScalarWeightFn(
        phi=lambda t: offset + np.asarray(t, dtype=float),
        dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lo=lo, hi=hi, exponent=1.0 if declared else None)


def power_weight(exponent, declared=True, offset=0.3, lo=0.5, hi=1.5):
    """``phi(t) = offset + t**exponent``, with or without the declared power
    form."""
    return ScalarWeightFn(
        phi=lambda t: offset + np.asarray(t, dtype=float) ** exponent,
        dphi=lambda t: exponent * np.asarray(t, dtype=float) ** (exponent - 1.0),
        lo=lo, hi=hi, exponent=exponent if declared else None)


def sqrt_cos(t):
    return np.sqrt(t) * np.cos(3.0 * t)


@functools.lru_cache(maxsize=None)
def power_integral_reference(exponent, beta, sigma, side, t, lo=0.5, hi=1.5):
    """Proportional integral of ``sqrt_cos`` for ``power_weight(exponent)``
    by mpmath at 30 digits, taken in ``w = v^beta`` where ``v = |t^d -
    tau^d|``: ``v^(beta-1) dv = dw / beta`` leaves a smooth integrand."""
    with mpmath.workdps(30):
        beta, sigma, t, d = (mpmath.mpf(x) for x in (beta, sigma, t, exponent))
        anchor = mpmath.mpf(lo if side == "left" else hi)
        sign = -1 if side == "left" else 1
        c = (sigma - 1) / sigma

        def integrand(w):
            v = w ** (1 / beta)
            tau = (t**d + sign * v) ** (1 / d)
            return mpmath.exp(c * v) * mpmath.sqrt(tau) * mpmath.cos(3 * tau)

        top = abs(t**d - anchor**d) ** beta
        value = mpmath.quad(integrand, [0, top / 2, top]) / (sigma**beta * mpmath.gamma(beta + 1))
        return float(value)


class TestAffineWeights:
    """A declared power form, affine when its exponent is 1, scales one
    cached reference row per target."""

    # phi(lo) is kept within span of zero: with a far larger offset the
    # general path's phi(t) - phi(tau) cancels digits the reference row keeps
    @settings(max_examples=80, deadline=None)
    @given(rel_offset=st.floats(-1.0, 1.0),
           lo=st.floats(-2.0, 2.0), span=st.floats(0.1, 5.0),
           beta=st.one_of(st.floats(1e-6, fracops1d._SMALL_ORDER, exclude_max=True),
                          st.floats(fracops1d._SMALL_ORDER, 1.0)),
           sigma=st.one_of(st.just(1.0), st.floats(0.05, 0.99)),
           side=st.sampled_from(["left", "right"]), n=st.sampled_from([2, 3, 16, 64, 257]))
    def test_rows_equal_the_general_path(self, rel_offset, lo, span, beta, sigma, side, n):
        hi = lo + span
        offset = rel_offset * span - lo
        ts = lo + span * np.array([0.0, 0.1, 0.37, 0.8, 1.0])
        q = Quadrature1D(n=n)
        rows = [fracops1d._rule(FracSpec(beta, sigma, affine_weight(offset, lo, hi, declared)),
                                side, ts, q) for declared in (True, False)]
        (tau, w_aff), (tau_gen, w_gen) = rows
        assert np.array_equal(tau, tau_gen)
        f = 0.5 + np.cos(3.0 * tau)
        terms = np.sum(np.abs(w_gen * f), axis=1)
        err = np.abs(np.sum(w_aff * f, axis=1) - np.sum(w_gen * f, axis=1))
        assert np.all(err <= 1e-13 * terms)

    def test_reference_row_is_read_only(self):
        w = affine_weight(0.5, 0.0, 1.0)
        for scheme in ("graded", "gauss_jacobi"):
            q = Quadrature1D(n=64, scheme=scheme)
            fracops1d._rule(FracSpec(0.4, 0.7, w), "left", np.array([0.5]), q)
            for array in fracops1d._reference_row(scheme, 64, 0.4):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0

    @pytest.mark.parametrize("beta", [0.45, 1e-4])  # both branches of _panel_weights
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unit_exponent_rows_are_the_affine_rows(self, side, sigma, beta):
        # the affine rows as they were written before the power form: tau =
        # t + (anchor - t)*u, and each row |t - anchor|^beta / sigma^beta
        # times the reference row, times the tempered factor
        lo, hi = -0.3, 1.1
        w = affine_weight(0.2, lo, hi)
        ts = np.linspace(lo, hi, 7)
        q = Quadrature1D(n=64)
        tau, wts = fracops1d._rule(FracSpec(beta, sigma, w), side, ts, q)
        anchor = lo if side == "left" else hi
        u = fracops1d._graded_fractions(q.n, fracops1d._auto_grading(beta))
        big_l = np.maximum(ts - anchor if side == "left" else anchor - ts, 0.0)
        want = (big_l**beta * sigma ** (-beta))[:, None] * fracops1d._reference_row(
            "graded", q.n, beta)[1]
        c = (sigma - 1.0) / sigma
        if c != 0.0:
            want *= np.exp2((big_l * (c * fracops1d._LOG2E))[:, None] * u)
        assert np.array_equal(tau, (anchor - ts)[:, None] * u + ts[:, None])
        assert np.array_equal(wts, want)

    @pytest.mark.parametrize("exponent", [1.0, 0.6])
    @pytest.mark.parametrize("beta", [0.45, 1e-4])
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gauss_jacobi_rows_scale_the_reference_row(self, side, sigma, beta, exponent):
        # the Gauss-Jacobi twin: nodes tau = (t^d -+ L*u)^(1/d) at u = (1 +
        # x)/2, and each row L^beta / sigma^beta times wj * 2^-beta /
        # Gamma(beta), times the tempered factor, with L = |t^d - anchor^d|
        lo, hi = 0.5, 1.5
        w = power_weight(exponent, lo=lo, hi=hi)
        ts = np.linspace(lo, hi, 7)
        q = Quadrature1D(n=32, scheme="gauss_jacobi")
        tau, wts = fracops1d._rule(FracSpec(beta, sigma, w), side, ts, q)
        x, wj = fracops1d._jacobi_rule(q.n, beta)
        u = 0.5 * (1.0 + x)
        row = wj * (2.0 ** (-beta) / math.gamma(beta))
        gap = w.power_gap(lo, ts) if side == "left" else w.power_gap(ts, hi)
        big_l = np.maximum(gap, 0.0)
        want = (big_l**beta * sigma ** (-beta))[:, None] * row
        c = (sigma - 1.0) / sigma
        if c != 0.0:
            want *= np.exp2((big_l * (c * fracops1d._LOG2E))[:, None] * u)
        sign = -1.0 if side == "left" else 1.0
        assert np.array_equal(tau, ((ts**exponent)[:, None] + sign * gap[:, None] * u)
                              ** (1.0 / exponent))
        assert np.array_equal(wts, want)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_power_rows_as_accurate_as_the_general_path(self, n):
        # relative errors against mpmath, for the rows meshed in v (declared)
        # and in tau (general path), at interior targets and 1e-9 of the span
        # from the anchor.  Measured: interior errors within 1.13 of the
        # general path's, and medians 1.97e-6 / 2.05e-6 at n = 256 and 1.22e-7
        # / 1.60e-7 at n = 1024.  Next to the anchor the power rows keep
        # 1e-12, the share of the mass that the graded fractions leave out
        # before the anchor, where the general path's phi(t) - phi(tau)
        # cancels to 1e-8 .. 3e-7.
        q = Quadrature1D(n=n)
        errors = {True: [], False: []}
        for beta in (0.05, 0.5, 0.95):
            for sigma in (1.0, 0.7):
                for side in ("left", "right"):
                    anchor, inward = (0.5, 1.0) if side == "left" else (1.5, -1.0)
                    ts = np.array([0.8, 1.2, anchor + inward * 1e-9])
                    want = np.array([power_integral_reference(0.6, beta, sigma, side, t)
                                     for t in ts])
                    for declared in (True, False):
                        spec = FracSpec(beta, sigma, power_weight(0.6, declared))
                        got = prop_frac_integral(sqrt_cos, spec, side, ts, q)
                        errors[declared].append(np.abs(got - want) / np.abs(want))
        power, general = np.array(errors[True]), np.array(errors[False])
        assert np.all(power[:, :2] <= 1.15 * general[:, :2])
        assert np.all(power[:, 2] <= 1e-12)
        assert np.median(power) <= np.median(general)

    def test_power_gauss_jacobi_keeps_its_digits_next_to_the_anchor(self):
        # Gauss-Jacobi on a declared power weight takes L = power_gap:
        # L = phi(t) - phi(anchor) by subtraction loses 1.4e-9 .. 2.9e-7 next
        # to the anchor.  Measured relative errors against mpmath at n = 256:
        # at most 2.3e-13 (beta 0.05; 1.2e-14 otherwise) at interior targets
        # and at 1e-9 of the span from the anchor alike
        q = Quadrature1D(n=256, scheme="gauss_jacobi")
        for beta in (0.05, 0.5, 0.95):
            for sigma in (1.0, 0.7):
                for side in ("left", "right"):
                    anchor, inward = (0.5, 1.0) if side == "left" else (1.5, -1.0)
                    ts = np.array([0.8, 1.2, anchor + inward * 1e-9])
                    want = np.array([power_integral_reference(0.6, beta, sigma, side, t)
                                     for t in ts])
                    spec = FracSpec(beta, sigma, power_weight(0.6))
                    got = prop_frac_integral(sqrt_cos, spec, side, ts, q)
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("exponent", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            power_weight(exponent)

    @pytest.mark.parametrize("lo", [0.0, -0.5])
    def test_power_weight_needs_a_positive_interval(self, lo):
        with pytest.raises(ValueError, match="lo > 0"):
            power_weight(0.6, lo=lo)
        assert affine_weight(0.0, lo, 1.0).lo == lo

    def test_closed_form_power_inverse(self):
        # Gauss-Jacobi nodes on `fractal:` and `linear` restrictions come
        # from the declared power form, not from 80 bisection steps of the
        # same weight undeclared; both give the same result
        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        q = Quadrature1D(n=64, scheme="gauss_jacobi")
        for exponents in ((0.5, 0.6, 0.7, 0.8), (1, 1, 1, 1)):
            for axis in range(4):
                w = Phi4.fractal(*exponents).restriction(axis, W, rect)
                ts = np.linspace(w.lo, w.hi, 9)
                bisected = dataclasses.replace(w, exponent=None)
                for side in ("left", "right"):
                    got = prop_frac_integral(sqrt_cos, FracSpec(0.45, 0.7, w), side, ts, q)
                    want = prop_frac_integral(sqrt_cos, FracSpec(0.45, 0.7, bisected),
                                              side, ts, q)
                    assert np.max(np.abs(got - want)) < 1e-12


class TestPropFracDerivative:
    def test_inversion_left_and_right(self, cubic_weight):
        q = Quadrature1D(n=1024)
        spec = FracSpec(0.5, 0.7, cubic_weight)
        tpts = np.linspace(0.2, 0.8, 5)
        for side, toward in (("left", 0.0), ("right", 1.0)):
            integral = tabulate(
                lambda x: prop_frac_integral(np.sin, spec, side, x, q),
                0.0, 1.0, 512, grade_toward=toward)
            got = prop_frac_derivative(integral, spec, side, tpts, q)
            assert np.max(np.abs(got - np.sin(tpts))) < 1e-4

    def test_derivative_of_constant(self, identity_weight):
        got = prop_frac_derivative(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                                   FracSpec(0.5, 1.0, identity_weight), "left", 0.49,
                                   Quadrature1D(n=2048))
        assert abs(got - 0.49**-0.5 / gamma(0.5)) < 1e-6
        assert abs(1 / gamma(0.5) - 0.56419) < 1e-5

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_array_targets_equal_scalar_calls(self, cubic_weight, side):
        # the value and the stencil take separate integral calls; rows depend
        # only on their own target, so batching never changes a bit
        spec = FracSpec(0.4, 0.6, cubic_weight)
        q = Quadrature1D(n=256)
        ts = np.array([0.0, 5e-5, 0.3, 0.3, 0.7, 1.0])
        got = prop_frac_derivative(np.cos, spec, side, ts, q)
        want = [prop_frac_derivative(np.cos, spec, side, t, q) for t in ts]
        assert np.array_equal(got, want)

    def test_step_error(self, identity_weight, quad_default):
        spec = FracSpec(0.5, 0.7, identity_weight)
        with pytest.raises(StepError):
            prop_frac_derivative(np.sin, spec, "left", 0.5, quad_default, h=0.6)

    def test_order_validated(self, identity_weight, quad_default):
        with pytest.raises(ValueError):
            prop_frac_derivative(np.sin, FracSpec(1.0, 0.7, identity_weight),
                                 "left", 0.5, quad_default)


class TestCentralDifference:
    def test_exact_on_affine(self):
        ts = np.array([0.0, 1e-5, 0.3, 0.99999, 1.0])
        got = fracops1d._central_difference(lambda s: 2.5 - 1.75j * s, ts, 1e-4, 0.0, 1.0)
        assert np.max(np.abs(got + 1.75j)) < 1e-10

    def test_one_sided_at_both_ends(self):
        calls = []

        def fn(s):
            calls.append(s.copy())
            return s**2

        ts = np.array([0.0, 0.5, 1.0])
        got = fracops1d._central_difference(fn, ts, 0.01, 0.0, 1.0)
        assert len(calls) == 1
        assert np.array_equal(calls[0], [0.0, 0.49, 0.99, 0.01, 0.51, 1.0])
        # one-sided quotients of s^2 are off by h, the central one is exact
        assert np.max(np.abs(got - [0.01, 1.0, 1.99])) < 1e-12


class TestRefinedRule:
    """The clustered rows of the deep reconstruction's outer derivative."""

    WEIGHT = ScalarWeightFn(phi=lambda t: 0.5 + 2.0 * t,
                            dphi=lambda t: np.full(np.shape(t), 2.0), lo=0.0, hi=1.0)

    @pytest.mark.parametrize("side,t", [("left", 0.8), ("right", 0.3)])
    @pytest.mark.parametrize("beta", [0.3, 0.75])
    def test_constant_integrates_exactly_and_nodes_run_to_the_anchor(self, side, t, beta):
        anchor = 0.0 if side == "left" else 1.0
        inside = 0.5 * (t + anchor)
        centers, scales = np.array([inside, 1.7]), np.array([1e-3, 0.05])  # 1.7 lies outside
        ts = np.array([t, 0.9 * t + 0.1 * anchor])  # the cluster lies inside both rows
        taus, wtss = fracops1d.refined_rule(FracSpec(beta, 1.0, self.WEIGHT), side, ts,
                                            Quadrature1D(n=64), centers, scales)
        assert taus.shape == wtss.shape and taus.shape[0] == ts.size
        for t, tau, wts in zip(ts, taus, wtss):
            # the rule stops 1e-12 of the span short of the anchor (see
            # _graded_fractions), so L is phi(t) - phi(last node), slope 2
            length = 2.0 * abs(t - tau[-1])
            exact = length**beta / gamma(beta + 1.0)
            assert abs(np.sum(wts) - exact) <= 1e-13 * exact
            assert tau[0] == t
            lo, hi = sorted((anchor, t))
            assert np.all((tau >= lo) & (tau <= hi))
            assert np.all(tau != anchor)
            toward = np.diff(tau) if side == "right" else -np.diff(tau)
            assert np.all(toward >= 0.0)
            # the inside cluster adds nodes around its center at its own scale
            assert np.sum(np.abs(tau - inside) < 1e-3) > np.sum(np.abs(tau - inside - 0.1) < 1e-3)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_batched_rows_equal_single_target_rows(self, cubic_weight, side):
        spec, q = FracSpec(0.4, 0.7, cubic_weight), Quadrature1D(n=48)
        centers, scales = np.array([0.3, 0.65]), np.array([1e-4, 0.02])
        ts = np.array([0.05, 0.3, 0.5, 0.97])
        taus, wtss = fracops1d.refined_rule(spec, side, ts, q, centers, scales)
        for t, tau, wts in zip(ts, taus, wtss):
            tau1, wts1 = fracops1d.refined_rule(spec, side, np.array([t]), q, centers, scales)
            assert np.array_equal(tau1[0], tau) and np.array_equal(wts1[0], wts)

    @staticmethod
    def single_row_derivative(f, p, side, t, q, h, centers, scales):
        """The reference formula: the proportional step of order ``p.alpha``
        on the inner integral of order ``1 - p.alpha``, each integral one
        single-target refined row, differenced by ``_central_difference``."""
        w = p.weight
        inner = FracSpec(1.0 - p.alpha, p.sigma, w)

        def integral(ss):
            out = []
            for s in ss:
                tau, wts = fracops1d.refined_rule(inner, side, np.array([s]), q, centers, scales)
                out.append(np.sum(f(tau[0]) * wts[0]))
            return np.array(out)

        at = np.array([t])
        d_part = fracops1d._central_difference(integral, at, h, w.lo, w.hi)[0]
        sign = 1.0 if side == "left" else -1.0
        return (1.0 - p.sigma) * integral(at)[0] + sign * p.sigma * d_part / w.dphi(np.asarray(t))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("sigma", [0.7, 1.0])
    def test_derivative_on_refined_rows_matches_the_single_row_formula(
            self, cubic_weight, side, sigma):
        p, q, h = FracSpec(0.6, sigma, cubic_weight), Quadrature1D(n=64), 5e-3
        centers, scales = np.array([0.42]), np.array([2e-3])

        def f(t):
            return 1.0 / (t - 0.42 + 2e-3j)  # a pole just off the segment

        ts = np.array([0.2, 0.6, 0.995])
        got = prop_frac_derivative(f, p, side, ts, q, h=h, features=(centers, scales))
        for t, value in zip(ts, got):
            want = self.single_row_derivative(f, p, side, t, q, h, centers, scales)
            assert abs(value - want) <= 1e-14 * abs(want)

    def test_sigma_zero_with_features_is_the_identity(self, cubic_weight):
        ts = np.array([0.0, 0.3, 1.0])
        got = prop_frac_derivative(np.cos, FracSpec(0.6, 0.0, cubic_weight), "left", ts,
                                   Quadrature1D(n=32), features=(np.array([0.3]), np.array([1e-3])))
        assert np.array_equal(got, np.cos(ts))


class TestHausdorff:
    def test_power_profile_gives_one(self):
        alpha, a = 0.37, 0.2
        l = lambda t: (t - a) ** alpha
        dl = lambda t: alpha * (t - a) ** (alpha - 1.0)
        got = hausdorff_derivative(l, dl, alpha, a, np.array([0.5, 1.0, 2.0]))
        assert np.max(np.abs(got - 1.0)) < 1e-12

    def test_linear_profile(self):
        got = hausdorff_derivative(lambda t: t, lambda t: np.ones_like(t), 0.5, 0.0, 4.0)
        assert abs(got - 4.0) < 1e-14

    def test_order_one_is_classical(self):
        got = hausdorff_derivative(np.sin, np.cos, 1.0, 0.0, 1.3)
        assert abs(got - np.cos(1.3)) < 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hausdorff_derivative(np.sin, np.cos, 0.5, 1.0, 0.5)


class TestWeightValidation:
    def test_bisection_inverse(self, cubic_weight):
        u = cubic_weight.phi(np.array([0.3, 0.8]))
        back = cubic_weight.inverse(u)
        assert np.max(np.abs(back - [0.3, 0.8])) < 1e-13


class TestScipyOracles:
    """The numpy-only building blocks against scipy, which the test extra
    keeps as an oracle only."""

    @pytest.mark.parametrize("n", [4, 5, 64, 256, 512, 1024])
    @pytest.mark.parametrize("grade_toward", [None, 0.2, 1.3])
    def test_spline_matches_cubic_spline(self, n, grade_toward):
        from scipy.interpolate import CubicSpline

        # a complex profile with algebraic ends, tabulated on the graded grid
        # whose first spacing is 1e-12 of the span
        lo, hi = 0.2, 1.3
        seen = []

        def profile(x):
            seen.append(x)
            u, v = np.abs(x - lo), np.abs(hi - x)
            return np.sin(3 * x) * u**0.37 + 1j * (np.exp(-x) * v**0.5 + u**0.21)

        interp = tabulate(profile, lo, hi, n, grade_toward=grade_toward)
        (xs,) = seen
        oracle = CubicSpline(xs, profile(xs) + 0.0j)
        rng = np.random.default_rng(n)
        t = np.concatenate([xs, rng.uniform(lo, hi, 500), xs[:3] + 0.5 * np.diff(xs[:4]),
                            [lo, hi, lo - 1.0, hi + 1.0, lo + 1e-13 * (hi - lo)]])
        want = oracle(np.clip(t, lo, hi))
        got = interp(t)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        assert np.ndim(interp(0.5)) == 0

    def test_spline_needs_four_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            tabulate(np.sin, 0.0, 1.0, 3)

    @pytest.mark.parametrize("n", [2, 3, 64, 256, 512])
    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.1, 0.3, 0.5, 0.75, 0.999, 1.0])
    def test_jacobi_rule_matches_roots_jacobi(self, n, beta):
        import mpmath  # installed with sympy
        from scipy.special import roots_jacobi

        x, w = fracops1d._jacobi_rule(n, beta)
        xs, ws = roots_jacobi(n, 0.0, beta - 1.0)
        np.testing.assert_allclose(x, xs, rtol=1e-12, atol=1e-15)
        mass = 2.0**beta / beta
        assert abs(w.sum() / mass - 1.0) <= 1e-11
        if n <= 3:
            np.testing.assert_allclose(w, ws, rtol=1e-12)
            return
        # roots_jacobi's weights are themselves up to 5e-7 relative off at
        # n = 512 (its 1/(p_{n-1} p_n') weights are normalized by their sum,
        # which the node next to the singular end dominates); both rules are
        # held to the exact weights at the ends and in the middle instead
        picks = [0, 1, 2, n // 2, n - 2, n - 1]
        exact_x, exact_w = _exact_jacobi_rule(mpmath, n, beta, xs[picks])
        ours = np.abs(w[picks] - exact_w) / exact_w
        theirs = np.abs(ws[picks] - exact_w) / exact_w
        assert np.max(ours) <= 2e-11
        assert np.all(ours <= theirs + 1e-12)
        # the Newton step takes the eigenvalues (up to 2e-15 off) to 2 ulp
        assert np.max(np.abs(x[picks] - exact_x)) <= 4.5e-16

    def test_gamma_matches_scipy(self):
        from scipy.special import gamma as scipy_gamma

        xs = np.concatenate([np.linspace(1e-3, 10.0, 2001), np.linspace(-4.99, -0.01, 499)])
        xs = xs[np.abs(xs - np.round(xs)) > 1e-9]
        ours = np.array([math.gamma(v) for v in xs.tolist()])
        np.testing.assert_allclose(ours, scipy_gamma(xs), rtol=4e-15)


def _exact_jacobi_rule(mpmath, n, beta, nodes):
    """Gauss nodes and weights of ``(1+x)^(beta-1)`` in 30-digit arithmetic:
    the given nodes polished by two Newton steps, and the weights there from
    the closed form of Abramowitz & Stegun 25.4.29 (a = 0, b = beta - 1)."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        b = mp.mpf(beta) - 1
        const = (-(2 * n + b + 2) / (n + b + 1) * mp.gamma(n + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + b + 1) * mp.factorial(n + 1)) * 2**b)

        def dp(x):
            return (n + b + 1) / 2 * mp.jacobi(n - 1, 1, b + 1, x)

        xs, ws = [], []
        for x0 in nodes.tolist():
            x = mp.mpf(x0)
            for _ in range(2):
                if x != 0:  # the Legendre node at zero is exact
                    x -= mp.jacobi(n, 0, b, x) / dp(x)
            xs.append(float(x))
            ws.append(float(const / (dp(x) * mp.jacobi(n + 1, 0, b, x))))
    return np.array(xs), np.array(ws)
