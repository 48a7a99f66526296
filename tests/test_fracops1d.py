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
    BicomplexNumber,
    DomainError,
    FracSpec,
    Phi4,
    Quadrature1D,
    RectDomain,
    ScalarWeightFn,
    StepError,
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


class TestPropFracIntegral:
    def test_classical_constant(self, identity_weight):
        got = prop_frac_integral(
            lambda t: np.ones_like(t), FracSpec(0.5, 1.0, identity_weight),
            1.0, Quadrature1D(n=2048))
        assert abs(got - 2.0 / np.sqrt(np.pi)) < 1e-6

    def test_near_order_one_recovers_plain_integral(self, identity_weight):
        got = prop_frac_integral(
            lambda t: t, FracSpec(1 - 1e-8, 1.0, identity_weight),
            1.0, Quadrature1D(n=2048))
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
                                     t, Quadrature1D(n=n, scheme=scheme))
            assert abs(got - closed) < 1e-5

    def test_sigma_one_power_rule(self, identity_weight):
        alpha, beta, t = 0.25, 1.5, 0.8
        closed = gamma(beta) / gamma(beta + alpha) * t ** (beta + alpha - 1)
        got = prop_frac_integral(lambda tau: tau ** (beta - 1), FracSpec(alpha, 1.0, identity_weight),
                                 t, Quadrature1D(n=256, scheme="gauss_jacobi"))
        assert abs(got - closed) < 1e-8

    def test_right_side_mirror(self, identity_weight, reflected):
        # right integral of 1 from b: (b - t)^alpha / Gamma(alpha + 1), as the
        # left integral on the reflected line
        alpha, t = 0.5, 0.25
        g, spec = reflected(lambda tau: np.ones_like(tau), FracSpec(alpha, 1.0, identity_weight))
        got = prop_frac_integral(g, spec, -t, Quadrature1D(n=2048))
        assert abs(got - (1 - t) ** alpha / gamma(1 + alpha)) < 1e-6

    def test_linearity(self, cubic_weight, quad_default):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        spec = FracSpec(0.4, 0.8, cubic_weight)
        t = np.array([0.3, 0.7])
        lhs = prop_frac_integral(lambda u: a * np.sin(u) + b * u**2, spec, t, quad_default)
        rhs = a * prop_frac_integral(np.sin, spec, t, quad_default) \
            + b * prop_frac_integral(lambda u: u**2, spec, t, quad_default)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(lhs)))

    def test_sigma_zero_is_identity_limit(self, cubic_weight, quad_default):
        got = prop_frac_integral(np.cos, FracSpec(0.5, 0.0, cubic_weight), 0.4, quad_default)
        assert abs(got - np.cos(0.4)) < 1e-14

    def test_domain_errors(self, identity_weight, quad_default):
        spec = FracSpec(0.5, 1.0, identity_weight)
        with pytest.raises(DomainError):
            prop_frac_integral(np.sin, spec, 1.5, quad_default)

    def test_graded_convergence_order(self, cubic_weight):
        # smooth input, graded mesh at the automatic grading: order >= 2
        spec = FracSpec(0.5, 1.0, cubic_weight)
        ref = prop_frac_integral(np.sin, spec, 0.9, Quadrature1D(n=400, scheme="gauss_jacobi"))
        errs = [abs(prop_frac_integral(np.sin, spec, 0.9, Quadrature1D(n=n)) - ref)
                for n in (128, 256, 512)]
        order = np.polyfit(np.log2([128, 256, 512]), np.log2(errs), 1)[0]
        assert -order >= 2.0


# the right side runs as the left side on the reflected line (``on_side``)
SCHEMES_AND_SIDES = [(scheme, side) for scheme in ("graded", "gauss_jacobi")
                     for side in ("left", "right")]


class TestTargetDedup:
    """Repeated targets get the same value wherever they sit, in the shape
    they came in, and the domain checks see every one."""

    XS = np.array([0.05, 0.9, 0.3, 0.3, 0.62, 0.5, 0.17])

    def spec(self, weight):
        return FracSpec(0.45, 0.7, weight)

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_tiled_targets_equal_tiled_result(self, cubic_weight, on_side, scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        f, spec, xs = on_side(side, np.cos, self.spec(cubic_weight), self.XS)
        once = prop_frac_integral(f, spec, xs, q)
        tiled = prop_frac_integral(f, spec, np.tile(xs, 64), q)
        assert np.array_equal(tiled, np.tile(once, 64))

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_shape_and_scalar_kept(self, cubic_weight, on_side, scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        f, spec, grid = on_side(side, np.cos, self.spec(cubic_weight), np.tile(self.XS[:4], (3, 1)))
        got = prop_frac_integral(f, spec, grid, q)
        assert got.shape == grid.shape
        assert np.array_equal(got[0], got[2])
        one = prop_frac_integral(*on_side(side, np.cos, self.spec(cubic_weight), 0.3), q)
        assert np.ndim(one) == 0
        assert one == got[0, 2]

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_checks_still_raise(self, identity_weight, on_side, scheme, side):
        bad = np.tile(self.XS, 64)
        bad[100] = 1.5
        f, spec, bad = on_side(side, np.cos, FracSpec(0.3, 0.8, identity_weight), bad)
        with pytest.raises(DomainError):
            prop_frac_integral(f, spec, bad, Quadrature1D(n=16, scheme=scheme))


class TestWeightPipeline:
    """The product-trapezoid weights and the blocked evaluation loop."""

    XS = np.array([0.05, 0.9, 0.3, 0.62, 0.5, 0.17, 0.999])

    @pytest.mark.parametrize("beta", [0.4, 1e-5])  # both branches of _panel_weights
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_row_sums_integrate_a_constant_exactly(self, cubic_weight, on_side, beta, side):
        # with f = 1 and sigma = 1 the rule integrates v^(beta-1)/Gamma(beta)
        # over [0, L], L the extent of the mesh in v: L^beta / Gamma(beta+1)
        _, p, xs = on_side(side, None, FracSpec(beta, 1.0, cubic_weight), self.XS)
        tau, wts = fracops1d._rule(p, xs, Quadrature1D(n=512))
        big_l = np.abs(p.weight.phi(xs) - p.weight.phi(tau[:, -1]))
        expected = big_l**beta / gamma(beta + 1.0)
        assert np.allclose(wts.sum(axis=1), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scheme,side", SCHEMES_AND_SIDES)
    def test_block_size_never_changes_a_result(self, cubic_weight, identity_weight, monkeypatch,
                                               on_side, scheme, side):
        q = Quadrature1D(n=64, scheme=scheme)
        for weight in (cubic_weight, identity_weight):  # general and affine weights
            f, spec, xs = on_side(side, np.cos, FracSpec(0.45, 0.7, weight), self.XS)
            results = []
            for rows in (1, 3, self.XS.size):
                monkeypatch.setattr(fracops1d, "_CHUNK_ELEMENTS", rows * q.n)
                results.append(prop_frac_integral(f, spec, xs, q))
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


def power_rule_nodes(w, ts, u):
    """Nodes and ``L`` of the rows ``_rule`` builds on ``w`` at ``ts`` and the
    fractions ``u``: ``(t^d - L*u)^(1/d)`` with ``L = power_gap(t)`` for a
    weight declared in power form, ``inverse(phi(t) - L*u)`` with ``L =
    |phi(t) - phi(lo)|`` for any other.  The reflection of a power weight
    that is not affine has no power form, so its right side takes the
    second."""
    if w.exponent is None:
        big_l = np.abs(w.phi(ts) - w.phi(w.lo))
        return w.inverse(w.phi(ts)[:, None] - big_l[:, None] * u), big_l
    big_l = np.maximum(w.power_gap(ts), 0.0)
    return ((ts**w.exponent)[:, None] - big_l[:, None] * u) ** (1.0 / w.exponent), big_l


def sqrt_cos(t):
    return np.sqrt(t) * np.cos(3.0 * t)


@functools.lru_cache(maxsize=None)
def power_integral_reference(exponent, beta, sigma, t, lo=0.5):
    """Left proportional integral of ``sqrt_cos`` for
    ``power_weight(exponent)`` by mpmath at 30 digits, taken in ``w =
    v^beta`` where ``v = t^d - tau^d``: ``v^(beta-1) dv = dw / beta`` leaves
    a smooth integrand."""
    with mpmath.workdps(30):
        beta, sigma, t, d, lo = (mpmath.mpf(x) for x in (beta, sigma, t, exponent, lo))
        c = (sigma - 1) / sigma

        def integrand(w):
            v = w ** (1 / beta)
            tau = (t**d - v) ** (1 / d)
            return mpmath.exp(c * v) * mpmath.sqrt(tau) * mpmath.cos(3 * tau)

        top = (t**d - lo**d) ** beta
        value = mpmath.quad(integrand, [0, top / 2, top]) / (sigma**beta * mpmath.gamma(beta + 1))
        return float(value)


class TestAffineWeights:
    """A declared power form, affine when its exponent is 1, scales one
    cached reference row per target."""

    # phi(lo) is kept within span of zero: with a far larger offset the
    # undeclared weight's L = |phi(t) - phi(anchor)| cancels digits that the
    # declared L keeps
    @settings(max_examples=80, deadline=None)
    @given(rel_offset=st.floats(-1.0, 1.0),
           lo=st.floats(-2.0, 2.0), span=st.floats(0.1, 5.0),
           beta=st.one_of(st.floats(1e-6, fracops1d._SMALL_ORDER, exclude_max=True),
                          st.floats(fracops1d._SMALL_ORDER, 1.0)),
           sigma=st.one_of(st.just(1.0), st.floats(0.05, 0.99)),
           n=st.sampled_from([2, 3, 16, 64, 257]))
    def test_rows_equal_the_general_path(self, rel_offset, lo, span, beta, sigma, n):
        hi = lo + span
        offset = rel_offset * span - lo
        ts = lo + span * np.array([0.0, 0.1, 0.37, 0.8, 1.0])
        q = Quadrature1D(n=n)
        rows = [fracops1d._rule(FracSpec(beta, sigma, affine_weight(offset, lo, hi, declared)), ts, q)
                for declared in (True, False)]
        (tau, w_aff), (tau_gen, w_gen) = rows
        # both scale the same reference row; the undeclared nodes come from
        # the Newton inverse of phi(t) - L*u, which rounds phi's values.
        # Measured over 3000 random cases: within 2 ulp of the largest of
        # |lo|, |hi|, |phi(lo)| and |phi(hi)|
        scale = max(abs(lo), abs(hi), abs(offset + lo), abs(offset + hi))
        assert np.max(np.abs(tau - tau_gen)) <= 4.0 * np.finfo(float).eps * scale
        f = 0.5 + np.cos(3.0 * tau)
        terms = np.sum(np.abs(w_gen * f), axis=1)
        err = np.abs(np.sum(w_aff * f, axis=1) - np.sum(w_gen * f, axis=1))
        assert np.all(err <= 1e-13 * terms)

    def test_reference_row_is_read_only(self):
        w = affine_weight(0.5, 0.0, 1.0)
        for scheme in ("graded", "gauss_jacobi"):
            q = Quadrature1D(n=64, scheme=scheme)
            fracops1d._rule(FracSpec(0.4, 0.7, w), np.array([0.5]), q)
            for array in fracops1d._reference_row(scheme, 64, 0.4):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0

    @pytest.mark.parametrize("beta", [0.45, 1e-4])  # both branches of _panel_weights
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unit_exponent_rows_are_the_affine_rows(self, on_side, side, sigma, beta):
        # the affine rows as they were written before the power form: tau =
        # t + (lo - t)*u, and each row (t - lo)^beta / sigma^beta times the
        # reference row, times the tempered factor; the right side's rows
        # are these on the reflected line, still affine and declared
        _, p, ts = on_side(side, None, FracSpec(beta, sigma, affine_weight(0.2, -0.3, 1.1)),
                           np.linspace(-0.3, 1.1, 7))
        lo = p.weight.lo
        assert p.weight.exponent == 1.0
        q = Quadrature1D(n=64)
        tau, wts = fracops1d._rule(p, ts, q)
        u, row = fracops1d._reference_row("graded", q.n, beta)
        big_l = np.maximum(ts - lo, 0.0)
        want = (big_l**beta * sigma ** (-beta))[:, None] * row
        c = (sigma - 1.0) / sigma
        if c != 0.0:
            want *= np.exp2((big_l * (c * fracops1d._LOG2E))[:, None] * u)
        assert np.array_equal(tau, (lo - ts)[:, None] * u + ts[:, None])
        assert np.array_equal(wts, want)

    @pytest.mark.parametrize("exponent", [1.0, 0.6])
    @pytest.mark.parametrize("beta", [0.45, 1e-4])
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gauss_jacobi_rows_scale_the_reference_row(self, on_side, side, sigma, beta, exponent):
        # the Gauss-Jacobi twin: nodes at u = (1 + x)/2 (power_rule_nodes),
        # and each row L^beta / sigma^beta times wj * 2^-beta / Gamma(beta),
        # times the tempered factor
        _, p, ts = on_side(side, None, FracSpec(beta, sigma, power_weight(exponent, lo=0.5, hi=1.5)),
                           np.linspace(0.5, 1.5, 7))
        q = Quadrature1D(n=32, scheme="gauss_jacobi")
        tau, wts = fracops1d._rule(p, ts, q)
        x, wj = fracops1d._jacobi_rule(q.n, beta)
        u = 0.5 * (1.0 + x)
        row = wj * (2.0 ** (-beta) / math.gamma(beta))
        nodes, big_l = power_rule_nodes(p.weight, ts, u)
        want = (big_l**beta * sigma ** (-beta))[:, None] * row
        c = (sigma - 1.0) / sigma
        if c != 0.0:
            want *= np.exp2((big_l * (c * fracops1d._LOG2E))[:, None] * u)
        assert np.array_equal(tau, nodes)
        assert np.array_equal(wts, want)

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_graded_power_rows_scale_the_reference_row(self, on_side, side, sigma):
        # a power weight's graded rows take L from _singular_range too: nodes
        # at the graded fractions u (power_rule_nodes), and each row L^beta /
        # sigma^beta times the reference row, times the tempered factor
        exponent, beta = 0.6, 0.45
        _, p, ts = on_side(side, None, FracSpec(beta, sigma, power_weight(exponent, lo=0.5, hi=1.5)),
                           np.linspace(0.5, 1.5, 7))
        w = p.weight
        q = Quadrature1D(n=64)
        tau, wts = fracops1d._rule(p, ts, q)
        u, row = fracops1d._reference_row("graded", q.n, beta)
        nodes, big_l = power_rule_nodes(w, ts, u)
        want = (big_l**beta * sigma ** (-beta))[:, None] * row
        c = (sigma - 1.0) / sigma
        if c != 0.0:
            want *= np.exp2((big_l * (c * fracops1d._LOG2E))[:, None] * u)
        assert np.array_equal(tau, nodes)
        assert np.array_equal(wts, want)
        # the closed-form nodes may round past an end, by less than the
        # 1e-12 that the target check allows
        assert np.all((tau >= w.lo - 1e-12) & (tau <= w.hi + 1e-12))

    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_undeclared_rows_scale_the_reference_row(self, on_side, side, scheme):
        # an undeclared weight's rows scale the same reference row under
        # both schemes, and their nodes invert phi(t) - L*u, with L =
        # |phi(t) - phi(lo)|
        beta, sigma = 0.45, 0.7
        _, p, ts = on_side(side, None,
                           FracSpec(beta, sigma, power_weight(0.6, declared=False, lo=0.5, hi=1.5)),
                           np.linspace(0.5, 1.5, 7))
        w, lo, hi = p.weight, p.weight.lo, p.weight.hi
        q = Quadrature1D(n=32, scheme=scheme)
        tau, wts = fracops1d._rule(p, ts, q)
        u, row = fracops1d._reference_row(scheme, q.n, beta)
        big_l = np.abs(w.phi(ts) - w.phi(lo))
        assert np.array_equal(tau, w.inverse(w.phi(ts)[:, None] - big_l[:, None] * u))
        want = (big_l**beta * sigma ** (-beta))[:, None] * row
        want *= np.exp2((big_l * ((sigma - 1.0) / sigma * fracops1d._LOG2E))[:, None] * u)
        assert np.array_equal(wts, want)
        assert np.all((tau >= lo) & (tau <= hi))

    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    def test_undeclared_rows_read_phi_at_the_targets_once(self, scheme):
        # a custom: weight's phi at the targets gives both the level phi(t)
        # and L = |phi(t) - phi(lo)|; the inverse calls phi on the
        # raveled nodes and its grid, never at the targets' shape
        from dataclasses import replace

        from bcfrac.frac_cr_bicomplex import RectDomain
        from bcfrac.presets import phi_preset

        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.2, 0.4, 0.6, 0.8)
        w = phi_preset("custom:x + x*y^2|2*x + y + x^2*y").restriction(0, W, rect)
        shapes = []

        def phi(t):
            shapes.append(np.shape(t))
            return w.phi(t)

        ts, spec = np.linspace(0.6, 1.4, 7), FracSpec(0.45, 0.7, w)
        q = Quadrature1D(n=32, scheme=scheme)
        tau, wts = fracops1d._rule(replace(spec, weight=replace(w, phi=phi)), ts, q)
        assert shapes.count(ts.shape) == 1
        want = fracops1d._rule(spec, ts, q)
        assert np.array_equal(tau, want[0]) and np.array_equal(wts, want[1])

    @pytest.mark.parametrize("n", [256, 1024])
    def test_power_rows_as_accurate_as_the_general_path(self, n):
        # relative errors against mpmath, for a power weight declared (nodes
        # in closed form) and undeclared (nodes from the Newton inverse of
        # phi), at interior targets and 1e-9 of the span from the anchor.
        # Both scale the same reference row, so at interior targets their
        # errors agree to 1.2e-8 of themselves (medians 1.97e-6 at n = 256,
        # 1.22e-7 / 1.59e-7 at n = 1024).  Next to the anchor the declared
        # rows keep 1e-12, the share of the mass that the graded fractions
        # leave out before the anchor; the undeclared rows lose digits there
        # only in L = phi(t) - phi(anchor), which cancels to 1.4e-9 .. 2.9e-7.
        q = Quadrature1D(n=n)
        errors = {True: [], False: []}
        ts = np.array([0.8, 1.2, 0.5 + 1e-9])
        for beta in (0.05, 0.5, 0.95):
            for sigma in (1.0, 0.7):
                want = np.array([power_integral_reference(0.6, beta, sigma, t) for t in ts])
                for declared in (True, False):
                    spec = FracSpec(beta, sigma, power_weight(0.6, declared))
                    got = prop_frac_integral(sqrt_cos, spec, ts, q)
                    errors[declared].append(np.abs(got - want) / np.abs(want))
        power, general = np.array(errors[True]), np.array(errors[False])
        assert np.all(power[:, :2] <= (1.0 + 1e-6) * general[:, :2])
        assert np.all(power[:, 2] <= 1e-12)
        assert np.median(power) <= np.median(general)

    def test_power_gauss_jacobi_keeps_its_digits_next_to_the_anchor(self):
        # Gauss-Jacobi on a declared power weight takes L = power_gap:
        # L = phi(t) - phi(anchor) by subtraction loses 1.4e-9 .. 2.9e-7 next
        # to the anchor.  Measured relative errors against mpmath at n = 256:
        # at most 2.3e-13 (beta 0.05; 1.2e-14 otherwise) at interior targets
        # and at 1e-9 of the span from the anchor alike
        q = Quadrature1D(n=256, scheme="gauss_jacobi")
        ts = np.array([0.8, 1.2, 0.5 + 1e-9])
        for beta in (0.05, 0.5, 0.95):
            for sigma in (1.0, 0.7):
                want = np.array([power_integral_reference(0.6, beta, sigma, t) for t in ts])
                spec = FracSpec(beta, sigma, power_weight(0.6))
                got = prop_frac_integral(sqrt_cos, spec, ts, q)
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
        # from the declared power form, not from the Newton inverse of the
        # same weight undeclared; both give the same result
        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        q = Quadrature1D(n=64, scheme="gauss_jacobi")
        for exponents in ((0.5, 0.6, 0.7, 0.8), (1, 1, 1, 1)):
            for axis in range(4):
                w = Phi4.fractal(*exponents).restriction(axis, W, rect)
                ts = np.linspace(w.lo, w.hi, 9)
                undeclared = dataclasses.replace(w, exponent=None)
                got = prop_frac_integral(sqrt_cos, FracSpec(0.45, 0.7, w), ts, q)
                want = prop_frac_integral(sqrt_cos, FracSpec(0.45, 0.7, undeclared), ts, q)
                assert np.max(np.abs(got - want)) < 1e-12


def test_a_second_pass_over_more_than_64_rows_misses_none(identity_weight, cubic_weight):
    # one pass over the trace-inversion benchmark bundle uses 140 distinct
    # rows; an LRU cache smaller than a cyclic working set misses every
    # row on every pass.  Declared and undeclared weights alike scale
    # ``_reference_row``.
    specs = [(FracSpec(beta, 0.7, w), Quadrature1D(n=n))
             for w in (identity_weight, cubic_weight) for n in (16, 24)
             for beta in np.linspace(0.25, 0.95, 40)]

    def bundle():
        for p, q in specs:
            prop_frac_integral(np.cos, p, 0.5, q)
        return fracops1d._reference_row.cache_info().misses

    first = bundle()
    assert bundle() == first


class TestJacobiRule:
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_moments_at_tiny_order(self, n):
        # the rule of (1+x)^(beta-1) forms its exponents from beta itself:
        # from b = beta - 1 its k = 1 terms cancel to beta, losing 1.1e-16 /
        # beta relative.  Against mpmath at beta = 1e-6, the moments sum w
        # (1+x)^k for k = 2 and 5 are off by at most 5.6e-16 (1.1e-10 from
        # b), and at n = 256 the zeroth moment 2^beta / beta by 2.1e-13
        # (3.0e-11 from b)
        beta = 1e-6
        x, w = fracops1d._jacobi_rule(n, beta)
        with mpmath.workdps(40):
            exact = {k: mpmath.mpf(2) ** (beta + k) / (beta + k) for k in (0, 2, 5)}
        for k in (2, 5):
            assert abs(np.sum(w * (1.0 + x) ** k) / exact[k] - 1) <= 1e-14
        if n == 256:
            assert abs(np.sum(w) / exact[0] - 1) <= 1e-12


class TestPropFracDerivative:
    def test_inversion_left_and_right(self, cubic_weight, reflected):
        # the right side as the left side on the reflected line, at -t
        q = Quadrature1D(n=1024)
        spec = FracSpec(0.5, 0.7, cubic_weight)
        tpts = np.linspace(0.2, 0.8, 5)
        for (f, p), sign in (((np.sin, spec), 1.0), (reflected(np.sin, spec), -1.0)):
            integral = tabulate(f, p, q)
            got = prop_frac_derivative(integral, p, sign * tpts, q)
            assert np.max(np.abs(got - np.sin(tpts))) < 1e-4

    def test_derivative_of_constant(self, identity_weight):
        got = prop_frac_derivative(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                                   FracSpec(0.5, 1.0, identity_weight), 0.49,
                                   Quadrature1D(n=2048))
        assert abs(got - 0.49**-0.5 / gamma(0.5)) < 1e-6
        assert abs(1 / gamma(0.5) - 0.56419) < 1e-5

    @pytest.mark.parametrize("scheme, n, bound", [("gauss_jacobi", 64, 5e-8), ("graded", 2048, 2e-6)])
    @pytest.mark.parametrize("sigma", [0.05, 0.6, 1.0])
    def test_derivative_of_one_is_the_closed_form(self, identity_weight, sigma, scheme, n, bound):
        # the quotient of step h = 1e-4 against derivative_of_one.  Gauss-Jacobi
        # rows integrate one to about 1e-13, so what is left is the step error,
        # measured at most 2.3e-8 (sigma = 1, t = 0.25) and falling fourfold
        # with h / 2; the graded rows add their quadrature error, measured at
        # most 1.05e-6 (sigma = 0.05, t = 0.75) and falling fourfold as n doubles
        spec = FracSpec(0.5, sigma, identity_weight)
        ts = np.array([0.25, 0.49, 0.75])
        got = prop_frac_derivative(lambda t: np.ones_like(np.asarray(t, dtype=float)), spec,
                                   ts, Quadrature1D(n=n, scheme=scheme))
        want = np.array([fracops1d.derivative_of_one(spec, t) for t in ts])
        assert np.max(np.abs(got - want)) <= bound
        if sigma == 1.0:
            np.testing.assert_allclose(want, ts**-0.5 / gamma(0.5), rtol=1e-15)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_array_targets_equal_scalar_calls(self, cubic_weight, on_side, side):
        # the value rides in the stencil's integral call; rows depend only on
        # their own target, so batching never changes a bit
        f, spec, ts = on_side(side, np.cos, FracSpec(0.4, 0.6, cubic_weight),
                              np.array([0.0, 5e-5, 0.3, 0.3, 0.7, 1.0]))
        q = Quadrature1D(n=256)
        got = prop_frac_derivative(f, spec, ts, q)
        want = [prop_frac_derivative(f, spec, t, q) for t in ts]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    def test_integral_term_evaluated_off_proportion_one(self, cubic_weight, monkeypatch, on_side,
                                                        side, sigma):
        # one integral call: the difference stencil, and at sigma != 1 the
        # targets themselves for the (1 - sigma) term; the value is the full
        # formula's, from separate calls, bit for bit
        f, spec, ts = on_side(side, np.cos, FracSpec(0.4, sigma, cubic_weight),
                              np.array([0.0, 0.3, 0.7, 1.0]))
        w = spec.weight
        inner = FracSpec(1.0 - 0.4, sigma, w)
        q = Quadrature1D(n=128)
        h = fracops1d.difference_step(w.lo, w.hi)
        tm, tp = np.maximum(ts - h, w.lo), np.minimum(ts + h, w.hi)

        def g(s):
            return prop_frac_integral(f, inner, s, q)

        dg = (g(tp) - g(tm)) / (tp - tm)
        want = (1.0 - sigma) * g(ts) + sigma * dg / w.dphi(ts)

        targets, integral = [], fracops1d.prop_frac_integral

        def spy(f, p, t, q):
            targets.append(np.array(t, dtype=float).tolist())
            return integral(f, p, t, q)

        monkeypatch.setattr(fracops1d, "prop_frac_integral", spy)
        got = prop_frac_derivative(f, spec, ts, q)
        stencil = [tm, tp] if sigma == 1.0 else [tm, tp, ts]
        assert targets == [np.concatenate(stencil).tolist()]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("sigma", [1.0, 0.7])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_targets_checked_as_the_integral_checks_them(self, cubic_weight, on_side, side, sigma):
        # 1e-13 past the anchor is refused at every proportion: at sigma = 1
        # only the stencil, clipped to the interval, reaches the integral.
        # The right side's anchor is b, the reflected line's lower end
        spec, q = FracSpec(0.4, sigma, cubic_weight), Quadrature1D(n=16)
        past, far = (-1e-13, 1.0 + 1e-13) if side == "left" else (1.0 + 1e-13, -1e-13)
        with pytest.raises(DomainError, match="left integral needs"):
            prop_frac_derivative(*on_side(side, np.cos, spec, past), q)
        with pytest.raises(DomainError, match="outside"):
            prop_frac_derivative(*on_side(side, np.cos, spec, far + (far - 0.5) * 1e-10), q)
        assert np.isfinite(prop_frac_derivative(*on_side(side, np.cos, spec, far), q))

    def test_sigma_zero_is_the_identity(self, cubic_weight):
        ts = np.array([0.0, 0.3, 1.0])
        got = prop_frac_derivative(np.cos, FracSpec(0.6, 0.0, cubic_weight), ts, Quadrature1D(n=32))
        assert np.array_equal(got, np.cos(ts))

    def test_step_error(self, identity_weight, quad_default):
        spec = FracSpec(0.5, 0.7, identity_weight)
        with pytest.raises(StepError):
            prop_frac_derivative(np.sin, spec, 0.5, quad_default, h=0.6)

    def test_order_validated(self, identity_weight, quad_default):
        with pytest.raises(ValueError):
            prop_frac_derivative(np.sin, FracSpec(1.0, 0.7, identity_weight), 0.5, quad_default)


def _sample_sizes(monkeypatch):
    """Target counts of the integral calls ``tabulate`` makes, in order."""
    real = fracops1d.prop_frac_integral
    sizes = []

    def spy(f, p, t, q):
        sizes.append(np.size(t))
        return real(f, p, t, q)

    monkeypatch.setattr(fracops1d, "prop_frac_integral", spy)
    return sizes


class TestTabulate:
    WEIGHTS = {
        "affine": ScalarWeightFn(lambda t: 0.3 + 2.0 * t, lambda t: 2.0 + 0.0 * t, 0.5, 1.5,
                                 exponent=1.0),
        "fractal": Phi4.fractal(0.6135, 0.8186, 0.7829, 0.6735).restriction(
            0, BicomplexNumber(0.91 + 0.87j, 1.03 + 1.11j), RectDomain(*[0.5, 1.5] * 4)),
        "cubic": ScalarWeightFn(lambda t: t + t**3, lambda t: 1.0 + 3.0 * t**2, 0.5, 1.5),
    }

    @staticmethod
    def field(t):
        return 1.5 + np.sin(3.0 * t) + 0.5j * np.cos(t)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    @pytest.mark.parametrize("weight", ["affine", "fractal", "cubic"])
    def test_surrogate_matches_the_rule(self, monkeypatch, on_side, weight, scheme, side):
        w = self.WEIGHTS[weight]
        q = Quadrature1D(n=128, scheme=scheme)
        span = w.hi - w.lo
        anchor, inward = (w.lo, 1.0) if side == "left" else (w.hi, -1.0)
        near = anchor + inward * span * np.logspace(-9, -1, 9)
        targets = np.concatenate([np.linspace(w.lo, w.hi, 201)[1:-1], near])
        sizes = _sample_sizes(monkeypatch)
        for sigma in (0.05, 0.7, 1.0):
            for beta in (1e-6, 0.3, 0.5, 0.999):
                f, p, ts = on_side(side, self.field, FracSpec(beta, sigma, w), targets)
                sizes.clear()
                got = tabulate(f, p, q)(ts)
                assert sizes[0] == 32 and all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
                want = fracops1d.prop_frac_integral(f, p, ts, q)
                err = np.abs(got - want) / np.abs(want)
                assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sigma_zero_is_f_itself(self, cubic_weight, monkeypatch, on_side, side):
        def no_integral(*args):
            raise AssertionError("sigma = 0 needs no integral")

        monkeypatch.setattr(fracops1d, "prop_frac_integral", no_integral)
        f, p, xs = on_side(side, self.field, FracSpec(0.4, 0.0, cubic_weight),
                           np.append(np.linspace(0.0, 1.0, 7), 0.3))
        surrogate = tabulate(f, p, Quadrature1D(n=64))
        ts, t = xs[:7].reshape(7, 1), xs[7]
        assert np.array_equal(surrogate(ts), f(ts) + 0.0j)
        assert surrogate(t) == f(t) and np.ndim(surrogate(t)) == 0

    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_anchor_gets_the_one_sided_limit(self, identity_weight, on_side, scheme, side):
        # at order 1e-6 the integral falls from about f to 0 in a layer far
        # thinner than 1e-12 of the span; the anchor sees the outer value
        f, p, (anchor, inside) = on_side(side, self.field, FracSpec(1e-6, 0.7, identity_weight),
                                         np.array([0.0, 1e-12] if side == "left"
                                                  else [1.0, 1.0 - 1e-12]))
        q = Quadrature1D(n=64, scheme=scheme)
        got = tabulate(f, p, q)(anchor)
        want = prop_frac_integral(f, p, inside, q)
        assert prop_frac_integral(f, p, anchor, q) == 0
        assert abs(want) > 1.0 and abs(got - want) <= 1e-13 * abs(want)
        assert np.ndim(got) == 0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_samples_come_back_bit_for_bit(self, cubic_weight, monkeypatch, on_side, side):
        seen = []
        real = fracops1d.prop_frac_integral

        def spy(f, p, t, q):
            seen.append(np.array(t))
            return real(f, p, t, q)

        monkeypatch.setattr(fracops1d, "prop_frac_integral", spy)
        (f, p, _), q = on_side(side, np.cos, FracSpec(0.5, 0.7, cubic_weight)), Quadrature1D(n=128)
        surrogate = tabulate(f, p, q)  # a real integrand: 0 * inf in the sums
        (xs,) = seen
        assert np.array_equal(surrogate(xs[::-1]), real(f, p, xs[::-1], q))

    def test_block_size_never_changes_a_value(self, cubic_weight, monkeypatch):
        p, q = FracSpec(0.5, 0.7, cubic_weight), Quadrature1D(n=128)
        ts = np.linspace(0.0, 1.0, 1001)
        whole = tabulate(self.field, p, q)(ts)
        monkeypatch.setattr(fracops1d, "_CHUNK_ELEMENTS", 3 * 32)
        blocked = tabulate(self.field, p, q)(ts)
        # BLAS may order a block's sums differently: rounding, not blocks
        assert np.max(np.abs(blocked - whole) / np.abs(whole)) <= 1e-14

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_pole_near_the_interval_doubles_the_samples(self, identity_weight, monkeypatch, n):
        # a pole 0.02 off the middle of [0, 1] needs about 800 samples
        def field(t):
            return 1.0 / (t - 0.5 - 0.02j)

        p, q = FracSpec(0.5, 0.7, identity_weight), Quadrature1D(n=n)
        sizes = _sample_sizes(monkeypatch)
        surrogate = tabulate(field, p, q)
        sizes, budget = list(sizes), max(256, n // 4)
        assert sizes[0] == 32 and all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= budget
        ts = np.linspace(0.0, 1.0, 401)[1:]
        want = fracops1d.prop_frac_integral(field, p, ts, q)
        err = np.max(np.abs(surrogate(ts) - want) / np.abs(want))
        assert err <= 1e-13

    def test_unresolved_at_the_budget_gives_the_direct_rule(self, identity_weight, monkeypatch):
        # at n = 1024 the budget is 256 samples and the pole needs about 800;
        # the 256-sample surrogate was 1.3e-5 relative off the rule
        def field(t):
            return 1.0 / (t - 0.5 - 0.02j)

        p, q = FracSpec(0.5, 0.7, identity_weight), Quadrature1D(n=1024)
        sizes = _sample_sizes(monkeypatch)
        integral = tabulate(field, p, q)
        assert sizes == [32, 64, 128, 256]
        ts = np.linspace(0.0, 1.0, 401)[1:]
        assert np.array_equal(integral(ts), prop_frac_integral(field, p, ts, q))
        # the anchor keeps the one-sided limit, as with a surrogate
        assert integral(0.0) == prop_frac_integral(field, p, 1e-12, q)
        assert np.ndim(integral(0.3)) == 0


class TestBarycentric:
    """The line surrogate of the deep maps: a barycentric Chebyshev
    interpolant, ``tabulate``'s evaluation."""

    @staticmethod
    def field(t):
        return 1.5 + np.sin(3.0 * t) + 0.5j * np.cos(t)

    def line(self, a, b):
        theta, xs = fracops1d._chebyshev_points(a, b, 32)
        return xs, fracops1d._barycentric(theta, xs, self.field(xs), a, b)

    def test_samples_come_back_bit_for_bit(self):
        xs, surrogate = self.line(0.2, 0.9)
        assert np.array_equal(surrogate(xs[::-1]), self.field(xs[::-1]))
        assert np.array_equal(surrogate(xs[5:6]), self.field(xs[5:6]))

    def test_resolves_a_smooth_line_and_clips_to_the_interval(self):
        _, surrogate = self.line(0.2, 0.9)
        ts = np.linspace(0.2, 0.9, 301).reshape(7, 43)
        got = surrogate(ts)
        assert got.shape == ts.shape
        assert np.max(np.abs(got - self.field(ts))) <= 1e-14 * np.max(np.abs(self.field(ts)))
        outside = surrogate(np.array([0.0, 0.1, 0.95, 1.0]))
        assert np.array_equal(outside, surrogate(np.array([0.2, 0.2, 0.9, 0.9])))

    def test_tabulate_and_the_deep_line_share_one_evaluation(self, cubic_weight, unit_rect,
                                                             linear_phi, monkeypatch):
        from bcfrac import frac_cr_bicomplex
        from bcfrac.frac_cr_bicomplex import FracParams, _trace_derivative_of_map

        real, built = fracops1d._barycentric, []

        def spy(theta, xs, values, a, b, **given):
            built.append((xs.size, sorted(given)))
            return real(theta, xs, values, a, b, **given)

        monkeypatch.setattr(fracops1d, "_barycentric", spy)
        monkeypatch.setattr(frac_cr_bicomplex, "_barycentric", spy)
        tabulate(self.field, FracSpec(0.5, 0.7, cubic_weight), Quadrature1D(n=64))
        p = FracParams(unit_rect, (0.5,) * 4, (0.7, 0.0, 0.7, 0.0), linear_phi, Quadrature1D(n=64))
        Z = unit_rect.point(0.6, 0.5, 0.6, 0.5)
        _trace_derivative_of_map(lambda x, y: self.field(x + y), 1, Z, Z, p, ((0.0, 1.0),) * 2)
        # the rule's own samples and L^beta for tabulate; neither for a line
        assert built == [(32, ["exact", "scale"]), (32, [])]


class TestDerivativeStencil:
    """The difference quotient of ``prop_frac_derivative``, read through a
    stand-in for its one inner integral call."""

    @staticmethod
    def derivative(monkeypatch, fn, ts, h):
        calls = []

        def integral(f, p, t, q):
            calls.append(t.copy())
            return fn(t)

        monkeypatch.setattr(fracops1d, "prop_frac_integral", integral)
        # sigma = 1 on the identity weight: the quotient itself
        spec = FracSpec(0.5, 1.0, ScalarWeightFn(lambda t: t, lambda t: 1.0 + 0.0 * t, 0.0, 1.0,
                                                 exponent=1.0))
        return prop_frac_derivative(np.cos, spec, ts, Quadrature1D(n=16), h=h), calls

    def test_exact_on_affine(self, monkeypatch):
        ts = np.array([0.0, 1e-5, 0.3, 0.99999, 1.0])
        got, _ = self.derivative(monkeypatch, lambda s: 2.5 - 1.75j * s, ts, 1e-4)
        assert np.max(np.abs(got + 1.75j)) < 1e-10

    def test_one_sided_at_both_ends(self, monkeypatch):
        got, calls = self.derivative(monkeypatch, lambda s: s**2, np.array([0.0, 0.5, 1.0]), 0.01)
        assert len(calls) == 1
        assert np.array_equal(calls[0], [0.0, 0.49, 0.99, 0.01, 0.51, 1.0])
        # one-sided quotients of s^2 are off by h, the central one is exact
        assert np.max(np.abs(got - [0.01, 1.0, 1.99])) < 1e-12


class TestNonFiniteTargets:
    """NaN and infinite targets are refused before any rule row is built,
    alone and hidden in a batch, on both sides (the right one reflected)."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("operator", [prop_frac_integral, prop_frac_derivative])
    def test_refused(self, cubic_weight, on_side, side, bad, batched, operator):
        ts = np.array([0.2, 0.5, bad, 0.9]) if batched else bad
        with pytest.raises(DomainError):
            operator(*on_side(side, np.cos, FracSpec(0.4, 0.7, cubic_weight), ts), Quadrature1D(n=16))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tolerances_and_messages_kept(self, cubic_weight, on_side, side):
        # up to 1e-12 beyond the interval counts as inside it, but beyond the
        # anchor only 1e-14 does; the right side's anchor is b, the reflected
        # line's lower end
        spec, q = FracSpec(0.4, 0.7, cubic_weight), Quadrature1D(n=16)
        lo, hi = (-5e-13, -1e-11), (1.0 + 5e-13, 1.0 + 1e-11)  # just past, and past 1e-12
        (anchor, _), (far, beyond) = (lo, hi) if side == "left" else (hi, lo)
        with pytest.raises(DomainError, match="left integral needs"):
            prop_frac_integral(*on_side(side, np.cos, spec, np.array([0.5, anchor])), q)
        assert np.isfinite(prop_frac_integral(*on_side(side, np.cos, spec, far), q))
        with pytest.raises(DomainError, match="outside"):
            prop_frac_integral(*on_side(side, np.cos, spec, np.array([0.5, beyond])), q)


def _series_weights():
    """An affine, a declared power and an undeclared cubic weight."""
    return [affine_weight(0.0, 0.0, 1.0), power_weight(0.6), power_weight(0.8),
            ScalarWeightFn(phi=lambda t: t + t**3, dphi=lambda t: 1.0 + 3.0 * t**2,
                           lo=0.0, hi=1.0)]


SERIES_ORDERS = [(0.35, 0.9), (0.3, 1.0), (0.5, 1.0), (0.5, 0.7), (0.65, 0.6), (1e-6, 0.7)]


class TestDerivativeOfIntegral:
    """``derivative_of_integral`` and ``derivative_of_one`` against closed
    forms, at interior points."""

    @pytest.mark.parametrize("gamma_", sorted({g for g, _ in SERIES_ORDERS}))
    @pytest.mark.parametrize("sigma", [6e-4, 0.05, 0.6, 1.0])
    def test_derivative_of_one_is_the_kummer_form(self, gamma_, sigma):
        # D[1] = sigma^g [U^-g e^(cU)/Gamma(1-g) - c U^(1-g) 1F1(1-g; 2-g; cU)/Gamma(2-g)],
        # in 40-digit arithmetic from the same U
        with mpmath.workdps(40):
            g, s = mpmath.mpf(gamma_), mpmath.mpf(sigma)
            c = (s - 1) / s
            for w in _series_weights():
                for frac in (0.1, 0.45, 0.8):
                    t = w.lo + frac * (w.hi - w.lo)
                    u = mpmath.mpf(float(fracops1d._singular_range(w, np.array([t]))[0]))
                    want = s**g * (u**-g * mpmath.exp(c * u) / mpmath.gamma(1 - g)
                                   - c * u ** (1 - g) * mpmath.hyp1f1(1 - g, 2 - g, c * u)
                                   / mpmath.gamma(2 - g))
                    got = fracops1d.derivative_of_one(FracSpec(gamma_, sigma, w), t)
                    assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("gamma_", sorted({g for g, _ in SERIES_ORDERS}))
    def test_derivative_of_one_at_a_vanishing_proportion(self, gamma_):
        # at sigma = 1e-9, y = (1 - sigma) U / sigma is about 1e9: the
        # incomplete gamma ratio is 1, summed by no series
        for w in _series_weights():
            t = w.lo + 0.45 * (w.hi - w.lo)
            got = fracops1d.derivative_of_one(FracSpec(gamma_, 1e-9, w), t)
            assert abs(got - (1.0 - 1e-9) ** gamma_) <= 1e-12

    @pytest.mark.parametrize("gamma_, sigma", SERIES_ORDERS)
    def test_derivative_of_the_integral_is_the_input(self, gamma_, sigma):
        def f(t):
            return np.cos(3.0 * t) + t**2 + 0.5j * t

        for w in _series_weights():
            for frac in (0.1, 0.45, 0.8):
                t = w.lo + frac * (w.hi - w.lo)
                _, got = fracops1d.derivative_of_integral(f, FracSpec(gamma_, sigma, w), t)
                assert abs(got - f(t)) <= 1e-12

    @pytest.mark.parametrize("gamma_, sigma", SERIES_ORDERS)
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_integral_of_the_kummer_family(self, gamma_, sigma, k):
        # I[(phi - phi(a))^k] = sigma^-b V^(b+k) Gamma(k+1)/Gamma(b+k+1) 1F1(b; b+k+1; cV):
        # the integral map alone, apart from the derivative
        c = (sigma - 1.0) / sigma
        for w in _series_weights():
            base = float(w.phi(np.asarray(w.lo)))
            for frac in (0.1, 0.45, 0.8):
                t = w.lo + frac * (w.hi - w.lo)
                big_v = float(w.phi(np.asarray(t))) - base
                want = (sigma**-gamma_ * big_v ** (gamma_ + k) * math.gamma(k + 1.0)
                        / math.gamma(gamma_ + k + 1.0)
                        * float(mpmath.hyp1f1(gamma_, gamma_ + k + 1.0, c * big_v)))
                got, _ = fracops1d.derivative_of_integral(
                    lambda s: (w.phi(s) - base) ** k, FracSpec(gamma_, sigma, w), t)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("gamma_, sigma", SERIES_ORDERS)
    def test_integral_of_the_eigen_input(self, gamma_, sigma):
        # exp(cV) cancels the tempering: I = sigma^-b exp(cV) V^b / Gamma(b+1)
        c = (sigma - 1.0) / sigma
        for w in _series_weights():
            base = float(w.phi(np.asarray(w.lo)))
            for frac in (0.1, 0.45, 0.8):
                t = w.lo + frac * (w.hi - w.lo)
                big_v = float(w.phi(np.asarray(t))) - base
                want = sigma**-gamma_ * math.exp(c * big_v) * big_v**gamma_ / math.gamma(gamma_ + 1.0)
                got, _ = fracops1d.derivative_of_integral(
                    lambda s: np.exp(c * (w.phi(s) - base)), FracSpec(gamma_, sigma, w), t)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("sigma", [0.05, 0.1])
    @pytest.mark.parametrize("t", [0.4, 1.0, 1.8])
    def test_a_small_proportion_keeps_its_digits(self, sigma, t):
        # exp(-cU) grows by exp(|c| L) across the range (exp(38) at sigma =
        # 0.05 on L = 2); expanded over all of it, the value read back at t
        # lost up to 3e-2 of the integral
        def f(s):
            return np.cos(3.0 * s) + s**2

        spec = FracSpec(0.5, sigma, affine_weight(0.0, 0.0, 2.0))
        value, d_value = fracops1d.derivative_of_integral(f, spec, t)
        want = prop_frac_integral(f, spec, t, Quadrature1D(n=512, scheme="gauss_jacobi"))
        assert abs(value - want) <= 1e-11 and abs(d_value - f(t)) <= 1e-11

    def test_a_tiny_proportion_does_not_overflow(self):
        # |c| U(t) = 833 at sigma = 6e-4: the samples of exp(-cU) f overflowed
        # before the expansion was shifted by U(t)
        def f(s):
            return np.cos(3.0 * s) + s**2

        spec = FracSpec(0.5, 6e-4, affine_weight(0.0, 0.0, 1.0))
        value, d_value = fracops1d.derivative_of_integral(f, spec, 0.5)
        want = prop_frac_integral(f, spec, 0.5, Quadrature1D(n=512, scheme="gauss_jacobi"))
        assert abs(value - want) <= 1e-11 and abs(d_value - f(0.5)) <= 1e-11

    @pytest.mark.parametrize("t, bound", [(0.4, 1e-12), (1.0, 1e-12), (1.8, 1e-8)])
    def test_the_series_budget_at_a_tiny_proportion(self, t, bound):
        # |c| U(t) = 3000 at sigma = 6e-4, t = 1.8 on [0, 2]: the expansion of
        # exp(-c(U - U(t))) f stops at its N = 256 budget before it resolves
        # the product, and D I f - f reads 1.1e-9 there, against 6.0e-14 and
        # 1.6e-13 at t = 0.4 and 1.0.  The 1e-8 bound is that budget's known
        # limit (ROADMAP item 20), not an accuracy claim.
        def f(s):
            return 0.5 + np.cos(3.0 * s)

        spec = FracSpec(0.5, 6e-4, affine_weight(0.0, 0.0, 2.0))
        _, d_value = fracops1d.derivative_of_integral(f, spec, t)
        assert abs(d_value - f(t)) <= bound

    def test_at_the_anchor(self, cubic_weight):
        spec = FracSpec(0.4, 0.7, cubic_weight)
        value, d_value = fracops1d.derivative_of_integral(np.exp, spec, 0.0)
        assert value == 0.0 and abs(d_value - 1.0) <= 1e-12
        assert fracops1d.derivative_of_one(spec, 0.0) == np.inf

    def test_sigma_zero_is_the_identity(self, cubic_weight):
        spec = FracSpec(0.4, 0.0, cubic_weight)
        assert fracops1d.derivative_of_integral(np.exp, spec, 0.3) == (np.exp(0.3), np.exp(0.3))
        assert fracops1d.derivative_of_one(spec, 0.3) == 1.0

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.4, 0.4), (0.4, -0.4), (0.4, 0.0),
                                      (0.0, 0.4)])
    def test_jacobi_polynomials_match_scipy(self, a, b):
        # a + b = 0 takes the explicit P_1
        from scipy.special import eval_jacobi

        x = np.linspace(-1.0, 1.0, 7)
        got = fracops1d._jacobi_polynomials(40, a, b, x)
        want = np.array([eval_jacobi(k, a, b, x) for k in range(40)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
        assert np.array_equal(fracops1d._jacobi_polynomials(40, a, b, 0.3),
                              fracops1d._jacobi_polynomials(40, a, b, np.array([0.3]))[:, 0])

    @pytest.mark.parametrize("n", [32, 64, 256])
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.37, 0.37), (0.0, 0.4706), (0.4706, 0.0)])
    def test_cached_recurrence_is_the_loop_bit_for_bit(self, n, a, b):
        # the recurrence coefficients written inline, as before they were cached
        def loop(x):
            rows = [1.0 + 0.0 * x, 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x]
            for k in range(1, n - 1):
                s = 2.0 * k + a + b
                den = 2.0 * (k + 1.0) * (k + a + b + 1.0) * s
                rows.append(((s + 1.0) * (s + 2.0) * s / den * x + (s + 1.0) * (a * a - b * b) / den)
                            * rows[k] - 2.0 * (k + a) * (k + b) * (s + 2.0) / den * rows[k - 1])
            return np.array(rows)

        for x in (0.123456, -0.9, np.linspace(-1.0, 1.0, 7)):
            for _ in range(2):  # the second call reads the cache
                assert np.array_equal(fracops1d._jacobi_polynomials(n, a, b, x), loop(x))


#: Smooth inputs of the differential sweep, one of them complex.
SMOOTH_INPUTS = (lambda t: np.cos(3.0 * t) + t**2, lambda t: np.exp(-t) * (1.0 + 1.0j * t),
                 lambda t: 1.0 / (1.0 + t * t))

#: Draws of the differential sweep: order, proportion, weight, smooth input
#: and the target's fraction of the interval.
SWEEP = given(beta=st.one_of(st.sampled_from([1e-6, 1e-3]), st.floats(0.02, 0.98)),
              sigma=st.floats(0.05, 1.0),
              weight=st.sampled_from([
                  affine_weight(0.0, 0.0, 2.0), affine_weight(0.3, 0.5, 1.5, declared=False),
                  power_weight(0.6), power_weight(1.7),
                  ScalarWeightFn(phi=lambda t: t + t**3, dphi=lambda t: 1.0 + 3.0 * t**2,
                                 lo=0.0, hi=1.0)]),
              f=st.sampled_from(SMOOTH_INPUTS), frac=st.floats(0.1, 0.9))


class TestThreeImplementationsAgree:
    """Differential sweep of the left integral (McKeeman, "Differential
    testing for software", Digital Tech. J. 10(1) 1998): the graded row, the
    Gauss-Jacobi row and the series of ``derivative_of_integral`` compute the
    same ``I f`` by independent means, so each pair must agree within the sum
    of their errors.

    Errors relative to ``max(1, |I f|)``:
    - series: 1e-12 (``TestDerivativeOfIntegral``), and so is ``D I f - f``;
    - Gauss-Jacobi at n = 512: 1e-11 (up to 7e-12 was seen at orders near
      0.02), and 5e-11 at order 1e-6, where its nodes drift by about 2e-11;
    - graded at n = 1024: second order, within 20/n^2 (at most 7/n^2 was
      seen over 1000 random draws of this sweep).

    On the same draws, each rule's ``tabulate`` surrogate and its
    ``prop_frac_derivative`` must give back ``f``: ``D I f = f``.
    """

    GAUSS_JACOBI, GRADED = Quadrature1D(n=512, scheme="gauss_jacobi"), Quadrature1D(n=1024)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @SWEEP
    def test_graded_gauss_jacobi_and_series(self, beta, sigma, weight, f, frac):
        t = weight.lo + frac * (weight.hi - weight.lo)
        spec = FracSpec(beta, sigma, weight)
        series, d_series = fracops1d.derivative_of_integral(f, spec, t)
        scale = max(1.0, abs(series))
        gauss_jacobi = prop_frac_integral(f, spec, t, self.GAUSS_JACOBI)
        graded = prop_frac_integral(f, spec, t, self.GRADED)
        assert abs(d_series - f(t)) <= 1e-12 * scale
        assert abs(series - gauss_jacobi) <= (5e-11 if beta < 1e-3 else 1e-11) * scale
        assert abs(series - graded) <= 20.0 / self.GRADED.n**2 * scale

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @SWEEP
    def test_derivative_of_the_tabulated_integral_is_the_input(self, beta, sigma, weight, f, frac):
        # D I f = f, with I f the ``tabulate`` surrogate and D its
        # ``prop_frac_derivative``, relative to max(1, |f|): largest errors
        # over these 60 draws 8.9e-8 (Gauss-Jacobi, n = 512) and 3.1e-6
        # (graded, n = 1024, against the integral's own 20/n^2 = 1.9e-5)
        t = weight.lo + frac * (weight.hi - weight.lo)
        spec = FracSpec(beta, sigma, weight)
        scale = max(1.0, abs(f(t)))
        for q, bound in ((self.GAUSS_JACOBI, 2e-7), (self.GRADED, 7e-6)):
            got = prop_frac_derivative(tabulate(f, spec, q), spec, t, q)
            assert abs(got - f(t)) <= bound * scale


class TestInverse:
    """``ScalarWeightFn.inverse``: safeguarded Newton steps on ``phi - u``."""

    def test_round_trip_with_the_interval_ends(self, cubic_weight):
        ts = np.linspace(0.0, 1.0, 1001)
        back = cubic_weight.inverse(cubic_weight.phi(ts))
        assert back[0] == 0.0 and back[-1] == 1.0
        assert np.max(np.abs(back - ts)) <= 1e-13

    def test_converges_where_dphi_nearly_vanishes(self):
        # dphi falls to 1e-6 at t = 0.5, where Newton steps from afar
        # overshoot the bracket and bisection takes over
        calls = []

        def phi(t):
            calls.append(np.size(t))
            return (np.asarray(t, dtype=float) - 0.5) ** 3 + 1e-6 * np.asarray(t, dtype=float)

        w = ScalarWeightFn(phi, lambda t: 3.0 * (np.asarray(t, dtype=float) - 0.5) ** 2 + 1e-6,
                           0.0, 1.0)
        ts = np.concatenate([np.linspace(0.0, 1.0, 201), 0.5 + np.logspace(-9, -2, 8)])
        us = phi(ts)
        calls.clear()
        back = w.inverse(us)
        assert len(calls) <= 80
        assert np.all((back >= 0.0) & (back <= 1.0))
        assert np.max(np.abs(phi(back) - us)) <= 1e-16
        assert np.max(np.abs(back - ts)) <= 1e-13

    def test_an_entry_alone_and_in_a_batch_agree(self, cubic_weight):
        rng = np.random.default_rng(3)
        us = cubic_weight.phi(rng.uniform(0.0, 1.0, (16, 33)))
        batch = cubic_weight.inverse(us)
        alone = np.array([cubic_weight.inverse(u) for u in us.ravel()]).reshape(us.shape)
        assert np.array_equal(batch, alone)
        assert np.array_equal(cubic_weight.inverse(us[3]), batch[3])


class TestScipyOracles:
    """The numpy-only building blocks against scipy, which the test extra
    keeps as an oracle only."""

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


class TestSeriesRule:
    """The maps of ``derivative_of_integral``'s Jacobi series:
    ``_jacobi_analysis``, the Legendre nodes and analysis map read off one
    eigendecomposition, and ``_series_maps``, the connection map from
    Legendre coefficients to those of the integral in ``P_l^(0,gamma)``, in
    closed form."""

    @pytest.mark.parametrize("n", [32, 256])
    def test_analysis_inverts_the_polynomials_at_exact_nodes(self, n):
        from scipy.special import eval_legendre

        y, analysis = fracops1d._jacobi_analysis(n)
        values = eval_legendre(np.arange(n), y[:, None])  # P_m at the nodes
        # measured at most 5.4e-14, at n = 256
        assert np.max(np.abs(analysis @ values - np.eye(n))) <= 1e-13
        # the eigenvalues are within 4.4e-16 of the nodes in 30 digits
        picks = [0, 1, n // 2, n - 2, n - 1]
        exact_y, _ = _exact_jacobi_rule(mpmath, n, 1.0, y[picks])
        assert np.max(np.abs(y[picks] - exact_y)) <= 1e-15

    @pytest.mark.parametrize("gamma, n", [(0.0, 32), (0.0, 256), (1e-6, 32), (0.5, 32),
                                          (0.999999, 32)])
    def test_maps_agree_with_the_christoffel_rule(self, gamma, n):
        # the construction of Newton-refined nodes and Christoffel weights
        # with a second recurrence for P_k^(0,gamma) gives the same maps: at
        # most 9.2e-14 of the largest entry, at n = 256 and gamma = 0.  At
        # n = 256 and gamma = 1e-6 this construction is itself 2.7e-13 off
        # the exact connection map, so there the mpmath check below stands in
        y, wy = fracops1d._jacobi_rule(n, 1.0 + gamma)
        norm = (2.0 * np.arange(n)[:, None] + gamma + 1.0) / 2.0 ** (gamma + 1.0)
        expand = norm * wy * fracops1d._jacobi_polynomials(n, 0.0, gamma, y)
        if gamma == 0.0:
            want, got = expand, fracops1d._jacobi_analysis(n)[1]
        else:
            ratios = np.exp([math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + gamma) for k in range(n)])
            integral = (ratios[:, None] * fracops1d._jacobi_polynomials(n, -gamma, gamma, y)).T
            want, got = expand @ integral, fracops1d._series_maps(n, gamma)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("gamma", [1e-6, 0.3, 0.5, 0.999999])
    def test_connect_matches_the_closed_form(self, gamma, n):
        # (2l+gamma+1) (-gamma)_(k-l)/(k-l)! Gamma(k+l+1)/Gamma(k+l+gamma+2)
        # in 30 digits: every entry on and above the diagonal at n = 32, 300
        # seeded ones at n = 256.  Measured at most 1.8e-15 and 9.0e-15 (9.5e-15
        # over every entry at n = 256), at gamma = 1e-6; the product of the
        # eigendecomposition maps it replaced was 2.1e-14 and 2.9e-13 off there
        connect, ratios = fracops1d._series_maps(n, gamma)
        assert not np.any(np.tril(connect, -1))
        picks = np.transpose(np.triu_indices(n))
        if n == 256:
            picks = picks[np.random.default_rng(54).choice(len(picks), 300, replace=False)]
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            want = [float((2 * l + g + 1) * mpmath.rf(-g, k - l) / mpmath.factorial(k - l)
                          * mpmath.gamma(k + l + 1) / mpmath.gamma(k + l + g + 2))
                    for l, k in picks.tolist()]
            exact_ratios = [float((-1) ** k * mpmath.gamma(k + g + 1) / mpmath.gamma(k + 1))
                            for k in range(n)]
        assert np.max(np.abs(connect[picks[:, 0], picks[:, 1]] - want)) <= 2e-14
        np.testing.assert_allclose(ratios, exact_ratios, rtol=1e-13)

    @pytest.mark.parametrize("gamma", [1e-6, 0.3, 0.999999])
    def test_reflection_reads_the_derivative_polynomials(self, gamma):
        # P_k^(gamma,0)(x) = (-1)^k P_k^(0,gamma)(-x), which lets the value
        # and the derivative of derivative_of_integral share one recurrence
        from scipy.special import eval_jacobi

        n, x = 64, np.linspace(-1.0, 1.0, 9)
        got = (-1.0) ** np.arange(n)[:, None] * fracops1d._jacobi_polynomials(n, 0.0, gamma, -x)
        want = np.array([eval_jacobi(k, gamma, 0.0, x) for k in range(n)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_each_order_builds_one_map_and_one_recurrence(self, monkeypatch):
        # five orders on an input whose Legendre series stops at N = 32: one
        # eigendecomposition (the Legendre analysis) for all of them, and per
        # order one connection map and one recurrence, read at points only
        caches = (fracops1d._jacobi_analysis, fracops1d._series_maps,
                  fracops1d._jacobi_recurrence)
        for cache in caches:
            cache.cache_clear()
        eigh, points = [], []
        real_eigh, real_polynomials = np.linalg.eigh, fracops1d._jacobi_polynomials

        def spy_eigh(matrix):
            eigh.append(matrix.shape)
            return real_eigh(matrix)

        def spy_polynomials(n, a, b, x):
            points.append(np.ndim(x))
            return real_polynomials(n, a, b, x)

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        monkeypatch.setattr(fracops1d, "_jacobi_polynomials", spy_polynomials)
        w = affine_weight(0.0, 0.0, 1.0)
        for order in (0.1, 0.3, 0.5, 0.7, 0.9):
            _, d_value = fracops1d.derivative_of_integral(np.cos, FracSpec(order, 0.8, w), 0.6)
            assert abs(d_value - np.cos(0.6)) <= 1e-12
        assert eigh == [(32, 32)]
        assert [cache.cache_info().misses for cache in caches] == [1, 5, 5]
        assert fracops1d._jacobi_recurrence.cache_info().currsize == 5
        assert points == [0] * 10


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
