import warnings

import numpy as np
import pytest
from scipy.special import gamma

from bcfrac import (
    BicomplexNumber,
    EmptyProbesError,
    FracParams,
    Phi4,
    PlaneFunction,
    ProductFunction,
    Quadrature1D,
    RectDomain,
    UnsupportedWeightsError,
    WeightPair,
    dphi,
    factorization_check,
    frac_cr_apply,
    inversion_check,
    lambda_for_constant_weights,
    lambda_residual,
    remainder_R,
    trace_sum,
)
from bcfrac.frac_cr_bicomplex import (
    _axis_coord,
    _axis_line,
    _axis_partial_batched,
    axis_derivative,
    axis_integral,
    frac_cr_component,
)
from bcfrac import fracops1d
from bcfrac.fracops1d import difference_step


def trace_integral(F, W, p, Z) -> BicomplexNumber:
    """Four-direction trace integral ``(I F)(Z, W)``: one ``axis_integral``
    per axis at ``Z``'s coordinate, summed per component plane."""
    v = [axis_integral(F, W, p, ax, _axis_coord(Z, ax)) for ax in range(4)]
    return BicomplexNumber(v[0] + v[1], v[2] + v[3])


def trace_derivative(F, W, p, Z) -> BicomplexNumber:
    """Four-direction trace derivative ``(D F)(Z, W)``: one
    ``axis_derivative`` of ``F``'s line through ``W`` per axis."""
    v = [axis_derivative(_axis_line(F, W, ax), W, p, ax, _axis_coord(Z, ax)) for ax in range(4)]
    return BicomplexNumber(v[0] + v[1], v[2] + v[3])


@pytest.fixture
def setup(unit_rect, linear_phi, poly_field):
    W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
    Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
    return unit_rect, linear_phi, poly_field, W, Z


class TestContains:
    RECT = RectDomain(0.5, 1.5, -1.0, 2.0, 0.0, 1.0, 0.25, 3.0)

    @pytest.mark.parametrize("axis", range(4))
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("past, inside", [(-2e-12, True), (-1e-12, True), (1e-12, True),
                                              (2e-12, False), (np.nan, False)])
    def test_scalar_and_array_points_agree(self, axis, end, past, inside):
        # ``past`` beyond the lower (end 0) or upper (end 1) edge of one axis;
        # the bound is 1e-12, and NaN lies nowhere; a point is one point, so
        # an array of them is refused
        edge = self.RECT.axis_interval(axis)[end]
        coords = [sum(self.RECT.axis_interval(ax)) / 2 for ax in range(4)]
        coords[axis] = edge + (past if end else -past)
        scalar = BicomplexNumber(complex(coords[0], coords[1]), complex(coords[2], coords[3]))
        centre = self.RECT.point(0.5, 0.5, 0.5, 0.5)
        array = BicomplexNumber(np.array([centre.z1, scalar.z1]), np.array([centre.z2, scalar.z2]))
        numpy_scalar = BicomplexNumber(np.complex128(scalar.z1), np.complex128(scalar.z2))
        assert self.RECT.contains(scalar) is inside
        assert self.RECT.contains(numpy_scalar) is inside
        with pytest.raises(TypeError):
            self.RECT.contains(array)


class TestDphi:
    def test_linear_profile(self, unit_rect, linear_phi):
        out = dphi(linear_phi, unit_rect.point(0.3, 0.3, 0.3, 0.3))
        assert out.l1 == 2 and out.l2 == 2

    def test_fractal_profile(self):
        ph = Phi4.fractal(0.5, 0.5, 0.5, 0.5)
        Z = BicomplexNumber(1 + 1j, 1 + 1j)
        out = dphi(ph, Z)
        assert abs(out.l1 - 1.0) < 1e-14 and abs(out.l2 - 1.0) < 1e-14

    def test_strictly_positive(self, unit_rect):
        ph = Phi4.fractal(0.3, 0.6, 0.8, 0.4)
        rect = RectDomain(*[0.5, 1.5] * 4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            Z = rect.point(*rng.uniform(0.05, 0.95, 4))
            out = dphi(ph, Z)
            assert out.l1 > 0 and out.l2 > 0


class TestRestrictionSlope:
    def test_linear_restrictions_declare_unit_exponent(self, unit_rect, linear_phi):
        W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
        for axis in range(4):
            w = linear_phi.restriction(axis, W, unit_rect)
            ts = np.linspace(w.lo, w.hi, 17)
            affine = w.phi(np.asarray(w.lo)) + (ts - w.lo)
            assert np.max(np.abs(w.phi(ts) - affine)) < 1e-15
            assert np.all(w.dphi(ts) == 1.0) and w.exponent == 1.0

    def test_fractal_restrictions_declare_their_power(self):
        from bcfrac.presets import phi_preset

        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        phi = phi_preset("fractal:0.5,0.6,0.7,0.8")
        for axis, d in enumerate((0.5, 0.6, 0.7, 0.8)):
            w = phi.restriction(axis, W, rect)
            assert w.exponent == d
            ts = np.linspace(w.lo, w.hi, 33)
            declared = w.phi(np.asarray(w.lo)) + (ts**w.exponent - w.lo**w.exponent)
            assert np.max(np.abs(w.phi(ts) - declared) / np.abs(w.phi(ts))) < 1e-14

    @pytest.mark.parametrize("name", ["custom:x + y|x + 2*y"])
    def test_other_presets_declare_none(self, name):
        from bcfrac.presets import phi_preset

        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        assert all(phi_preset(name).restriction(axis, W, rect).exponent is None
                   for axis in range(4))


class TestTraceLine:
    """Each trace direction reads its plane along the line through the base
    point: an x axis holds ``Im w``, a y axis ``Re w``.  Four distinct
    coordinates and components with distinct partials tell every held
    coordinate and every partial apart."""

    rect = RectDomain(*[0.5, 1.5] * 4)
    W = rect.point(0.2, 0.4, 0.6, 0.8)

    def test_restriction_reads_value_and_partial_along_its_line(self):
        from bcfrac.presets import phi_preset

        phi = phi_preset("custom:x + x*y^2|2*x + y + x^2*y")
        ts = np.linspace(0.5, 1.5, 9)
        for axis in range(4):
            comp, w = (phi.comp1, self.W.z1) if axis < 2 else (phi.comp2, self.W.z2)
            if axis % 2 == 0:
                want = comp.f(ts, w.imag), comp.dx(ts, w.imag)
            else:
                want = comp.f(w.real, ts), comp.dy(w.real, ts)
            r = phi.restriction(axis, self.W, self.rect)
            assert np.array_equal(r.phi(ts), np.real(want[0]))
            assert np.array_equal(r.dphi(ts), np.real(want[1]))

    def test_trace_sum_of_an_asymmetric_field(self):
        F = ProductFunction(PlaneFunction.from_holomorphic(lambda z: z**3 + 2j * z, lambda z: 3 * z**2 + 2j),
                            PlaneFunction.from_holomorphic(lambda z: np.exp(z) - z, lambda z: np.exp(z) - 1))
        Z = self.rect.point(0.7, 0.3, 0.9, 0.1)
        got = trace_sum(F, self.W, Z)
        for f, z, w, g in ((F.f1.f, Z.z1, self.W.z1, got.z1), (F.f2.f, Z.z2, self.W.z2, got.z2)):
            assert g == f(z.real, w.imag) + f(w.real, z.imag)


class TestTraceIntegral:
    def test_classical_constant_input(self, unit_rect, linear_phi):
        # each direction reduces to the classical integral of one
        alphas = (0.3, 0.55, 0.42, 0.7)
        p = FracParams(unit_rect, alphas, (1, 1, 1, 1), linear_phi, Quadrature1D(n=512))
        F1 = ProductFunction.constant(1.0)
        W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
        Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
        got = trace_integral(F1, W, p, Z)
        x1, y1, x2, y2 = 0.8, 0.7, 0.6, 0.75
        want_e = x1 ** (1 - alphas[0]) / gamma(2 - alphas[0]) + y1 ** (1 - alphas[1]) / gamma(2 - alphas[1])
        want_ed = x2 ** (1 - alphas[2]) / gamma(2 - alphas[2]) + y2 ** (1 - alphas[3]) / gamma(2 - alphas[3])
        assert abs(got.z1 - want_e) < 1e-10
        assert abs(got.z2 - want_ed) < 1e-10

    def test_near_order_one_is_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        got = trace_integral(F, W, p, Z)
        want = trace_sum(F, W, Z)
        assert (got - want).mod_k().max() < 1e-6

    def test_lower_corner_vanishes(self, setup):
        rect, phi, F, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.8,) * 4, phi, Quadrature1D(n=128))
        corner = BicomplexNumber(0 + 0j, 0 + 0j)
        got = trace_integral(F, W, p, corner)
        assert abs(got.z1) < 1e-12 and abs(got.z2) < 1e-12

    def test_linear_in_field(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        Fa = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
        Fb = ProductFunction.from_holomorphic(np.exp, np.exp)
        mix = ProductFunction.from_holomorphic(
            lambda z: 2.0 * z**2 - 1j * np.exp(z), lambda z: 4.0 * z - 1j * np.exp(z))
        lhs = trace_integral(mix, W, p, Z)
        rhs = 2.0 * trace_integral(Fa, W, p, Z) + (-1j) * trace_integral(Fb, W, p, Z)
        assert (lhs - rhs).mod_k().max() < 1e-12


class TestTraceDerivative:
    def test_near_order_one_is_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        got = trace_derivative(F, W, p, Z)
        assert (got - trace_sum(F, W, Z)).mod_k().max() < 1e-4

    def test_classical_derivative_of_constant(self, unit_rect, linear_phi):
        alphas = (0.5, 0.5, 0.5, 0.5)
        p = FracParams(unit_rect, alphas, (1, 1, 1, 1), linear_phi, Quadrature1D(n=1024))
        F1 = ProductFunction.constant(1.0)
        W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
        Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
        got = trace_derivative(F1, W, p, Z)
        x1, y1 = 0.8, 0.7
        want_e = x1 ** (-0.5) / gamma(0.5) + y1 ** (-0.5) / gamma(0.5)
        assert abs(got.z1 - want_e) < 1e-4


class TestMapRead:
    """``_trace_derivative_of_map`` reads its plane map once per component,
    on the points of both trace lines."""

    W = BicomplexNumber(0.41 + 0.37j, 0.53 + 0.61j)

    @staticmethod
    def field(x, y):
        return 1.5 + np.sin(3.0 * x) * np.cos(y) + 0.5j * np.exp(x * y)

    def recorded(self):
        calls = []

        def plane_map(xs, ys):
            calls.append((np.array(xs), np.array(ys)))
            return self.field(xs, ys)

        return calls, plane_map

    @pytest.mark.parametrize("sigma", [(0.7, 0.0, 0.8, 0.0), (0.7, 0.6, 0.8, 0.9)],
                             ids=["still-y", "both-live"])
    def test_one_read_of_both_lines_agrees_bit_for_bit_with_a_read_per_line(
            self, sigma, unit_rect, linear_phi, per_direction_read):
        from bcfrac.frac_cr_bicomplex import _trace_derivative_of_map

        p = FracParams(unit_rect, (0.5,) * 4, sigma, linear_phi, Quadrature1D(n=128))
        Z, region = unit_rect.point(0.6, 0.7, 0.55, 0.45), ((0.05, 0.95), (0.03, 0.97))
        for l, z in ((1, Z.z1), (2, Z.z2)):
            calls, plane_map = self.recorded()
            got = _trace_derivative_of_map(plane_map, l, Z, self.W, p, region)
            (xs, ys), = calls
            x_line = fracops1d._chebyshev_points(0.05, z.real + 5e-3, 32)[1]
            if sigma[1] == 0.0:  # the x line's samples, then Z
                want_x, want_y = np.append(x_line, z.real), np.full(33, z.imag)
            else:  # the samples of the x line, then those of the y line
                y_line = fracops1d._chebyshev_points(0.03, z.imag + 5e-3, 32)[1]
                want_x = np.concatenate([x_line, np.full(32, z.real)])
                want_y = np.concatenate([np.full(32, z.imag), y_line])
            assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)
            # the map acts point by point, so no value moves with its batch
            assert got == per_direction_read(self.field, l, Z, self.W, p, region)

    @pytest.mark.parametrize("past", [0.0, 0.05], ids=["empty", "inverted"])
    def test_empty_interval_is_the_value_at_its_lower_end(self, past, unit_rect, linear_phi):
        # the region starts past the end x + h of what the outer rule reads
        from bcfrac.frac_cr_bicomplex import _trace_derivative_of_map

        p = FracParams(unit_rect, (0.5,) * 4, (0.7, 0.0, 0.7, 0.0), linear_phi,
                       Quadrature1D(n=128))
        Z = unit_rect.point(0.1, 0.7, 0.1, 0.45)
        cell = 0.1 + 5e-3 + past
        calls, plane_map = self.recorded()
        region = ((cell, 1.0 - cell), (0.0, 1.0))
        got = _trace_derivative_of_map(plane_map, 1, Z, self.W, p, region)
        assert [(x.tolist(), y.tolist()) for x, y in calls] == [([cell, 0.1], [0.7, 0.7])]
        value = self.field(cell, 0.7)

        def line(t):
            return np.full(np.shape(t), value)

        want = axis_derivative(line, self.W, p, 0, 0.1, h=5e-3) + self.field(0.1, 0.7)
        assert got == want


class TestInversionIdentity:
    def test_smooth_field_small_residual(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=1024))
        assert inversion_check(F, W, p, Z).max() < 1e-3

    def test_zero_field_exact(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        assert inversion_check(ProductFunction.constant(0.0), W, p, Z).max() == 0

    def test_degenerate_orders(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=2048))
        assert inversion_check(F, W, p, Z).max() < 1e-6

    def test_consistency_of_remainder(self, setup):
        # derivative of integral minus trace sum equals the remainder
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=512))
        from bcfrac.frac_cr_bicomplex import compose_derivative_of_integral
        di = compose_derivative_of_integral(F, W, p, Z)
        gap = di - trace_sum(F, W, Z) - remainder_R(F, W, p, Z)
        assert gap.mod_k().max() < 1e-4

    def test_composition_cost_does_not_depend_on_n(self, poly_field, monkeypatch):
        # four live axes off proportion one and a fractal phi: each axis
        # samples its line once for its Jacobi series, with no rule row, at
        # every n
        from bcfrac import fracops1d, frac_cr_bicomplex

        rect = RectDomain(*[0.5, 1.5] * 4)
        phi = Phi4.fractal(0.6135, 0.8186, 0.7829, 0.6735)
        W, Z = rect.point(0.41, 0.37, 0.53, 0.61), rect.point(0.8, 0.7, 0.6, 0.75)
        integral_calls, line_calls = [], []

        def integral(*args):
            integral_calls.append(1)

        for module in (fracops1d, frac_cr_bicomplex):
            monkeypatch.setattr(module, "prop_frac_integral", integral)
        monkeypatch.setattr(frac_cr_bicomplex, "tabulate", integral)

        def counted(pf):
            def f(x, y):
                line_calls.append(1)
                return pf.f(x, y)
            return PlaneFunction(f, pf.dx, pf.dy)

        F = ProductFunction(*(counted(poly_field.component(l)) for l in (1, 2)))
        calls = []
        for n in (64, 4096):
            p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=n))
            frac_cr_bicomplex.compose_derivative_of_integral(F, W, p, Z)
            calls.append((len(integral_calls), len(line_calls)))
            line_calls.clear()
        assert calls == [(0, 4), (0, 4)]

    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    def test_composition_reads_no_quadrature(self, setup, scheme):
        # why a convergence study computes it once, at its first level
        from bcfrac.frac_cr_bicomplex import compose_derivative_of_integral

        rect, _, F, W, Z = setup
        phi = Phi4.fractal(1.0, 1.0, 1.0, 1.0)
        got = []
        for n in (64, 1024):
            p = FracParams(rect, (0.35, 0.5, 0.65, 0.5), (0.7, 0.4, 0.9, 0.2), phi,
                           Quadrature1D(n=n, scheme=scheme))
            di = compose_derivative_of_integral(F, W, p, Z)
            got.append([float(v).hex() for z in (di.z1, di.z2) for v in (z.real, z.imag)])
        assert got[0] == got[1]

    @pytest.mark.parametrize("n", [64, 1024])
    def test_call_budget_of_one_level_is_the_remainders(self, poly_field, monkeypatch, n):
        # the remainder's four 1-target integrals; its derivatives of one
        # are in closed form, so no difference quotient and no surrogate
        from bcfrac import fracops1d, frac_cr_bicomplex

        rect = RectDomain(*[0.5, 1.5] * 4)
        phi = Phi4.fractal(0.6135, 0.8186, 0.7829, 0.6735)
        W, Z = rect.point(0.41, 0.37, 0.53, 0.61), rect.point(0.8, 0.7, 0.6, 0.75)
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=n))
        real_integral, real_tabulate = fracops1d.prop_frac_integral, frac_cr_bicomplex.tabulate
        targets, evaluations = [], []

        def integral(f, spec, t, q):
            targets.append(np.size(t))
            return real_integral(f, spec, t, q)

        def tabulate(*args):
            surrogate = real_tabulate(*args)

            def evaluate(t):
                evaluations.append(np.size(t))
                return surrogate(t)
            return evaluate

        def derivative(*args, **kwargs):
            quotients.append(1)
            return real_derivative(*args, **kwargs)

        real_derivative, quotients = fracops1d.prop_frac_derivative, []
        for module in (fracops1d, frac_cr_bicomplex):
            monkeypatch.setattr(module, "prop_frac_integral", integral)
            monkeypatch.setattr(module, "prop_frac_derivative", derivative)
        monkeypatch.setattr(frac_cr_bicomplex, "tabulate", tabulate)
        inversion_check(poly_field, W, p, Z)
        assert (len(targets), sum(targets), len(evaluations), len(quotients)) == (4, 4, 0, 0)

    @pytest.mark.parametrize("scheme", ["graded", "gauss_jacobi"])
    @pytest.mark.parametrize("sigma, phi", [
        ((0.7, 0.0, 0.7, 0.0), Phi4.fractal(0.5, 0.6, 0.7, 0.8)),
        ((0.7255, 0.9464, 0.6181, 0.5745), Phi4.fractal(0.6135, 0.8186, 0.7829, 0.6735)),
        ((0.7, 0.4, 0.9, 0.2), Phi4.fractal(1.0, 1.0, 1.0, 1.0))],
        ids=["sigma-zero-axes", "fractal", "linear"])
    @pytest.mark.parametrize("corner", [False, True], ids=["interior", "anchor-corner"])
    def test_held_terms_give_the_residual_bit_for_bit(self, poly_field, scheme, sigma, phi,
                                                       corner):
        # the record of a study's first level (n = 64), read at a finer one,
        # against the check that builds its own; on the first plane's anchor
        # corner D[1] is infinite along a live axis, and a cross term is zero
        # where its integral is, so the residual stays finite, also where the
        # other axis has proportion zero: its trace integral is the identity,
        # nonzero there, and both sides leave that infinite cross term out
        from bcfrac.frac_cr_bicomplex import inversion_terms

        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        Z = BicomplexNumber(0.5 + 0.5j, 1.1 + 1.25j) if corner else rect.point(0.8, 0.7, 0.6, 0.75)
        alpha = (0.35, 0.5, 0.65, 0.45)
        first, finer = (FracParams(rect, alpha, sigma, phi, Quadrature1D(n=n, scheme=scheme))
                        for n in (64, 256))

        def bits(*values):
            return [float(x).hex() for v in values for x in (np.real(v), np.imag(v))]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = inversion_terms(poly_field, W, first, Z)
            got = inversion_check(poly_field, W, finer, Z, held)
            want = inversion_check(poly_field, W, finer, Z)
            rem_held = remainder_R(poly_field, W, finer, Z, held.axes)
            rem = remainder_R(poly_field, W, finer, Z)
        assert bits(got.l1, got.l2) == bits(want.l1, want.l2)
        assert bits(rem_held.z1, rem_held.z2) == bits(rem.z1, rem.z2)
        assert np.isfinite(got.l2) and np.isfinite(got.l1)
        if corner and sigma[1] != 0.0:
            # a cross term is zero where its integral is, D[1] infinite or not
            assert held.axes[0][1] == np.inf and rem_held.z1 == 0

    @pytest.mark.parametrize("Z", [BicomplexNumber(0.5 + 0.5j, 1.1 + 1.25j),
                                   BicomplexNumber(0.5 + 0.5j, 0.5 + 0.5j)],
                             ids=["first-plane-anchor", "double-anchor"])
    def test_anchor_cross_terms_are_zero_not_nan(self, poly_field, Z):
        # at a plane's anchor corner every live axis has an infinite D[1] and
        # a zero integral: the composition's cross terms, like the
        # remainder's, are zero there, not 0 * inf
        rect = RectDomain(*[0.5, 1.5] * 4)
        W = rect.point(0.41, 0.37, 0.53, 0.61)
        p = FracParams(rect, (0.5, 0.6, 0.45, 0.55), (0.7, 0.4, 0.9, 0.2),
                       Phi4.fractal(0.5, 0.6, 0.7, 0.8), Quadrature1D(n=256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inversion_check(poly_field, W, p, Z)
        anchored = [got.l1] + ([got.l2] if Z.z2 == Z.z1 else [])
        assert np.isfinite(got.l1) and np.isfinite(got.l2)
        assert max(anchored) <= 1e-12

    def test_remainder_vanishes_at_corner(self, setup):
        rect, phi, F, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        corner = BicomplexNumber(0 + 0j, 0 + 0j)
        got = remainder_R(F, W, p, corner)
        assert abs(got.z1) < 1e-12 and abs(got.z2) < 1e-12


def _fractal_inversion_residual() -> tuple:
    """Finest-level residual and tolerance of the ``fractal-inversion`` preset."""
    from bcfrac.cli import parse_experiment
    from bcfrac.presets import EXPERIMENT_PRESETS
    from bcfrac.quadrature_verify import convergence_study

    entry = next(e for e in EXPERIMENT_PRESETS["fractal"] if e["name"] == "fractal-inversion")
    cfg = parse_experiment(entry, 0)
    reports = convergence_study(cfg.identity, cfg.setup, cfg.resolution, cfg.levels)
    return reports[-1].max_residual(), cfg.tolerance


class TestInversionCanFail:
    """A wrong 1-D operator, on the remainder's direct rule or on the
    composition's series, makes ``fractal-inversion`` fail by at least ten
    times its tolerance."""

    def test_correct_operators_pass(self):
        residual, tolerance = _fractal_inversion_residual()
        assert residual <= tolerance

    def test_wrong_direct_rule_fails(self, monkeypatch):
        from bcfrac import fracops1d

        real = fracops1d._integral_dispatch
        monkeypatch.setattr(fracops1d, "_integral_dispatch",
                            lambda *args: 1.02 * real(*args))
        residual, tolerance = _fractal_inversion_residual()
        assert residual >= 10.0 * tolerance

    def test_wrong_series_integral_fails(self, monkeypatch):
        from bcfrac import fracops1d

        real = fracops1d._series_maps

        def wrong(n, gamma_):
            connect, ratios = real(n, gamma_)
            return 1.02 * connect, ratios

        monkeypatch.setattr(fracops1d, "_series_maps", wrong)
        residual, tolerance = _fractal_inversion_residual()
        assert residual >= 10.0 * tolerance


class TestAxisPartial:
    """``_axis_partial_batched``, the one partial of a trace integral: the
    Richardson combination of clipped central differences of steps h and
    2h."""

    H = difference_step(0.0, 1.0)

    @staticmethod
    def line(t):
        return np.sin(3.0 * t) + 1j * np.exp(t)

    @staticmethod
    def d_line(t):
        return 3.0 * np.cos(3.0 * t) + 1j * np.exp(t)

    @staticmethod
    def params(rect, phi):
        return FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=64))

    def test_interior_points_match_the_derivative(self, unit_rect, linear_phi):
        # measured 3.5e-12: rounding over the step; the h^4 truncation is far below
        ts = np.linspace(2 * self.H, 1 - 2 * self.H, 41)
        got = _axis_partial_batched(self.line, self.params(unit_rect, linear_phi), 0, ts)
        assert np.max(np.abs(got - self.d_line(ts))) < 1e-10

    def test_points_near_the_ends_are_first_order(self, unit_rect, linear_phi):
        # within 2h of an end a quotient turns one-sided and the combination
        # keeps an O(h) term, at most |f''| h / 3 (at the end itself); measured
        # 1.0e-4 at t = 1, where |f''| = 3.0, with |f''| <= 9 + e on [0, 1]
        h = self.H
        ts = np.array([0.0, 0.3 * h, h, 1.7 * h, 1 - 1.7 * h, 1 - h, 1 - 0.3 * h, 1.0])
        got = _axis_partial_batched(self.line, self.params(unit_rect, linear_phi), 0, ts)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - self.d_line(ts))) <= (9.0 + np.e) * h / 2

    def test_one_call_of_mixed_points_equals_separate_calls(self, unit_rect, linear_phi):
        # a polynomial line, so that every value is independent of its batch
        p = self.params(unit_rect, linear_phi)
        cubic = lambda t: t**3 - 2.0 * t**2 + (1.0 + 0.5j) * t
        ts = np.array([[0.0, 0.37], [1.0 - self.H, 0.5], [1.5 * self.H, 1.0]])
        got = _axis_partial_batched(cubic, p, 1, ts)
        want = np.array([_axis_partial_batched(cubic, p, 1, np.array([t]))[0] for t in ts.ravel()])
        assert got.shape == ts.shape
        assert np.array_equal(got.ravel(), want)

    def test_the_centre_rides_in_the_stencil_call(self, unit_rect, linear_phi):
        p = self.params(unit_rect, linear_phi)
        cubic = lambda t: t**3 - 2.0 * t**2 + (1.0 + 0.5j) * t
        ts = np.array([[0.0, 0.37], [1.0 - self.H, 0.5], [1.5 * self.H, 1.0]])
        got, centre = _axis_partial_batched(cubic, p, 1, ts, centre=True)
        assert np.array_equal(got, _axis_partial_batched(cubic, p, 1, ts))
        assert np.array_equal(centre, cubic(ts))

    def test_the_integral_is_called_once_per_partial(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=64))
        sizes = []

        def counting(ax):
            def integral(s):
                sizes.append((ax, np.size(s)))
                return axis_integral(F, W, p, ax, s)
            return integral

        ts = np.linspace(0.0, 1.0, 5)
        _axis_partial_batched(counting(0), p, 0, ts)
        assert sizes == [(0, 4 * ts.size)]
        sizes.clear()
        # at proportion one the operator evaluates each integral only on its
        # partial's stencil
        frac_cr_component(counting(0), counting(1), p, WeightPair.classical(), 1, ts, ts)
        assert sizes == [(0, 4 * ts.size), (1, 4 * ts.size)]

    @pytest.mark.parametrize("check, rows", [("frac_cr_apply", 10), ("factorization_check", 10)])
    def test_rule_rows_at_a_point(self, setup, monkeypatch, check, rows):
        # per axis of nonzero proportion: the point and the four-point stencil,
        # which the factorization's own partials read too
        from bcfrac import frac_cr_bicomplex

        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=64))
        wp = WeightPair.classical()
        real, targets = frac_cr_bicomplex.prop_frac_integral, []

        def spy(f, spec, t, q):
            if spec.sigma != 0:
                targets.append(np.size(t))
            return real(f, spec, t, q)

        monkeypatch.setattr(frac_cr_bicomplex, "prop_frac_integral", spy)
        if check == "frac_cr_apply":
            frac_cr_apply(F, W, p, wp, Z)
        else:
            factorization_check(F, W, p, wp, lambda_for_constant_weights(wp, p), Z)
        assert sum(targets) == rows


class TestFracCrApply:
    def test_proportion_one_matches_closed_form(self, setup, sigma_one_cr):
        # measured at n = 512: 1.6e-6, falling at order 2 in n
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=512))
        wp = WeightPair.classical()
        F = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
        want = [sigma_one_cr([0, 0, 1], w, 0.5, z.real, z.imag)
                for z, w in ((Z.z1, W.z1), (Z.z2, W.z2))]
        got = frac_cr_apply(F, W, p, wp, Z)
        assert (got - BicomplexNumber(*want)).mod_k().max() < 3e-6

    def test_degenerate_orders_give_cr_of_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        wp = WeightPair.classical()
        got = frac_cr_apply(F, W, p, wp, Z)
        # trace sum of a holomorphic field: its weighted derivative equals
        # f'(horizontal trace) - f'(vertical trace), scaled by Dphi
        df = lambda z: 2 * z - 0.5
        x1, y1 = np.real(Z.z1), np.imag(Z.z1)
        x2, y2 = np.real(Z.z2), np.imag(Z.z2)
        w1, w2 = W.z1, W.z2
        want = BicomplexNumber(
            (df(x1 + 1j * np.imag(w1)) - df(np.real(w1) + 1j * y1)) / 2.0,
            (df(x2 + 1j * np.imag(w2)) - df(np.real(w2) + 1j * y2)) / 2.0,
        )
        assert (got - want).mod_k().max() < 1e-4

    def test_affine_field_annihilated(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        wp = WeightPair.classical()
        F = ProductFunction.from_holomorphic(
            lambda z: 0.3 + 0.2j + (1.1 - 0.4j) * z,
            lambda z: (1.1 - 0.4j) * np.ones_like(z))
        got = frac_cr_apply(F, W, p, wp, Z)
        assert got.mod_k().max() < 1e-6


class TestLambda:
    def test_constructed_multiplier_solves_pde(self, setup):
        rect, phi, _, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        wp = WeightPair.classical()
        lam = lambda_for_constant_weights(wp, p)
        probes = [rect.point(*f) for f in np.random.default_rng(0).uniform(0.1, 0.9, (6, 4))]
        assert lambda_residual(lam, wp, p, probes) < 1e-12

    def test_zero_multiplier_at_proportion_one(self, setup):
        rect, phi, _, _, _ = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=128))
        lam = lambda_for_constant_weights(WeightPair.classical(), p)
        probes = [rect.point(0.5, 0.5, 0.5, 0.5)]
        assert lambda_residual(lam, WeightPair.classical(), p, probes) == 0

    def test_wrong_multiplier_flagged(self, setup):
        rect, phi, _, _, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        wp = WeightPair.classical()
        bad = ProductFunction(PlaneFunction_x2(), PlaneFunction_x2())
        probes = [rect.point(f, 0.5, 0.5, 0.5) for f in (0.2, 0.4, 0.8)]
        res = [lambda_residual(bad, wp, p, [pb]) for pb in probes]
        assert res[2] > res[0]  # residual grows with the probe coordinate
        assert min(res) > 1e-3
        assert lambda_residual(bad, wp, p, probes) == max(res)  # one batched pass

    def test_empty_probes_rejected(self, setup):
        rect, phi, _, _, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        wp = WeightPair.classical()
        with pytest.raises(EmptyProbesError):
            lambda_residual(lambda_for_constant_weights(wp, p), wp, p, [])

    def test_nonconstant_dphi_rejected(self):
        rect = RectDomain(*[0.5, 1.5] * 4)
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0),
                       Phi4.fractal(0.5, 0.5, 0.5, 0.5), Quadrature1D(n=64))
        with pytest.raises(UnsupportedWeightsError):
            lambda_for_constant_weights(WeightPair.classical(), p)

    @pytest.mark.parametrize("component", [1, 2])
    def test_zero_theta_has_no_multiplier(self, setup, component):
        # the multiplier's slope in a component is Dphi*(1 - sigma)/(sigma*theta_l)
        rect, phi, _, _, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        th1, th2 = (0.0, 1.0) if component == 1 else (1.0, 0.0)
        wp = WeightPair(PlaneFunction.constant(th1), PlaneFunction.constant(th2),
                        PlaneFunction.constant(1j), PlaneFunction.constant(1j),
                        const_values=(complex(th1), 1j, complex(th2), 1j))
        with pytest.raises(UnsupportedWeightsError, match="nonzero constant theta"):
            lambda_for_constant_weights(wp, p)


def PlaneFunction_x2():
    from bcfrac import PlaneFunction

    return PlaneFunction(
        f=lambda x, y: x**2 + 0j, dx=lambda x, y: 2.0 * x + 0j, dy=lambda x, y: 0j * x
    )


class TestFactorization:
    def test_proportion_one_trivial(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=512))
        wp = WeightPair.classical()
        res = factorization_check(F, W, p, wp, ProductFunction.constant(0.0), Z)
        assert res.max() < 1e-11  # measured 6.9e-13

    def test_constructed_multiplier(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=512))
        wp = WeightPair.classical()
        lam = lambda_for_constant_weights(wp, p)
        res = factorization_check(F, W, p, wp, lam, Z)
        assert res.max() < 1e-11  # measured 2.9e-13

    def test_zero_field(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        wp = WeightPair.classical()
        lam = lambda_for_constant_weights(wp, p)
        res = factorization_check(ProductFunction.constant(0.0), W, p, wp, lam, Z)
        assert res.max() == 0


class TestFracParamsValidation:
    def test_alpha_range(self, unit_rect, linear_phi):
        with pytest.raises(ValueError):
            FracParams(unit_rect, (1.0,) * 4, (1, 0, 1, 0), linear_phi, Quadrature1D(n=64))

    def test_composite_proportion_invertible(self, unit_rect, linear_phi):
        with pytest.raises(ValueError):
            FracParams(unit_rect, (0.5,) * 4, (0, 0, 0.7, 0), linear_phi, Quadrature1D(n=64))

    def test_composite_value(self, unit_rect, linear_phi):
        p = FracParams(unit_rect, (0.5,) * 4, (0.7, 0.1, 0.6, 0.2), linear_phi, Quadrature1D(n=64))
        assert p.sigma == BicomplexNumber(0.7 + 0.1j, 0.6 + 0.2j)
        oms = p.one_minus_sigma
        assert abs(oms.z1 - (0.3 - 0.1j)) < 1e-15 and abs(oms.z2 - (0.4 - 0.2j)) < 1e-15
