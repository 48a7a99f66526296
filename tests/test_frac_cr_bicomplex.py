import numpy as np
import pytest
from scipy.special import gamma

from bcfrac import (
    BicomplexNumber,
    EmptyProbesError,
    FracParams,
    Phi4,
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
    trace_derivative,
    trace_integral,
    trace_sum,
)
from bcfrac.quadrature_verify import frac_cr_component


@pytest.fixture
def setup(unit_rect, linear_phi, poly_field):
    W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
    Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
    return unit_rect, linear_phi, poly_field, W, Z


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
            assert dphi(ph, Z).in_positive_cone(strict=True)


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


class TestTraceIntegral:
    def test_classical_constant_input(self, unit_rect, linear_phi):
        # each direction reduces to the classical integral of one
        alphas = (0.3, 0.55, 0.42, 0.7)
        p = FracParams(unit_rect, alphas, (1, 1, 1, 1), linear_phi, Quadrature1D(n=512))
        F1 = ProductFunction.constant(1.0)
        W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
        Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
        got = trace_integral(F1, W, p, "left", Z)
        x1, y1, x2, y2 = 0.8, 0.7, 0.6, 0.75
        want_e = x1 ** (1 - alphas[0]) / gamma(2 - alphas[0]) + y1 ** (1 - alphas[1]) / gamma(2 - alphas[1])
        want_ed = x2 ** (1 - alphas[2]) / gamma(2 - alphas[2]) + y2 ** (1 - alphas[3]) / gamma(2 - alphas[3])
        assert abs(got.z1 - want_e) < 1e-10
        assert abs(got.z2 - want_ed) < 1e-10

    def test_near_order_one_is_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        got = trace_integral(F, W, p, "left", Z)
        want = trace_sum(F, W, Z)
        assert (got - want).mod_k().max() < 1e-6

    def test_lower_corner_vanishes(self, setup):
        rect, phi, F, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.8,) * 4, phi, Quadrature1D(n=128))
        corner = BicomplexNumber(0 + 0j, 0 + 0j)
        got = trace_integral(F, W, p, "left", corner)
        assert abs(got.z1) < 1e-12 and abs(got.z2) < 1e-12

    def test_linear_in_field(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        Fa = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
        Fb = ProductFunction.from_holomorphic(np.exp, np.exp)
        mix = ProductFunction.from_holomorphic(
            lambda z: 2.0 * z**2 - 1j * np.exp(z), lambda z: 4.0 * z - 1j * np.exp(z))
        lhs = trace_integral(mix, W, p, "left", Z)
        rhs = 2.0 * trace_integral(Fa, W, p, "left", Z) + (-1j) * trace_integral(Fb, W, p, "left", Z)
        assert (lhs - rhs).mod_k().max() < 1e-12

    def test_right_side_anchors_at_upper_edges(self, setup):
        rect, phi, _, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (1, 1, 1, 1), phi, Quadrature1D(n=512))
        F1 = ProductFunction.constant(1.0)
        upper = BicomplexNumber(1 + 1j, 1 + 1j)
        got = trace_integral(F1, W, p, "right", upper)
        assert abs(got.z1) < 1e-12 and abs(got.z2) < 1e-12


class TestTraceDerivative:
    def test_near_order_one_is_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        got = trace_derivative(F, W, p, "left", Z)
        assert (got - trace_sum(F, W, Z)).mod_k().max() < 1e-4

    def test_classical_derivative_of_constant(self, unit_rect, linear_phi):
        alphas = (0.5, 0.5, 0.5, 0.5)
        p = FracParams(unit_rect, alphas, (1, 1, 1, 1), linear_phi, Quadrature1D(n=1024))
        F1 = ProductFunction.constant(1.0)
        W = unit_rect.point(0.41, 0.37, 0.53, 0.61)
        Z = unit_rect.point(0.8, 0.7, 0.6, 0.75)
        got = trace_derivative(F1, W, p, "left", Z)
        x1, y1 = 0.8, 0.7
        want_e = x1 ** (-0.5) / gamma(0.5) + y1 ** (-0.5) / gamma(0.5)
        assert abs(got.z1 - want_e) < 1e-4


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

    def test_remainder_vanishes_at_corner(self, setup):
        rect, phi, F, W, _ = setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        corner = BicomplexNumber(0 + 0j, 0 + 0j)
        got = remainder_R(F, W, p, corner)
        assert abs(got.z1) < 1e-12 and abs(got.z2) < 1e-12


class TestFracCrApply:
    def test_proportion_one_matches_closed_form(self, setup, sigma_one_cr):
        # measured at n = 512: 1.6e-6 (frac_cr_apply) and 1.6e-6 / 1.1e-6
        # (frac_cr_component per component), falling at order 2 in n
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=512))
        wp = WeightPair.classical()
        F = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
        want = [sigma_one_cr([0, 0, 1], w, 0.5, z.real, z.imag)
                for z, w in ((Z.z1, W.z1), (Z.z2, W.z2))]
        got = frac_cr_apply(F, W, p, wp, "left", Z)
        assert (got - BicomplexNumber(*want)).mod_k().max() < 3e-6
        for l, z in ((1, Z.z1), (2, Z.z2)):
            got_l = frac_cr_component(F, W, p, wp, "left", l, z.real, z.imag)[0][0]
            assert abs(got_l - want[l - 1]) < 3e-6

    def test_degenerate_orders_give_cr_of_trace_sum(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        wp = WeightPair.classical()
        got = frac_cr_apply(F, W, p, wp, "left", Z)
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
        got = frac_cr_apply(F, W, p, wp, "left", Z)
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
        res = factorization_check(F, W, p, wp, ProductFunction.constant(0.0), "left", Z)
        assert res.max() < 1e-6

    def test_constructed_multiplier(self, setup):
        rect, phi, F, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=512))
        wp = WeightPair.classical()
        lam = lambda_for_constant_weights(wp, p)
        res = factorization_check(F, W, p, wp, lam, "left", Z)
        assert res.max() < 1e-3

    def test_zero_field(self, setup):
        rect, phi, _, W, Z = setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=128))
        wp = WeightPair.classical()
        lam = lambda_for_constant_weights(wp, p)
        res = factorization_check(ProductFunction.constant(0.0), W, p, wp, lam, "left", Z)
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
