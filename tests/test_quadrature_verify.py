from dataclasses import replace

import numpy as np
import pytest

from bcfrac import (
    BicomplexNumber,
    FracParams,
    HyperbolicNumber,
    IDENTITIES,
    PlaneFunction,
    ProductFunction,
    Quadrature1D,
    RectDomain,
    Resolution,
    SurfacePatch,
    VerificationSetup,
    WOnBoundaryError,
    WeightPair,
    borel_pompeiu_classical,
    contour_integral,
    convergence_study,
    frac_bp_reconstruct,
    frac_gauss_residual,
    gauss_residual,
    inversion_check,
    lambda_for_constant_weights,
    run_identity,
)

UNIT_PATCH = SurfacePatch(RectDomain(0, 1, 0, 1, 0, 1, 0, 1), m=32, k=32)
CLASSICAL = WeightPair.classical()  # its measure is -i dz
NO_LAM = ProductFunction.constant(0.0)  # the zero multiplier
W0 = BicomplexNumber(0.41 + 0.37j, 0.52 + 0.63j)


def holomorphic(fn, dfn):
    return ProductFunction.from_holomorphic(fn, dfn)


class TestContourIntegral:
    def test_closed_loop_of_constant(self):
        out = contour_integral(ProductFunction.constant(1.0), UNIT_PATCH, CLASSICAL)
        assert out.mod_k().max() < 1e-14

    def test_residue(self):
        # -i times the residue integral 2*pi*i
        w = 0.4 + 0.3j
        F = holomorphic(lambda z: 1 / (z - w), lambda z: -1 / (z - w) ** 2)
        out = contour_integral(F, UNIT_PATCH.with_resolution(32, 64), CLASSICAL)
        assert abs(out.z1 - 2 * np.pi) < 1e-8
        assert abs(out.z2 - 2 * np.pi) < 1e-8

    def test_holomorphic_loop_vanishes(self):
        F = holomorphic(lambda z: z, lambda z: np.ones_like(z))
        assert contour_integral(F, UNIT_PATCH, CLASSICAL).mod_k().max() < 1e-10

    def test_weighted_measure(self):
        # around the unit square conj(z) dx integrates to i and conj(z) dy to
        # 1, so theta dy - phi_w dx gives theta - i*phi_w: 2 for the classical
        # pair (-i times the integral 2i of conj(z) dz) and 3 for (1, 2i)
        F = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
        for wp, want in ((CLASSICAL, 2.0), (WeightPair.constant(1.0, 2j), 3.0)):
            out = contour_integral(F, UNIT_PATCH, wp)
            assert abs(out.z1 - want) < 1e-13 and abs(out.z2 - want) < 1e-13


class TestGaussResidual:
    def test_classical_holomorphic(self, classical_weights):
        F = holomorphic(lambda z: z**3, lambda z: 3 * z**2)
        res = gauss_residual(F, classical_weights, UNIT_PATCH)
        assert res.max() < 1e-10

    def test_classical_conjugate_balances(self, classical_weights):
        F = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
        res = gauss_residual(F, classical_weights, UNIT_PATCH.with_resolution(64, 64))
        assert res.max() < 1e-8

    def test_constant_weights_polynomial(self):
        wp = WeightPair.constant(1 + 1j, 1 - 1j)
        F = holomorphic(lambda z: z**3 - 2 * z, lambda z: 3 * z**2 - 2)
        res = gauss_residual(F, wp, UNIT_PATCH.with_resolution(64, 64))
        assert res.max() < 1e-8

    def test_nonconstant_orthogonal_weights(self):
        g = PlaneFunction(f=lambda x, y: 1 + x**2 + 0j, dx=lambda x, y: 2 * x + 0j,
                          dy=lambda x, y: 0j * x)
        wp = WeightPair.scaled_classical(g)
        F = holomorphic(lambda z: z**2 - z, lambda z: 2 * z - 1)
        res = gauss_residual(F, wp, UNIT_PATCH.with_resolution(64, 64))
        assert res.max() < 1e-6


class TestBorelPompeiuClassical:
    def test_holomorphic_boundary_only(self):
        F = holomorphic(lambda z: z**2 + 1j * z, lambda z: 2 * z + 1j)
        res = borel_pompeiu_classical(F, W0, CLASSICAL, UNIT_PATCH.with_resolution(32, 64))
        assert res.max() < 1e-8

    def test_holomorphic_independent_of_area_resolution(self):
        F = holomorphic(lambda z: z**3, lambda z: 3 * z**2)
        res = [borel_pompeiu_classical(F, W0, CLASSICAL, UNIT_PATCH.with_resolution(m, 64)).max()
               for m in (8, 64)]
        assert max(res) < 1e-8  # area term vanishes: only the contour matters

    def test_constant_reconstructed(self):
        F = ProductFunction.constant(2.5 - 1j)
        res = borel_pompeiu_classical(F, W0, CLASSICAL, UNIT_PATCH)
        assert res.l1 < 1e-10  # |reconstructed - (2.5 - 1j)| in the first component

    def test_conjugate_field(self):
        F = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
        res = borel_pompeiu_classical(F, W0, CLASSICAL, UNIT_PATCH.with_resolution(128, 64))
        assert res.max() < 1e-3

    def test_mixed_field_monotone(self, mixed_field):
        # d/dzbar of z^2*zbar is z^2, so the subtracted area integrand is a
        # polynomial the Gauss rule integrates exactly: every level sits at
        # rounding, and strict decrease is checked on a smooth field below
        res = [borel_pompeiu_classical(mixed_field, W0, CLASSICAL,
                                       UNIT_PATCH.with_resolution(m, 64)).max()
               for m in (32, 64, 128)]
        assert max(res) <= 1e-12

    def test_smooth_field_monotone(self, exp_sin_field):
        res = [borel_pompeiu_classical(exp_sin_field, W0, CLASSICAL,
                                       UNIT_PATCH.with_resolution(m, 64)).max()
               for m in (32, 64, 128)]
        assert res[0] > res[1] > res[2]
        assert res[2] <= 1e-4

    @pytest.mark.parametrize("field", ["poly", "exp"])
    def test_general_constant_pair_keeps_the_area_term_live(self, field):
        # bp-general's pair: the pair's kernel sees the area term that the
        # classical pair's kernel cancels on a holomorphic field, so the
        # residual falls under refinement instead of sitting at rounding
        from bcfrac.presets import field_preset

        rect = RectDomain(0, 1, 0, 1, 0, 1, 0, 1)
        W, F = rect.point(0.45, 0.4, 0.55, 0.6), field_preset(field)
        general = WeightPair.constant(1.0933 + 0.2109j, -0.5926 + 1.3771j)
        res = {wp: [borel_pompeiu_classical(F, W, wp, SurfacePatch.inside(rect, m=m, k=m)).max()
                    for m in (8, 16, 32, 64)] for wp in (CLASSICAL, general)}
        assert res[general][0] > res[general][1] > res[general][2] > res[general][3]
        assert res[general][3] <= 1e-6 and res[general][0] >= 1e-6
        assert max(res[CLASSICAL]) <= 1e-10

    def test_w_near_contour_rejected(self):
        F = holomorphic(lambda z: z, lambda z: np.ones_like(z))
        with pytest.raises(WOnBoundaryError):
            borel_pompeiu_classical(F, BicomplexNumber(0.001 + 0.5j, 0.5 + 0.5j), CLASSICAL,
                                    UNIT_PATCH)


@pytest.fixture
def frac_setup(unit_rect, linear_phi, classical_weights, poly_field):
    patch = SurfacePatch.inside(unit_rect, m=32, k=32)
    W = unit_rect.point(0.45, 0.4, 0.55, 0.6)
    Z = unit_rect.point(0.5, 0.55, 0.45, 0.5)
    return unit_rect, linear_phi, classical_weights, poly_field, patch, W, Z


class TestFracGauss:
    def test_degenerate_proportion_matches_reference_path(self, frac_setup):
        # the area integrand at proportion one is checked against its closed
        # form in criterion 08; here the identity itself must hold
        rect, phi, wp, F, patch, W, _ = frac_setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=512))
        main = frac_gauss_residual(F, W, p, wp, NO_LAM, patch)
        assert main.max() < 1e-6

    def test_zero_field(self, frac_setup):
        rect, phi, wp, _, patch, W, _ = frac_setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        res = frac_gauss_residual(ProductFunction.constant(0.0), W, p, wp, NO_LAM, patch)
        assert res.max() == 0

    def test_general_proportion_monotone(self, frac_setup):
        rect, phi, wp, F, patch, W, _ = frac_setup
        res = []
        for m, k, n in ((8, 8, 128), (16, 16, 256), (32, 32, 512)):
            p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=n))
            lam = lambda_for_constant_weights(wp, p)
            res.append(frac_gauss_residual(F, W, p, wp, lam, patch.with_resolution(m, k)).max())
        assert res[0] > res[1] > res[2]


def _trace_spy(monkeypatch):
    """Record the point count of the ``xs`` of every ``trace_component``
    call, from the identities and from ``frac_cr_component``: ``2 * m`` for
    the area nodes' column of x coordinates."""
    from bcfrac import frac_cr_bicomplex
    from bcfrac import quadrature_verify as qv

    sizes, trace = [], qv.trace_component

    def spy(ix, iy, xs, ys):
        sizes.append(np.size(xs))
        return trace(ix, iy, xs, ys)

    for module in (qv, frac_cr_bicomplex):
        monkeypatch.setattr(module, "trace_component", spy)
    return sizes


def _surrogate_spy(monkeypatch):
    """Record the target count of every call of the per-axis trace integrals
    that ``_trace_integrals`` hands out: one list per surrogate, in the order
    they are built."""
    from bcfrac import quadrature_verify as qv

    calls, build = [], qv._trace_integrals

    def counting(surrogate):
        sizes = []
        calls.append(sizes)

        def call(t):
            sizes.append(np.size(t))
            return surrogate(t)
        return call

    monkeypatch.setattr(qv, "_trace_integrals", lambda *a: tuple(map(counting, build(*a))))
    return calls


def _full_cr_component(F, W, p, wp, l, xs, ys):
    """``(1 - sigma) * g + sigma * (weighted CR of g) / Dphi`` with the trace
    integral ``g`` always evaluated, and ``g``, on broadcastable axes ``xs``
    and ``ys``."""
    from bcfrac import apply_cr_weighted
    from bcfrac import quadrature_verify as qv
    from bcfrac.frac_cr_bicomplex import _axis_partial_batched, component_axes

    ax_x, ax_y = component_axes(l)
    ix, iy = qv._trace_integrals(F, W, p, l)
    g = qv.trace_component(ix, iy, xs, ys)
    dgx = _axis_partial_batched(ix, p, ax_x, xs)
    dgy = _axis_partial_batched(iy, p, ax_y, ys)
    sig = p.sigma.z1 if l == 1 else p.sigma.z2
    cr = apply_cr_weighted(wp, l, xs, ys, dgx, dgy)
    return (1.0 - sig) * g + sig * cr / p.phi.dphi(l, xs, ys), g


def _full_frac_gauss_residual(F, W, p, wp, lam, patch):
    """``frac_gauss_residual`` with the trace integral and the divergence
    term always evaluated on the area nodes, in the multiplication order of
    the integrands that both fractional identities share (complex products
    need not commute bit for bit)."""
    from bcfrac import boundary_measure, weight_divergence
    from bcfrac import quadrature_verify as qv

    sigma_inv = p.sigma.invert()
    res = []
    for l in (1, 2):
        lam_fn = lam.component(l)
        sig_inv = sigma_inv.z1 if l == 1 else sigma_inv.z2
        z, wx, wy = qv._boundary_nodes(patch.component_bounds(l), patch.k)
        g_b = qv._contour_trace(*qv._trace_integrals(F, W, p, l), patch.component_bounds(l),
                                patch.k)
        bnd = np.sum(boundary_measure(wp, l, z, wx, wy) * g_b * np.exp(lam_fn.f(z.real, z.imag)))
        x, y, w = qv._area_nodes(patch.component_bounds(l), patch.m)
        cr_a, g_a = _full_cr_component(F, W, p, wp, l, x, y)
        elam_a = np.exp(lam_fn.f(x, y))
        h_field = elam_a * p.phi.dphi(l, x, y) * sig_inv * cr_a
        div_term = weight_divergence(wp, l, x, y) * elam_a * g_a
        res.append(abs(bnd - np.sum((h_field + div_term) * w)))
    return res


class TestZeroWeightedTerms:
    """At proportion one the ``(1 - sigma)`` trace-integral term is not
    evaluated, nor the divergence term for constant weights; the results
    equal the full formulas bit for bit."""

    @pytest.mark.parametrize("sigma", [(1, 0, 1, 0), (0.7, 0, 0.7, 0), (1, 0, 0.7, 0)])
    def test_cr_component_evaluates_the_trace_integral_off_proportion_one(
            self, frac_setup, monkeypatch, sigma):
        from bcfrac import quadrature_verify as qv
        from bcfrac.quadrature_verify import _area_nodes, frac_cr_component

        rect, phi, wp, F, patch, W, _ = frac_setup
        p = FracParams(rect, (0.5,) * 4, sigma, phi, Quadrature1D(n=64))
        for l in (1, 2):
            x, y, _ = _area_nodes(patch.component_bounds(l), 4)
            want, _ = _full_cr_component(F, W, p, wp, l, x, y)
            sizes, calls = _trace_spy(monkeypatch), _surrogate_spy(monkeypatch)
            got = frac_cr_component(*qv._trace_integrals(F, W, p, l), p, wp, l, x, y)
            monkeypatch.undo()
            # off proportion one the trace integral rides in each partial's
            # stencil call: five points per node, not four
            sig = p.sigma.z1 if l == 1 else p.sigma.z2
            stencil = 4 if sig == 1 else 5
            assert sizes == []
            assert calls == [[stencil * x.size], [stencil * y.size]]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights, sigma, area_calls", [
        ("classical", (1, 0, 1, 0), 0),
        ("constant", (1, 0, 1, 0), 0),
        ("constant", (0.7, 0, 0.7, 0), 1),
        ("scaled", (1, 0, 1, 0), 1),
        # once in the CR field's stencil calls, once for the divergence term
        ("scaled", (0.7, 0, 0.7, 0), 2),
    ])
    def test_frac_gauss_evaluates_the_area_trace_integral_only_where_weighted(
            self, frac_setup, monkeypatch, weights, sigma, area_calls):
        rect, phi, _, F, patch, W, _ = frac_setup
        wp = {"classical": WeightPair.classical(),
              "constant": WeightPair.constant(1 + 0.3j, 0.2 + 1j),
              "scaled": WeightPair.scaled_classical(PlaneFunction(
                  f=lambda x, y: 1 + x**2 + 0j, dx=lambda x, y: 2 * x + 0j,
                  dy=lambda x, y: 0j * x))}[weights]
        p = FracParams(rect, (0.5,) * 4, sigma, phi, Quadrature1D(n=64))
        # no multiplier solves the PDE for scaled weights; the spy needs none
        lam = NO_LAM if sigma[0] == 1 or weights == "scaled" else lambda_for_constant_weights(wp, p)
        patch = patch.with_resolution(4, 4)
        want = _full_frac_gauss_residual(F, W, p, wp, lam, patch)
        sizes, calls = _trace_spy(monkeypatch), _surrogate_spy(monkeypatch)
        got = frac_gauss_residual(F, W, p, wp, lam, patch)
        # the contour's trace integral comes from _contour_trace (its 4k
        # nodes and both ends).  On the area, off proportion one the CR field
        # takes it in each partial's stencil call, five points per node
        # instead of four, and the divergence term of non-constant weights
        # takes it through trace_component after the CR field.  An area
        # evaluation covers each axis once.
        divergence = weights == "scaled"
        stencil = (4 + area_calls - divergence) * 2 * patch.m
        assert sizes == [2 * patch.m] * divergence * 2
        assert calls == [[4 * patch.k + 2, stencil] + [2 * patch.m] * divergence] * 4
        assert [got.l1, got.l2] == want


class TestFracBorelPompeiu:
    def test_degenerate_preset(self, frac_setup):
        rect, phi, wp, _, patch, W, Z = frac_setup
        F = holomorphic(lambda z: z**2, lambda z: 2 * z)
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        res = frac_bp_reconstruct(F, W, Z, p, wp, NO_LAM, patch)
        assert res.max() < 1e-2

    def test_zero_field(self, frac_setup):
        rect, phi, wp, _, patch, W, Z = frac_setup
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=128))
        res = frac_bp_reconstruct(ProductFunction.constant(0.0), W, Z, p, wp, NO_LAM, patch)
        assert res.max() == 0

    def test_general_proportion_with_multiplier(self, frac_setup):
        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=256))
        lam = lambda_for_constant_weights(wp, p)
        res = frac_bp_reconstruct(F, W, Z, p, wp, lam, patch)
        assert res.max() < 5e-2

    @pytest.mark.parametrize("wp", [WeightPair.classical(),
                                    WeightPair.constant(1.0933 + 0.2109j, -0.5926 + 1.3771j)])
    def test_boundary_half_converges(self, frac_setup, wp):
        # the trace lines start on the contour, where plain panel sums are off
        # by O(1); with close evaluation the boundary half's successive
        # differences fall monotonically from the coarsest level (measured
        # 1.2e-6 ... 1.9e-8, order 1.5; without it 1.4e-3 ... 8.4e-5, not
        # monotone)
        rect, phi, _, F, _, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7, 0, 0.7, 0), phi, Quadrature1D(n=256))
        lam = lambda_for_constant_weights(wp, p)
        res = np.array([
            [r.l1, r.l2] for r in (
                frac_bp_reconstruct(F, W, Z, p, wp, lam, SurfacePatch(rect, m=k, k=k),
                                    include_area=False)
                for k in (8, 16, 32, 64, 128, 256))])
        diffs = np.abs(np.diff(res, axis=0))
        assert np.all(diffs[1:] < diffs[:-1]) and np.all(diffs <= 2e-6)

    def test_constant_weight_kernel(self, frac_setup):
        rect, phi, _, _, patch, W, Z = frac_setup
        wp = WeightPair.constant(1.0, 2j)
        F = holomorphic(lambda z: z**2, lambda z: 2 * z)
        p = FracParams(rect, (1 - 1e-8,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=256))
        res = frac_bp_reconstruct(F, W, Z, p, wp, NO_LAM, patch)
        assert res.max() < 1e-2

    def test_nonconstant_weights_rejected(self, frac_setup):
        rect, phi, _, F, patch, W, Z = frac_setup
        g = PlaneFunction(f=lambda x, y: 1 + x**2 + 0j, dx=lambda x, y: 2 * x + 0j,
                          dy=lambda x, y: 0j * x)
        wp = WeightPair.scaled_classical(g)
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=64))
        from bcfrac import UnsupportedWeightsError
        with pytest.raises(UnsupportedWeightsError):
            frac_bp_reconstruct(F, W, Z, p, wp, NO_LAM, patch)


class TestConvergenceStudy:
    def test_runs_and_fits_order(self, frac_setup):
        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=128))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM,
                                  W=W, Z=Z, patch=patch)
        reports = convergence_study("trace-inversion", setup, Resolution(8, 8, 128), 3)
        assert len(reports) == 3
        assert all(r.order == reports[0].order for r in reports)
        assert reports[0].order >= 1.0
        assert reports[0].max_residual() > reports[-1].max_residual()

    def test_a_study_composes_once(self, frac_setup, monkeypatch):
        # the composition reads no n: one derivative_of_integral call per axis
        # for the whole study, where each level took four, and again for the
        # next study; the residuals are those of separate inversion checks
        from bcfrac import frac_cr_bicomplex

        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=64))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM, W=W, Z=Z, patch=patch)
        real_series, real_compose, series, compose = (
            frac_cr_bicomplex.derivative_of_integral,
            frac_cr_bicomplex.compose_derivative_of_integral, [], [])

        def counted(calls, fn):
            return lambda *args: calls.append(1) or fn(*args)

        monkeypatch.setattr(frac_cr_bicomplex, "derivative_of_integral",
                            counted(series, real_series))
        # the tracer's compose_s wraps this binding
        monkeypatch.setattr(frac_cr_bicomplex, "compose_derivative_of_integral",
                            counted(compose, real_compose))
        reports = convergence_study("trace-inversion", setup, Resolution(8, 8, 64), 3)
        assert (len(series), len(compose)) == (4, 1)
        convergence_study("trace-inversion", setup, Resolution(8, 8, 64), 3)
        assert (len(series), len(compose)) == (8, 2)
        want = [inversion_check(F, W, replace(p, quadrature=Quadrature1D(n=n)), Z)
                for n in (64, 128, 256)]
        assert [(r.res_l1, r.res_l2) for r in reports] == [(w.l1, w.l2) for w in want]

    def test_a_study_holds_its_level_free_terms(self, frac_setup, monkeypatch):
        # the composition, the trace sum and D[1] are built once, at the first
        # level; every level runs the remainder's four one-target direct-rule
        # integrals (and before: one trace sum and four D[1] per level)
        from bcfrac import frac_cr_bicomplex
        from bcfrac import quadrature_verify as qv

        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=64))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM, W=W, Z=Z, patch=patch)
        calls = {"trace_sum": 0, "derivative_of_one": 0, "compose": 0, "integral": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key, module, name in [("trace_sum", frac_cr_bicomplex, "trace_sum"),
                                  ("derivative_of_one", frac_cr_bicomplex, "derivative_of_one"),
                                  ("compose", frac_cr_bicomplex, "compose_derivative_of_integral"),
                                  ("integral", frac_cr_bicomplex, "prop_frac_integral")]:
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        real_run, per_level = qv.run_identity, []

        def run(*args, **kwargs):
            before = calls["integral"]
            out = real_run(*args, **kwargs)
            per_level.append(calls["integral"] - before)
            return out

        monkeypatch.setattr(qv, "run_identity", run)
        convergence_study("trace-inversion", setup, Resolution(8, 8, 64), 3)
        assert (calls["trace_sum"], calls["compose"]) == (1, 1)
        assert calls["derivative_of_one"] <= 8
        assert per_level == [4, 4, 4]

    def test_zero_field_saturates(self, frac_setup):
        rect, phi, wp, _, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=64))
        setup = VerificationSetup(F=ProductFunction.constant(0.0), wp=wp, params=p,
                                  lam=NO_LAM, W=W, Z=Z, patch=patch)
        reports = convergence_study("trace-inversion", setup, Resolution(8, 8, 64), 2)
        assert all(r.max_residual() == 0 for r in reports)
        assert reports[0].order == float("inf")

    def test_registry_reports_each_identity_with_its_resolutions(self, frac_setup):
        # patch identities record (m, k), 1-D identities n, the fractional
        # area identities all three
        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=32))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM, W=W, Z=Z, patch=patch)
        columns = {
            "gauss-weighted": (8, 8, 0),
            "borel-pompeiu": (8, 8, 0),
            "trace-inversion": (0, 0, 32),
            "factorization": (0, 0, 32),
            "frac-gauss": (8, 8, 32),
            "frac-borel-pompeiu": (8, 8, 32),
        }
        assert IDENTITIES == tuple(columns)
        for identity, mkn in columns.items():
            rep = run_identity(identity, setup, Resolution(8, 8, 32))
            assert rep.identity == identity
            assert (rep.m, rep.k, rep.n) == mkn
            assert np.isfinite(rep.max_residual())

    def test_unknown_identity(self, frac_setup):
        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (0.7,) * 4, phi, Quadrature1D(n=64))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM,
                                  W=W, Z=Z, patch=patch)
        with pytest.raises(ValueError):
            run_identity("no-such-identity", setup, Resolution(8, 8, 64))

    @pytest.mark.parametrize("identity, attribute", [
        ("gauss-weighted", "gauss_residual"), ("borel-pompeiu", "borel_pompeiu_classical"),
        ("trace-inversion", "inversion_check"), ("factorization", "factorization_check"),
        ("frac-gauss", "frac_gauss_residual"), ("frac-borel-pompeiu", "frac_bp_reconstruct")])
    def test_registry_looks_each_residual_up_when_it_calls_it(
            self, frac_setup, monkeypatch, identity, attribute):
        # a wrapper bound to the module attribute after import (the perfbench
        # tracer's) is the function that runs
        from bcfrac import quadrature_verify as qv

        rect, phi, wp, F, patch, W, Z = frac_setup
        p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=32))
        setup = VerificationSetup(F=F, wp=wp, params=p, lam=NO_LAM, W=W, Z=Z, patch=patch)
        monkeypatch.setattr(qv, attribute,
                            lambda *args, **kwargs: HyperbolicNumber(0.25, 0.5))
        rep = run_identity(identity, setup, Resolution(8, 8, 32))
        assert (rep.res_l1, rep.res_l2) == (0.25, 0.5)


def test_residual_report_csv_row():
    from bcfrac import ResidualReport

    rep = ResidualReport("gauss-weighted", 32, 16, 256, 1.25e-9, 3.5e-10,
                         order=2.125, seconds=0.125)
    row = rep.csv_row()
    assert row.startswith("gauss-weighted,32,16,256,1.250000000000e-09,3.500000000000e-10,2.125000,")
    assert row.endswith(",0.125")


def test_residual_report_nan_is_never_the_smaller_residual():
    from bcfrac import ResidualReport

    for l1, l2 in ((0.5, np.nan), (np.nan, 0.5)):
        assert np.isnan(ResidualReport("frac-gauss", 8, 8, 64, l1, l2).max_residual())
    assert ResidualReport("frac-gauss", 8, 8, 64, 0.5, 0.25).max_residual() == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_order_is_nan_for_non_finite_residuals(bad):
    from bcfrac import ResidualReport
    from bcfrac.quadrature_verify import fit_order

    reports = [ResidualReport("frac-gauss", 8, 8, 64, r, r) for r in (1e-2, bad, 1e-4)]
    assert np.isnan(fit_order(reports))
    finite = [ResidualReport("frac-gauss", 8, 8, 64, r, r) for r in (1e-2, 1e-3, 1e-4)]
    assert abs(fit_order(finite) - np.log2(10.0)) < 1e-12


@pytest.mark.parametrize("residuals", [
    (3e-3, 8e-4), (8e-4, 3e-3), (1e-2, 1e-3, 1e-4), (2e-5, 7e-6, 9e-6),
    (4e-3, 1.1e-3, 2.4e-4, 3e-4, 1.7e-5), (1e-2, 1e-300, 1e-4), (0.0, 1e-3, 1e-6)],
    ids=["2", "2-rising", "3", "3-not-monotone", "5-not-monotone", "3-floor", "3-zero"])
def test_fit_order_is_the_least_squares_slope(residuals):
    # the closed form against numpy's least squares on the same floored logs
    from bcfrac import ResidualReport
    from bcfrac.quadrature_verify import fit_order

    reports = [ResidualReport("trace-inversion", 0, 0, 64, r, r / 2) for r in residuals]
    want = -np.polyfit(np.arange(len(residuals)), np.log2(np.maximum(residuals, 1e-300)), 1)[0]
    assert abs(fit_order(reports) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("levels", [2, 3, 5])
def test_fit_order_of_a_quartering_sequence_is_exactly_two(levels):
    from bcfrac import ResidualReport
    from bcfrac.quadrature_verify import fit_order

    reports = [ResidualReport("trace-inversion", 0, 0, 64, 0.5 * 4.0**-i, 0.0)
               for i in range(levels)]
    assert fit_order(reports) == 2.0


def test_cached_rule_arrays_are_read_only():
    from bcfrac.fracops1d import _jacobi_rule, _reference_row
    from bcfrac.quadrature_verify import (
        _area_nodes,
        _boundary_nodes,
        _gl_reference,
        _panel_rule,
    )

    bounds = (0.0, 1.0, 0.0, 1.0)
    cached = [
        _reference_row("graded", 16, 0.5),
        _jacobi_rule(8, 0.5),
        _gl_reference(4),
        _panel_rule(0.0, 1.0, 4, 2),
        _boundary_nodes(bounds, 4),
        _area_nodes(bounds, 4),
    ]
    for arrays in cached:
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0


BP_GENERAL_PAIR = (1.0933 + 0.2109j, -0.5926 + 1.3771j)


@pytest.mark.parametrize("a, b", [
    (1.0, 0.0),
    (BP_GENERAL_PAIR[0] - 1j * BP_GENERAL_PAIR[1], -(BP_GENERAL_PAIR[0] + 1j * BP_GENERAL_PAIR[1])),
], ids=["classical", "constant-pair"])
def test_wedge_recip_area_on_point_array_matches_per_point_calls(a, b):
    from bcfrac.weighted_cr import _wedge_recip_area

    bounds = (0.15, 0.85, 0.2, 1.1)
    rng = np.random.default_rng(7)
    z = (0.16 + 0.68 * rng.random(17)) + 1j * (0.21 + 0.88 * rng.random(17))
    batched = _wedge_recip_area(a, b, bounds, z)
    per_point = np.array([_wedge_recip_area(a, b, bounds, complex(p)) for p in z])
    assert batched.shape == z.shape
    assert np.array_equal(batched, per_point)


def _polar_wedge_reference(a, b, bounds, z):
    """The area integral of ``1 / (a*w + b*conj(w))``, ``w = v - z``, over the
    rectangle as four polar wedges around ``z``: the radial integral is the
    wedge's radius over ``a*e^(i t) + b*e^(-i t)``, and mpmath integrates the
    angle adaptively at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        x0, x1, y0, y1 = (mpmath.mpf(v) for v in bounds)
        zx, zy = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        ang = [mpmath.atan2(cy - zy, cx - zx)
               for cx, cy in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
        wedges = [(ang[0], ang[1], lambda t: (y0 - zy) / mpmath.sin(t)),
                  (ang[1], ang[2], lambda t: (x1 - zx) / mpmath.cos(t)),
                  (ang[2], ang[3], lambda t: (y1 - zy) / mpmath.sin(t)),
                  (ang[3], ang[0] + 2 * mpmath.pi, lambda t: (x0 - zx) / mpmath.cos(t))]
        total = sum(mpmath.quad(lambda t: radius(t) / (a * mpmath.expj(t) + b * mpmath.expj(-t)),
                                [t0, t1]) for t0, t1, radius in wedges)
        return complex(total)


@pytest.mark.parametrize("a, b", [
    (2.0, 0.0),
    (BP_GENERAL_PAIR[0] - 1j * BP_GENERAL_PAIR[1], -(BP_GENERAL_PAIR[0] + 1j * BP_GENERAL_PAIR[1])),
], ids=["classical", "constant-pair"])
@pytest.mark.parametrize("fx, fy", [(0.4, 0.3), (0.5, 1e-3), (1 - 1e-3, 1 - 1e-3), (0.03, 0.03)],
                         ids=["interior", "edge-1e-3", "corner-1e-3", "corner-0.03"])
def test_wedge_recip_area_is_the_exact_area_integral(a, b, fx, fy):
    # measured relative errors of the closed form: at most 3.7e-16 on these
    # points; a fixed angular rule per wedge loses digits next to a corner
    from bcfrac.weighted_cr import _wedge_recip_area

    bounds = (0.15, 0.85, 0.2, 1.1)
    z = complex(bounds[0] + fx * (bounds[1] - bounds[0]), bounds[2] + fy * (bounds[3] - bounds[2]))
    want = _polar_wedge_reference(a, b, bounds, z)
    assert abs(_wedge_recip_area(a, b, bounds, z) - want) <= 2e-15 * abs(want)


def test_wedge_recip_area_of_scalar_point_is_scalar():
    from bcfrac.weighted_cr import _wedge_recip_area

    out = _wedge_recip_area(1.0, 0.0, (0.0, 1.0, 0.0, 1.0), 0.4 + 0.3j)
    assert np.ndim(out) == 0
    assert np.isfinite(complex(out))


def test_area_map_evaluates_each_call_in_one_batch(frac_setup, monkeypatch):
    # no deduplication: the line surrogates send at most 32 distinct points
    from bcfrac import CauchyKernel, weighted_cr
    from bcfrac import quadrature_verify as qv

    rect, phi, wp, F, patch, W, _ = frac_setup
    p = FracParams(rect, (0.5,) * 4, (1, 0, 1, 0), phi, Quadrature1D(n=64))
    surrogates = (qv.axis_surrogate(F, W, p, ax) for ax in (0, 1))
    bounds = patch.component_bounds(1)
    _, _, h_at = qv._frac_gauss_terms(*surrogates, p, wp, NO_LAM.component(1), 1, bounds, 8)
    area_map, region = qv._area_map_builder(1, h_at, CauchyKernel(wp), NO_LAM.component(1),
                                            bounds, 8)
    assert np.ravel(region) == pytest.approx([0.15 + 0.7 / 8, 0.85 - 0.7 / 8] * 2, rel=1e-14)
    # the last two points clamp onto the same point one cell inside the patch
    xs = np.array([0.3, 0.5, 0.62, 0.0, 0.05])
    ys = np.array([0.4, 0.45, 0.7, 0.5, 0.5])
    values = area_map(xs, ys)
    assert values[3] == values[4]

    wedge_points, field_points = [], []
    wedge, field = weighted_cr._wedge_recip_area, qv.frac_cr_component

    def wedge_spy(a, b, bounds, z):
        wedge_points.append(np.shape(z))
        return wedge(a, b, bounds, z)

    def field_spy(ix, iy, p, wp, l, xs, ys):
        field_points.append(np.shape(xs))
        return field(ix, iy, p, wp, l, xs, ys)

    monkeypatch.setattr(weighted_cr, "_wedge_recip_area", wedge_spy)
    monkeypatch.setattr(qv, "frac_cr_component", field_spy)
    tiled = area_map(np.tile(xs, 4), np.tile(ys, 4))
    assert np.array_equal(tiled, np.tile(values, 4))
    assert wedge_points == [(20,)]
    assert field_points == [(20,)]


#: The deep-reconstruction items of perfbench's default seed.
DEEP_ENTRIES = {
    "bg-reconstruction": dict(
        weights="classical", alpha=[0.5] * 4, sigma=[1, 0, 1, 0], field="poly", tolerance=0.05),
    "bp-general": dict(
        weights="constant:1.0933+0.2109i,-0.5926+1.3771i", alpha=[0.5] * 4,
        sigma=[0.6864, 0, 0.6864, 0], field="poly", tolerance=0.05),
    "bp-boundary-only": dict(
        weights="constant:0.8275-0.3945i,0.3945+0.8275i", alpha=[0.999999] * 4,
        sigma=[1, 0, 1, 0], field="affine", tolerance=0.001, include_area=False),
}

#: The frac-gauss items of perfbench's trace-gauss workload at its default seed.
GAUSS_ENTRIES = {
    "bg-gauss": dict(
        weights="classical", alpha=[0.5] * 4, sigma=[1, 0, 1, 0], n=512, tolerance=1e-6),
    "fractal-gauss": dict(
        domain=[0.5, 1.5] * 4, weights="classical", phi="fractal:0.5,0.6,0.7,0.8",
        alpha=[0.999999] * 4, sigma=[1, 0, 1, 0], tolerance=1e-4),
    "gauss-general": dict(
        weights="classical", alpha=[0.6592, 0.5677, 0.3966, 0.4625],
        sigma=[0.8315, 0, 0.8315, 0], n=512, tolerance=1e-6),
    "gauss-expression": dict(
        weights="scaled-classical:1 + 0.7153*x*y + 0.1647*cos(y)",
        alpha=[0.5379, 0.618, 0.5155, 0.4543], sigma=[1, 0, 1, 0], n=512, tolerance=1e-6),
}


def _item(name, **overrides):
    """``(setup, params, patch)`` of one deep or frac-gauss item at its
    resolutions, with its entry's fields replaced by ``overrides``; a deep
    item's patch is the whole rectangle, which is the surface
    ``frac_bp_reconstruct`` integrates over."""
    from dataclasses import replace

    from bcfrac.cli import parse_experiment

    deep = name in DEEP_ENTRIES
    fields = dict(domain=[0.0, 1.0] * 4, phi="linear", field="poly", n=256)
    fields.update(DEEP_ENTRIES[name] if deep else GAUSS_ENTRIES[name], **overrides)
    entry = dict(name=name, identity="frac-borel-pompeiu" if deep else "frac-gauss",
                 m=32, k=32, levels=1, **fields)
    cfg = parse_experiment(entry, 0)
    s, r = cfg.setup, cfg.resolution
    p = replace(s.params, quadrature=replace(s.params.quadrature, n=r.n))
    patch = SurfacePatch(p.rect, m=r.m, k=r.k) if deep else s.patch.with_resolution(r.m, r.k)
    return s, p, patch


def _residual(name, s, p, patch):
    if name in DEEP_ENTRIES:
        return frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
    return frac_gauss_residual(s.F, s.W, p, s.wp, s.lam, patch)


class TestDeepTraceSurrogates:
    """The deep reconstruction and the Gauss identity take their trace
    fields from one ``tabulate`` surrogate per axis instead of the direct
    rule."""

    @pytest.mark.parametrize("name", list(DEEP_ENTRIES) + list(GAUSS_ENTRIES))
    def test_trace_fields_match_the_direct_rule(self, name, direct_integrals):
        # measured: boundary trace integral within 6.2e-16 and CR field within
        # 1.3e-11 (fractal-gauss; 1.8e-12 on the others) of the largest direct
        # value
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item(name)
        for l in (1, 2):
            direct = direct_integrals(s.F, s.W, p, l)
            surrogates = qv._trace_integrals(s.F, s.W, p, l)
            bounds = patch.component_bounds(l)
            want = qv._contour_trace(*direct, bounds, patch.k, anchor_hair=1e-9)
            got = qv._contour_trace(*surrogates, bounds, patch.k, anchor_hair=1e-9)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if s.include_area:
                x, y, _ = qv._area_nodes(patch.component_bounds(l), patch.m)
                want = qv.frac_cr_component(*direct, p, s.wp, l, x, y)
                got = qv.frac_cr_component(*surrogates, p, s.wp, l, x, y)
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", list(DEEP_ENTRIES) + list(GAUSS_ENTRIES))
    def test_residuals_match_the_direct_path(self, name, monkeypatch):
        # the direct path gives the residuals of the direct rule bit for bit
        # (for the Gauss items, those before their switch to surrogates);
        # measured relative moves: 8.2e-12 / 5.7e-11, 7.8e-11 / 9.5e-11 and
        # 8.2e-10 / 5.0e-10 for the deep items (bp-boundary-only's residual is
        # 1e-5 of terms of size one, so a move of a few ulps in them is 1e-9 of
        # it), and up to 7.1e-6 for the Gauss items, whose residual differences
        # the CR field's quotients of steps 1e-4 and 2e-4.  fractal-gauss sits
        # at its rounding floor (l1 6.2e-13 direct, 6.5e-13 surrogate; its
        # boundary terms sum to 0.11 from magnitudes of about 10), where only
        # the floor itself can be checked
        from functools import partial

        from bcfrac import frac_cr_bicomplex
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item(name)
        got = _residual(name, s, p, patch)
        monkeypatch.setattr(qv, "axis_surrogate", lambda F, W, p, ax: partial(
            frac_cr_bicomplex.axis_integral, F, W, p, ax))
        want = _residual(name, s, p, patch)
        bound = 1e-9 if name in DEEP_ENTRIES else 1e-5
        for a, b in ((got.l1, want.l1), (got.l2, want.l2)):
            if name == "fractal-gauss":
                assert max(a, b) < 1e-12
            else:
                assert abs(a - b) <= bound * b

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    def test_one_surrogate_per_axis_at_32_samples(self, name, monkeypatch):
        # the x axes are live (sigma != 0) and sample 32 rule rows; the y axes
        # have sigma = 0, where the surrogate is the field itself
        from bcfrac import frac_cr_bicomplex, fracops1d

        real_tabulate, real_integral = fracops1d.tabulate, fracops1d.prop_frac_integral
        seen = []

        def counting(f, p, t, q):
            seen[-1].append(np.size(t))
            return real_integral(f, p, t, q)

        def spy(f, p, q):
            seen.append([])
            monkeypatch.setattr(fracops1d, "prop_frac_integral", counting)
            try:
                return real_tabulate(f, p, q)
            finally:
                monkeypatch.setattr(fracops1d, "prop_frac_integral", real_integral)

        s, p, patch = _item(name)
        monkeypatch.setattr(frac_cr_bicomplex, "tabulate", spy)
        frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        assert seen == [[32], []] * 2

    def test_gauss_identity_sends_each_rule_target_once(self, monkeypatch):
        # bg-gauss has one live axis per component (sigma = 0 on the y axes),
        # whose surrogate samples 32 distinct targets in one call
        from bcfrac import frac_cr_bicomplex, fracops1d

        real, calls = fracops1d.prop_frac_integral, []

        def spy(f, p, t, q):
            calls.append((np.size(t), np.unique(t).size))
            return real(f, p, t, q)

        for module in (fracops1d, frac_cr_bicomplex):
            monkeypatch.setattr(module, "prop_frac_integral", spy)
        s, p, patch = _item("bg-gauss")
        frac_gauss_residual(s.F, s.W, p, s.wp, s.lam, patch)
        assert calls == [(32, 32)] * 2


def _per_distinct(integral):
    """Reference: ``integral`` evaluated once per distinct coordinate of its
    argument, in one sorted batch, and gathered back.  A surrogate's value
    can change in the last bit with the batch it is evaluated in, so the
    per-axis fields are checked against this tensor-grid evaluation."""
    def on_distinct(t):
        uniq, inv = np.unique(t, return_inverse=True)
        return integral(uniq)[inv].reshape(np.shape(t))

    return on_distinct


class TestSeparableTraceFields:
    """The trace fields are evaluated per axis and broadcast onto the grid or
    laid out along the contour; they equal a per-distinct-coordinate
    evaluation at the plane points bit for bit."""

    @pytest.mark.parametrize("name", ["bp-general", "gauss-expression"],
                             ids=["constant-pair", "scaled-classical"])
    def test_cr_field_on_the_area_axes_is_the_grid(self, name):
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item(name)
        size = 2 * patch.m
        for l in (1, 2):
            surrogates = qv._trace_integrals(s.F, s.W, p, l)
            x, y, w = qv._area_nodes(patch.component_bounds(l), patch.m)
            assert (x.shape, y.shape, w.shape) == ((size, 1), (1, size), (size, size))
            got = qv.frac_cr_component(*surrogates, p, s.wp, l, x, y)
            X, Y = np.meshgrid(x.ravel(), y.ravel(), indexing="ij")
            want = qv.frac_cr_component(*map(_per_distinct, surrogates), p, s.wp, l,
                                        X.ravel(), Y.ravel())
            assert got.shape == (size, size)
            assert np.array_equal(got.ravel(), want)

    @pytest.mark.parametrize("hair", [0.0, 1e-9], ids=["gauss", "deep-anchor-hair"])
    def test_contour_field_is_the_trace_at_the_boundary_nodes(self, hair):
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item("bp-general")
        for l in (1, 2):
            surrogates = qv._trace_integrals(s.F, s.W, p, l)
            bounds = x0, x1, y0, y1 = patch.component_bounds(l)
            z, _, _ = qv._boundary_nodes(bounds, patch.k)
            gx = np.maximum(z.real, x0 + hair * (x1 - x0))
            gy = np.maximum(z.imag, y0 + hair * (y1 - y0))
            want = qv.trace_component(*map(_per_distinct, surrogates), gx, gy)
            got = qv._contour_trace(*surrogates, bounds, patch.k, anchor_hair=hair)
            assert np.array_equal(got, want)

    def test_boundary_nodes_run_edge_by_edge(self):
        from bcfrac import quadrature_verify as qv

        bounds = x0, x1, y0, y1 = (0.1, 0.9, -0.2, 0.7)
        xs, wxs = qv._panel_rule(x0, x1, 4, 4)
        ys, wys = qv._panel_rule(y0, y1, 4, 4)
        zero = np.zeros(16)
        z, wx, wy = qv._boundary_nodes(bounds, 4)
        assert np.array_equal(z, np.concatenate(
            [xs + 1j * y0, x1 + 1j * ys, xs[::-1] + 1j * y1, x0 + 1j * ys[::-1]]))
        assert np.array_equal(wx, np.concatenate([wxs, zero, -wxs[::-1], zero]))
        assert np.array_equal(wy, np.concatenate([zero, wys, zero, -wys[::-1]]))


def _direct_map_path(monkeypatch, area: bool, run):
    """``run()`` with the line surrogates of one of the deep maps unwrapped:
    the area map (``area``) or the boundary map.  Every trace line of that
    map then reads the map itself, the reference path; the other map keeps
    its surrogate.  A map is told by its object (the area maps are those
    that ``_area_map_builder`` returns), and each read asserts that its
    region agrees: strictly inside the rectangle for the area map, the
    rectangle itself for the boundary map.  Each component that read its
    boundary map must have unwrapped exactly one map."""
    from bcfrac import quadrature_verify as qv
    from bcfrac.frac_cr_bicomplex import (_MAP_STEP, _axis_coord, _trace_line, axis_derivative,
                                          component_axes)

    real, build = qv._trace_derivative_of_map, qv._area_map_builder
    area_maps, components, unwrapped = [], [], []

    def builder(*args):
        area_map, region = build(*args)
        area_maps.append(area_map)
        return area_map, region

    def outer(plane_map, l, Z, W, p, region):
        rect = tuple(p.rect.axis_interval(axis) for axis in component_axes(l))
        is_area = any(plane_map is built for built in area_maps)
        if is_area:
            assert all(lo < a and end < hi for (a, end), (lo, hi) in zip(region, rect))
        else:
            assert tuple(map(tuple, region)) == rect
            components.append(l)
        if is_area != area:
            return real(plane_map, l, Z, W, p, region)
        unwrapped.append(l)
        total = 0.0 + 0.0j
        for axis in component_axes(l):
            lo, hi = p.rect.axis_interval(axis)
            total += axis_derivative(_trace_line(plane_map, Z, axis), W, p, axis,
                                     _axis_coord(Z, axis), h=_MAP_STEP * (hi - lo))
        return total

    monkeypatch.setattr(qv, "_area_map_builder", builder)
    monkeypatch.setattr(qv, "_trace_derivative_of_map", outer)
    out = run()
    assert components and unwrapped == components
    return out


def _direct_area_path(monkeypatch, run):
    return _direct_map_path(monkeypatch, True, run)


def _direct_boundary_path(monkeypatch, run):
    return _direct_map_path(monkeypatch, False, run)


def _kernel_sum_targets(monkeypatch, method: str = "sums") -> list:
    """Shapes of the targets of every call of the ``CauchyKernel`` method,
    in order."""
    from bcfrac import CauchyKernel

    real, targets = getattr(CauchyKernel, method), []

    def spy(self, l, sources, charges, points):
        targets.append(np.shape(points))
        return real(self, l, sources, charges, points)

    monkeypatch.setattr(CauchyKernel, method, spy)
    return targets


#: The stall setup of the deep reconstruction: classical weights, linear phi,
#: the poly field, alpha 0.5 and sigma (0.7, 0, 0.7, 0).
STALL_ENTRY = dict(name="stall", identity="frac-borel-pompeiu", domain=[0.0, 1.0] * 4,
                   weights="classical", phi="linear", alpha=[0.5] * 4, sigma=[0.7, 0, 0.7, 0],
                   field="poly", m=8, k=8, n=64, tolerance=0.05, levels=1)


class TestAreaLineSurrogate:
    """The deep reconstruction reads its area map, along every trace line of
    nonzero proportion, through a 32-sample Chebyshev interpolant."""

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    def test_each_component_reads_the_map_in_one_kernel_sum(self, name, monkeypatch):
        # per component: the 32 samples of the x line (sigma != 0) and the
        # point Z of the y line (sigma = 0) in one kernel sum; the direct map
        # sends the distinct nodes of the outer rows, 451 (and 226 more at
        # sigma != 1) of their 512 (768)
        targets = _kernel_sum_targets(monkeypatch)
        s, p, patch = _item(name)
        frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        assert targets == [(33,)] * 2

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    @pytest.mark.parametrize("x", [0.02, 1 / 32 - 5e-3], ids=["inverted", "empty"])
    def test_point_within_a_cell_of_the_anchor_reads_the_clamped_constant(self, name, x,
                                                                           monkeypatch):
        # the outer rule reads [0, x + h], below the clamp region's lower end
        # 1/32, where the map is the constant at that end: the x line reads
        # that one point, in the y line's kernel sum with Z.  The direct map
        # evaluates that point once per node, and its batch may move the last
        # bits (measured 3.4e-15)
        s, p, patch = _item(name)
        Z = BicomplexNumber(complex(x, s.Z.z1.imag), complex(x, s.Z.z2.imag))
        targets = _kernel_sum_targets(monkeypatch)
        got = frac_bp_reconstruct(s.F, s.W, Z, p, s.wp, s.lam, patch)
        assert targets == [(2,)] * 2
        want = _direct_area_path(
            monkeypatch, lambda: frac_bp_reconstruct(s.F, s.W, Z, p, s.wp, s.lam, patch))
        assert np.isfinite(got.l1) and np.isfinite(got.l2)
        assert abs(got.l1 - want.l1) <= 1e-13 * want.l1
        assert abs(got.l2 - want.l2) <= 1e-13 * want.l2

    def test_stall_levels_agree_with_the_direct_map(self, monkeypatch):
        # measured moves of l1 / l2: -0.1 / -0.2%, +6.1 / -0.0%, +1.1 / -0.4%
        # and -2.0 / -1.5% at (8, 8, 64) ... (64, 64, 512)
        from bcfrac.cli import parse_experiment

        setup = parse_experiment(STALL_ENTRY, 0).setup
        levels = [Resolution(8, 8, 64).scaled(2**i) for i in range(4)]
        got = [run_identity("frac-borel-pompeiu", setup, r) for r in levels]
        want = _direct_area_path(
            monkeypatch, lambda: [run_identity("frac-borel-pompeiu", setup, r) for r in levels])
        for a, b in zip(got, want):
            assert abs(a.res_l1 - b.res_l1) <= 0.1 * b.res_l1
            assert abs(a.res_l2 - b.res_l2) <= 0.1 * b.res_l2

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    def test_deep_items_agree_with_the_direct_map(self, name, monkeypatch):
        # measured moves of l1 / l2: +1.3 / -0.7% (bg-reconstruction), +5.7 /
        # -1.3% (bp-general)
        s, p, patch = _item(name)
        got = frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch)
        want = _direct_area_path(
            monkeypatch, lambda: frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch))
        assert abs(got.l1 - want.l1) <= 0.1 * want.l1
        assert abs(got.l2 - want.l2) <= 0.1 * want.l2


class TestBoundaryLineSurrogate:
    """The deep reconstruction reads its boundary map, along every trace line
    of nonzero proportion, through the same 32-sample Chebyshev interpolant
    as its area map, within the whole rectangle."""

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    def test_each_component_reads_the_map_in_one_boundary_sum(self, name, monkeypatch):
        # per component: the 32 samples of the x line (sigma != 0) and the
        # point Z of the y line (sigma = 0) in one boundary sum; the direct
        # map sends the outer rows, 512 targets (and 256 more at sigma != 1)
        targets = _kernel_sum_targets(monkeypatch, "boundary_sums")
        s, p, patch = _item(name)
        frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        assert targets == [(33,)] * 2

    def test_stall_levels_agree_with_the_direct_map(self, monkeypatch):
        # the boundary half only; measured largest moves of l1 or l2: 3.2e-10
        # at (8, 8, 64), 3.6e-11, 6.4e-12 and 9.6e-13 at (64, 64, 512)
        from bcfrac.cli import parse_experiment

        setup = parse_experiment(dict(STALL_ENTRY, include_area=False), 0).setup
        levels = [Resolution(8, 8, 64).scaled(2**i) for i in range(4)]
        got = [run_identity("frac-borel-pompeiu", setup, r) for r in levels]
        want = _direct_boundary_path(
            monkeypatch, lambda: [run_identity("frac-borel-pompeiu", setup, r) for r in levels])
        for a, b in zip(got, want):
            assert abs(a.res_l1 - b.res_l1) <= 1e-9
            assert abs(a.res_l2 - b.res_l2) <= 1e-9

    @pytest.mark.parametrize("name", list(DEEP_ENTRIES))
    def test_deep_items_agree_with_the_direct_map(self, name, monkeypatch):
        # the boundary half only; measured largest moves of l1 or l2: 8.1e-12
        # (bg-reconstruction), 1.7e-11 (bp-general), 2.7e-11 (bp-boundary-only)
        s, p, patch = _item(name)
        got = frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, include_area=False)
        want = _direct_boundary_path(monkeypatch, lambda: frac_bp_reconstruct(
            s.F, s.W, s.Z, p, s.wp, s.lam, patch, include_area=False))
        assert abs(got.l1 - want.l1) <= 1e-9
        assert abs(got.l2 - want.l2) <= 1e-9


#: Proportions with both trace lines of each component live.
BOTH_LIVE = dict(sigma=[0.7, 0.6, 0.8, 0.9])


class TestOneMapReadPerComponent:
    """A component of the deep reconstruction reads each of its maps once:
    the samples of both trace lines, or a live line's samples and ``Z``,
    share one kernel sum."""

    @pytest.mark.parametrize("name", ["bg-reconstruction", "bp-general"])
    def test_both_live_lines_share_one_kernel_sum_per_map(self, name, monkeypatch):
        area = _kernel_sum_targets(monkeypatch)
        boundary = _kernel_sum_targets(monkeypatch, "boundary_sums")
        s, p, patch = _item(name, **BOTH_LIVE)
        frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        assert area == [(64,)] * 2
        assert boundary == [(64,)] * 2

    @pytest.mark.parametrize("name, overrides", [(name, {}) for name in DEEP_ENTRIES] + [
        ("bg-reconstruction", BOTH_LIVE), ("bp-general", BOTH_LIVE)],
        ids=list(DEEP_ENTRIES) + ["bg-both-live", "bp-both-live"])
    def test_one_read_agrees_with_a_read_per_direction(self, name, overrides, monkeypatch,
                                                        per_direction_read):
        # the kernel sums' blocks may move a target's last bits with its
        # batch: measured largest moves of l1 or l2 3.6e-17 / 2.2e-16
        # (bg-reconstruction), 2.2e-16 / 0 (bp-general) and 0 / 1.3e-15
        # (bp-boundary-only), and none on both-live lines, whose 64 targets
        # fill whole blocks
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item(name, **overrides)
        got = frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        monkeypatch.setattr(qv, "_trace_derivative_of_map", per_direction_read)
        want = frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch, s.include_area)
        assert abs(got.l1 - want.l1) <= 1e-14
        assert abs(got.l2 - want.l2) <= 1e-14


class TestSharedIntegrands:
    """Both fractional identities take the boundary charge and the area
    density from ``_frac_gauss_terms``: the Gauss identity integrates them
    plainly, the deep reconstruction against the kernel."""

    @pytest.mark.parametrize("name, hair", [("gauss-general", 0.0), ("bp-general", 1e-9)])
    def test_each_identity_forms_its_integrands_once_per_component(self, name, hair,
                                                                   monkeypatch):
        from bcfrac import quadrature_verify as qv

        s, p, patch = _item(name)
        want = _residual(name, s, p, patch)
        real, calls = qv._frac_gauss_terms, []

        def spy(ix, iy, p, wp, lam_fn, l, bounds, k, anchor_hair=0.0):
            calls.append((l, bounds, k, anchor_hair))
            return real(ix, iy, p, wp, lam_fn, l, bounds, k, anchor_hair)

        monkeypatch.setattr(qv, "_frac_gauss_terms", spy)
        got = _residual(name, s, p, patch)
        assert calls == [(l, patch.component_bounds(l), patch.k, hair) for l in (1, 2)]
        assert (got.l1, got.l2) == (want.l1, want.l2)

    def test_boundary_map_reads_the_rectangle_and_the_area_map_its_region(self, monkeypatch):
        # the area map is clamped into its region, one cell inside each edge:
        # beyond it every point reads the value at the nearest end
        from bcfrac import quadrature_verify as qv

        real, reads = qv._trace_derivative_of_map, []

        def spy(plane_map, l, Z, W, p, region):
            reads.append((plane_map, l, region))
            return real(plane_map, l, Z, W, p, region)

        monkeypatch.setattr(qv, "_trace_derivative_of_map", spy)
        s, p, patch = _item("bp-general")
        frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch)
        assert [l for _, l, _ in reads] == [1, 1, 2, 2]
        for (_, l, boundary), (area_map, _, region) in zip(reads[::2], reads[1::2]):
            x0, x1, y0, y1 = patch.component_bounds(l)
            cx, cy = (x1 - x0) / patch.m, (y1 - y0) / patch.m
            assert boundary == ((x0, x1), (y0, y1))
            assert region == ((x0 + cx, x1 - cx), (y0 + cy, y1 - cy))
            (xa, xb), (ya, yb) = region
            xm, ym = (xa + xb) / 2, (ya + yb) / 2
            xs = np.array([xa, x0, (x0 + xa) / 2, xb, x1, xm, xm, xm, xm, xm, xm + cx])
            ys = np.array([ym, ym, ym, ym, ym, ya, y0, yb, (yb + y1) / 2, ym, ym])
            v = area_map(xs, ys)
            assert v[0] == v[1] == v[2] and v[3] == v[4]
            assert v[5] == v[6] and v[7] == v[8]
            assert v[9] != v[10]  # inside the region the map moves


def test_frac_gauss_evaluates_the_multiplier_on_the_area_grid_once_per_component():
    # the area density of non-constant weights holds the divergence term, so
    # exp(lambda) is formed once per grid and shared by both of its terms
    from bcfrac import quadrature_verify as qv

    s, p, patch = _item("gauss-expression")
    assert s.wp.const_values is None and p.sigma.z1 == p.sigma.z2 == 1
    shapes = {1: [], 2: []}

    def spied(l):
        lam_fn = s.lam.component(l)

        def f(x, y):
            shapes[l].append(np.broadcast(x, y).shape)
            return lam_fn.f(x, y)
        return PlaneFunction(f, lam_fn.dx, lam_fn.dy)

    want = frac_gauss_residual(s.F, s.W, p, s.wp, s.lam, patch)
    got = frac_gauss_residual(s.F, s.W, p, s.wp, ProductFunction(spied(1), spied(2)), patch)
    for l in (1, 2):
        x, y, _ = qv._area_nodes(patch.component_bounds(l), patch.m)
        assert shapes[l].count(np.broadcast(x, y).shape) == 1
    assert (got.l1, got.l2) == (want.l1, want.l2)
