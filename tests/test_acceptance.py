"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its pinned tolerance."""

import json
import time
from pathlib import Path

import numpy as np
from scipy.special import gamma

from bcfrac import (
    BicomplexNumber,
    FracParams,
    FracSpec,
    Phi4,
    PlaneFunction,
    ProductFunction,
    Quadrature1D,
    RectDomain,
    Resolution,
    ScalarWeightFn,
    SurfacePatch,
    VerificationSetup,
    WeightPair,
    bc_from_cartesian,
    borel_pompeiu_classical,
    convergence_study,
    factorization_check,
    frac_bp_reconstruct,
    frac_cr_apply,
    frac_gauss_residual,
    inversion_check,
    lambda_for_constant_weights,
    lambda_residual,
    prop_frac_derivative,
    prop_frac_integral,
    tabulate,
)
from bcfrac.hypercomplex import E, E_DAG, ONE
from bcfrac.quadrature_verify import _area_nodes, _trace_integrals, frac_cr_component

RECT = RectDomain(0, 1, 0, 1, 0, 1, 0, 1)
PHI_LINEAR = Phi4.fractal(1, 1, 1, 1)
CLASSICAL = WeightPair.classical()
NO_LAM = ProductFunction.constant(0.0)  # the zero multiplier


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{name}]: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def random_cubic_coefficients(seed):
    """Coefficients (constant term first) of the two component cubics."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=4) * 0.5 + 1j * rng.normal(size=4) * 0.5 for _ in range(2)]


def random_product_field(seed):
    out = []
    for c in random_cubic_coefficients(seed):
        out.append((
            lambda z, c=c: c[0] + c[1] * z + c[2] * z**2 + c[3] * z**3,
            lambda z, c=c: c[1] + 2 * c[2] * z + 3 * c[3] * z**2,
        ))
    (f1, d1), (f2, d2) = out
    return ProductFunction(
        PlaneFunction.from_holomorphic(f1, d1),
        PlaneFunction.from_holomorphic(f2, d2),
    )


def test_criterion_01_bicomplex_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    a, b, c, d = (rng.normal(size=10_000) + 1j * rng.normal(size=10_000) for _ in range(4))
    # idempotent route
    z1, z2 = a - 1j * b, a + 1j * b
    w1, w2 = c - 1j * d, c + 1j * d
    p1, p2 = z1 * w1, z2 * w2
    # cartesian route
    pa, pb = a * c - b * d, a * d + b * c
    q1, q2 = pa - 1j * pb, pa + 1j * pb
    scale = np.abs(q1) + np.abs(q2) + 1.0
    rel = np.max((np.abs(p1 - q1) + np.abs(p2 - q2)) / scale)

    exact = (
        E * E_DAG == BicomplexNumber(0j, 0j)
        and E + E_DAG == ONE
        and BicomplexNumber(0.5 + 0.25j, 3 - 0.75j) * BicomplexNumber(0.5 + 0.25j, 3 - 0.75j).star()
        == BicomplexNumber(0.3125 + 0j, 9.5625 + 0j)
    )
    # round trips on dyadic rationals stay exact
    z = bc_from_cartesian(0.75 - 0.5j, -1.25 + 2j)
    back = z.to_cartesian()
    exact = exact and back == (0.75 - 0.5j, -1.25 + 2j)
    elapsed = time.perf_counter() - t0
    report(1, "bicomplex algebra", rel <= 1e-13 and exact and elapsed < 1.0,
           f"consistency rel err {rel:.2e} <= 1e-13, exact identities {exact}, {elapsed:.2f}s < 1s")


def test_criterion_02_inversion_1d(reflected):
    # the right side is the left side on the reflected line, at -t
    t0 = time.perf_counter()
    weights = {
        "identity": ScalarWeightFn(lambda t: t, lambda t: np.ones_like(np.asarray(t, dtype=float)), 0.0, 1.0),
        "cubic": ScalarWeightFn(lambda t: t + t**3, lambda t: 1 + 3 * t**2, 0.0, 1.0),
    }
    funcs = {"square": lambda t: t**2, "exp": np.exp, "sin": np.sin}
    tpts = np.linspace(0.2, 0.8, 5)
    q = Quadrature1D(n=2048)
    worst = 0.0
    for w in weights.values():
        for f in funcs.values():
            for alpha in (0.25, 0.5, 0.75):
                for sigma in (0.4, 0.7, 1.0):
                    spec = FracSpec(alpha, sigma, w)
                    for (g, p), sign in (((f, spec), 1.0), (reflected(f, spec), -1.0)):
                        u = tabulate(g, p, q)
                        got = prop_frac_derivative(u, p, sign * tpts, q)
                        worst = max(worst, float(np.max(np.abs(got - f(tpts)))))

    # refinement study on a representative parameter set, both sides
    orders = []
    spec = FracSpec(0.5, 0.7, weights["cubic"])
    for (g, p), sign in (((np.sin, spec), 1.0), (reflected(np.sin, spec), -1.0)):
        errs = []
        for n in (512, 1024, 2048):
            qn = Quadrature1D(n=n)
            u = tabulate(g, p, qn)
            got = prop_frac_derivative(u, p, sign * tpts, qn)
            errs.append(np.max(np.abs(got - np.sin(tpts))))
        orders.append(-np.polyfit(np.log2([512, 1024, 2048]), np.log2(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    report(2, "1-d inversion identity",
           worst <= 1e-4 and min(orders) >= 1.0 and elapsed < 30.0,
           f"sup residual {worst:.2e} <= 1e-4 over 108 combos, "
           f"orders {orders[0]:.2f}/{orders[1]:.2f} >= 1, {elapsed:.1f}s < 30s")


def test_criterion_03_closed_forms():
    w_id = ScalarWeightFn(lambda t: t, lambda t: np.ones_like(np.asarray(t, dtype=float)),
                          0.0, 1.0, exponent=1.0)
    alpha, beta, t = 0.25, 1.5, 0.8
    closed = gamma(beta) / gamma(beta + alpha) * t ** (beta + alpha - 1)
    errs = {}
    for scheme, n in (("graded", 32768), ("gauss_jacobi", 256)):
        got = prop_frac_integral(lambda tau: tau ** (beta - 1), FracSpec(alpha, 1.0, w_id),
                                 t, Quadrature1D(n=n, scheme=scheme))
        errs[scheme] = abs(got - closed)
    power_err = max(errs.values())

    # weight-generalized tempered power input, oracle-validated closed form
    from test_fracops1d import brute_force_left_integral

    a2, sg, b2 = 0.5, 0.6, 1.5
    c = (sg - 1) / sg
    phi = lambda u: u + u**3
    dphi = lambda u: 1 + 3 * u**2
    f = lambda tau: np.exp(c * phi(tau)) * phi(tau) ** (b2 - 1)
    t2 = 0.9
    closed2 = (gamma(b2) / (sg**a2 * gamma(b2 + a2))
               * np.exp(c * phi(t2)) * phi(t2) ** (b2 + a2 - 1))
    oracle = brute_force_left_integral(f, a2, sg, phi, dphi, 0.0, t2, n=100_000)
    oracle_err = abs(oracle - closed2)
    w_cubic = ScalarWeightFn(phi, dphi, 0.0, 1.0)
    engine = prop_frac_integral(f, FracSpec(a2, sg, w_cubic), t2, Quadrature1D(n=2048))
    engine_err = abs(engine - closed2)
    report(3, "closed forms at proportion one",
           power_err <= 1e-6 and oracle_err <= 1e-5 and engine_err <= 1e-5,
           f"power rule err {power_err:.2e} <= 1e-6, oracle vs closed {oracle_err:.2e} <= 1e-5, "
           f"engine vs closed {engine_err:.2e} <= 1e-5")


def test_criterion_04_borel_pompeiu_classical(mixed_field, exp_sin_field):
    t0 = time.perf_counter()
    W = BicomplexNumber(0.41 + 0.37j, 0.52 + 0.63j)
    patch = SurfacePatch(RECT, m=32, k=64)
    holo = ProductFunction.from_holomorphic(lambda z: z**2 + 1j * z, lambda z: 2 * z + 1j)
    res_h = borel_pompeiu_classical(holo, W, CLASSICAL, patch).max()
    conj = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
    res_conj = [borel_pompeiu_classical(conj, W, CLASSICAL, patch.with_resolution(m, 64)).max()
                for m in (32, 64, 128)]
    monotone = all(res_conj[i + 1] <= res_conj[i] * 1.5 + 1e-12 for i in range(2))
    # z^2*zbar: the subtracted area integrand is a polynomial, exact at every m
    res_mixed = [
        borel_pompeiu_classical(mixed_field, W, CLASSICAL, patch.with_resolution(m, 64)).max()
        for m in (32, 64, 128)]
    res_smooth = [
        borel_pompeiu_classical(exp_sin_field, W, CLASSICAL, patch.with_resolution(m, 64)).max()
        for m in (32, 64, 128)]
    strict = res_smooth[0] > res_smooth[1] > res_smooth[2]
    elapsed = time.perf_counter() - t0
    report(4, "classical reconstruction",
           res_h <= 1e-8 and res_conj[-1] <= 1e-3 and monotone and max(res_mixed) <= 1e-12
           and strict and res_smooth[-1] <= 1e-4 and elapsed < 60.0,
           f"holomorphic {res_h:.2e} <= 1e-8, conjugate at m=128 "
           f"{res_conj[-1]:.2e} <= 1e-3, z^2*zbar {max(res_mixed):.2e} <= 1e-12 at m=32..128, "
           f"exp(x)sin(3y) at m=128 {res_smooth[-1]:.2e} <= 1e-4, "
           f"refinement monotone {monotone and strict}, {elapsed:.1f}s < 60s")


def test_criterion_05_weighted_gauss():
    from bcfrac import gauss_residual

    patch = SurfacePatch(RECT, m=64, k=64)
    F = ProductFunction.from_holomorphic(lambda z: z**3 - 2 * z, lambda z: 3 * z**2 - 2)
    const_res = gauss_residual(F, WeightPair.constant(1 + 1j, 1 - 1j), patch).max()
    g = PlaneFunction(f=lambda x, y: 1 + x**2 + 0j, dx=lambda x, y: 2 * x + 0j,
                      dy=lambda x, y: 0j * x)
    var_res = gauss_residual(F, WeightPair.scaled_classical(g), patch).max()
    report(5, "weighted divergence identity",
           const_res <= 1e-8 and var_res <= 1e-6,
           f"constant weights {const_res:.2e} <= 1e-8, "
           f"orthogonal varying weights {var_res:.2e} <= 1e-6")


def test_criterion_06_trace_inversion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    fields = [random_product_field(s) for s in (1, 2, 3)]
    p = FracParams(RECT, (0.5,) * 4, (0.7,) * 4, PHI_LINEAR, Quadrature1D(n=1024))
    worst = 0.0
    pairs = [(RECT.point(*rng.uniform(0.15, 0.85, 4)), RECT.point(*rng.uniform(0.15, 0.85, 4)))
             for _ in range(10)]
    for i, (Z, W) in enumerate(pairs):
        F = fields[i % 3]
        worst = max(worst, inversion_check(F, W, p, Z).max())

    setup = VerificationSetup(F=fields[0], wp=CLASSICAL, params=p, lam=NO_LAM,
                              W=pairs[0][1], Z=pairs[0][0],
                              patch=SurfacePatch.inside(RECT, m=8, k=8))
    reports = convergence_study("trace-inversion", setup, Resolution(8, 8, 256), 3)
    order = reports[0].order
    elapsed = time.perf_counter() - t0
    report(6, "trace composition identity",
           worst <= 1e-3 and order >= 1.0 and elapsed < 300.0,
           f"max residual {worst:.2e} <= 1e-3 over 10 pairs x 3 fields at n=1024, "
           f"order {order:.2f} >= 1, {elapsed:.0f}s < 300s")


def test_criterion_07_factorization():
    W = RECT.point(0.45, 0.4, 0.55, 0.6)
    Z = RECT.point(0.5, 0.55, 0.45, 0.5)
    F = random_product_field(7)
    p = FracParams(RECT, (0.5,) * 4, (0.7, 0, 0.7, 0), PHI_LINEAR, Quadrature1D(n=512))
    lam = lambda_for_constant_weights(CLASSICAL, p)
    probes = [RECT.point(*f) for f in np.random.default_rng(1).uniform(0.1, 0.9, (8, 4))]
    lam_res = lambda_residual(lam, CLASSICAL, p, probes)
    fact_res = factorization_check(F, W, p, CLASSICAL, lam, Z).max()
    p1 = FracParams(RECT, (0.5,) * 4, (1, 0, 1, 0), PHI_LINEAR, Quadrature1D(n=512))
    fact_res_1 = factorization_check(F, W, p1, CLASSICAL, NO_LAM, Z).max()
    # both sides differentiate with the same stencil, so what is left is the
    # multiplier's PDE residual times |I F| plus rounding: measured 3.5e-13
    # and 6.0e-13
    report(7, "exponential factorization",
           lam_res <= 1e-12 and fact_res <= 1e-11 and fact_res_1 <= 1e-11,
           f"multiplier residual {lam_res:.2e} <= 1e-12, factorization {fact_res:.2e} <= 1e-11, "
           f"degenerate proportion {fact_res_1:.2e} <= 1e-11")


def test_criterion_07_surrogate_operator_agrees_with_direct_rule():
    # the CR operator on the per-axis surrogates, as the identities evaluate
    # it, against frac_cr_apply on the direct rule; measured 3.4e-13 and
    # 1.2e-13 per component
    W = RECT.point(0.45, 0.4, 0.55, 0.6)
    Z = RECT.point(0.5, 0.55, 0.45, 0.5)
    F = random_product_field(7)
    p = FracParams(RECT, (0.5,) * 4, (0.7, 0, 0.7, 0), PHI_LINEAR, Quadrature1D(n=512))
    want = frac_cr_apply(F, W, p, CLASSICAL, Z)
    gap = max(
        abs(frac_cr_component(*_trace_integrals(F, W, p, l), p, CLASSICAL, l, z.real, z.imag)[0]
            - w)
        for l, z, w in ((1, Z.z1, want.z1), (2, Z.z2, want.z2)))
    report(7, "surrogate and direct-rule CR operators agree", gap <= 1e-11,
           f"gap {gap:.2e} <= 1e-11")


def test_criterion_08_fractional_gauss(sigma_one_cr, direct_integrals):
    t0 = time.perf_counter()
    W = RECT.point(0.45, 0.4, 0.55, 0.6)
    F = random_product_field(8)
    patch = SurfacePatch.inside(RECT, m=32, k=32)

    # the area integrand at proportion one against its closed form on the
    # patch's area nodes; the bound is twice the measured n = 512 error 2.69e-6
    cf_err = []
    for n in (256, 512, 1024):
        p1 = FracParams(RECT, (0.5,) * 4, (1, 0, 1, 0), PHI_LINEAR, Quadrature1D(n=n))
        err = 0.0
        for l, (coeffs, w) in enumerate(zip(random_cubic_coefficients(8), (W.z1, W.z2)), 1):
            x, y, _ = _area_nodes(patch.component_bounds(l), patch.m)
            got = frac_cr_component(*direct_integrals(F, W, p1, l), p1, CLASSICAL, l, x, y)
            err = max(err, np.max(np.abs(got - sigma_one_cr(coeffs, w, 0.5, x, y))))
        cf_err.append(err)
    cf_order = -np.polyfit(np.arange(3), np.log2(cf_err), 1)[0]

    res = []
    for m, k, n in ((8, 8, 128), (16, 16, 256), (32, 32, 512)):
        p = FracParams(RECT, (0.5,) * 4, (0.7, 0, 0.7, 0), PHI_LINEAR, Quadrature1D(n=n))
        lam = lambda_for_constant_weights(CLASSICAL, p)
        res.append(frac_gauss_residual(F, W, p, CLASSICAL, lam,
                                       patch.with_resolution(m, k)).max())
    order = -np.polyfit(np.arange(3), np.log2(np.maximum(res, 1e-300)), 1)[0]
    monotone = res[0] > res[1] > res[2]
    elapsed = time.perf_counter() - t0
    report(8, "proportional divergence identity",
           cf_err[1] <= 5e-6 and cf_order >= 1.5
           and monotone and order >= 1.0 and elapsed < 600.0,
           f"proportion-one area field vs closed form {cf_err[1]:.2e} <= 5e-6 "
           f"at n=512, order {cf_order:.2f} >= 1.5, general preset monotone {monotone} "
           f"order {order:.2f} >= 1, {elapsed:.0f}s < 600s")


def test_criterion_09_fractional_reconstruction():
    t0 = time.perf_counter()
    W = RECT.point(0.45, 0.4, 0.55, 0.6)
    Z = RECT.point(0.5, 0.55, 0.45, 0.5)
    patch = SurfacePatch.inside(RECT, m=32, k=32)
    pdeg = FracParams(RECT, (1 - 1e-8,) * 4, (1, 0, 1, 0), PHI_LINEAR, Quadrature1D(n=256))

    F = ProductFunction.from_holomorphic(lambda z: z**2, lambda z: 2 * z)
    res_deg = frac_bp_reconstruct(F, W, Z, pdeg, CLASSICAL, NO_LAM, patch)

    affine = ProductFunction.from_holomorphic(
        lambda z: 0.3 + 0.2j + (1.1 - 0.4j) * z, lambda z: (1.1 - 0.4j) * np.ones_like(z))
    certificate = max(
        frac_cr_apply(affine, W, pdeg, CLASSICAL, P).mod_k().max()
        for P in (Z, RECT.point(0.3, 0.6, 0.7, 0.4)))
    res_cauchy = frac_bp_reconstruct(affine, W, Z, pdeg, CLASSICAL, NO_LAM, patch,
                                     include_area=False)
    elapsed = time.perf_counter() - t0
    report(9, "proportional reconstruction identity",
           res_deg.max() <= 1e-2 and certificate <= 1e-6
           and res_cauchy.max() <= 1e-6 and elapsed < 1200.0,
           f"degenerate preset {res_deg.max():.2e} <= 1e-2 at (32,32,256), "
           f"area certificate {certificate:.2e} <= 1e-6, "
           f"boundary-only preset {res_cauchy.max():.2e} <= 1e-6, {elapsed:.0f}s < 1200s")


def test_criterion_10_cli_determinism(tmp_path):
    from bcfrac.cli import main

    cfg = {
        "experiments": [
            {"name": "det", "identity": "gauss-weighted",
             "domain": [0, 1, 0, 1, 0, 1, 0, 1], "weights": "classical",
             "phi": "linear", "alpha": [0.5] * 4, "sigma": [1, 0, 1, 0],
             "field": "conjugate", "m": 16, "k": 16, "n": 64,
             "tolerance": 1e-6, "levels": 2},
        ]
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0

    def data_columns(path):
        return ["," .join(line.split(",")[:-1]) for line in Path(path).read_text().splitlines()]

    identical = data_columns(tmp_path / "r1" / "det.csv") == data_columns(tmp_path / "r2" / "det.csv")

    cfg["experiments"][0]["tolerance"] = 1e-30
    cfg_path.write_text(json.dumps(cfg))
    failing_exit = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r3")])
    report(10, "runner determinism and exit codes",
           identical and failing_exit == 1,
           f"byte-identical data columns {identical}, failing tolerance exit {failing_exit} == 1")
