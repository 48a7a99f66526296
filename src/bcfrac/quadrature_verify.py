"""Contour and surface quadrature plus residual checks for every identity.

Integration conventions, fixed once here and asserted by tests:

* contour integrals run counterclockwise with composite Gauss-Legendre
  panels per edge;
* ``surface_integral`` computes the componentwise two-form ``dz ^ dzbar``,
  which equals ``-2i dx dy`` per component;
* the weighted Gauss and Cauchy-Pompeiu style identities balance against
  the plain componentwise area element ``dx dy`` (their scalar building
  block is stated that way), so every weighted residual below integrates
  areas with ``dx dy`` while the classical reconstruction keeps the
  ``dz ^ dzbar`` form it is stated in.

Singular area kernels ``1/(Z - W)`` are handled by excising a disc of
radius ``excision_factor * max_side / m`` around the pole (the excised mass
is absolutely integrable and symmetric to leading order); the deep
reconstruction additionally subtracts the kernel's locally constant part
and integrates it exactly in polar wedges, which keeps the map smooth in
the reconstruction point so that trace derivatives can act on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import WOnBoundaryError
from .fracops1d import _read_only, refined_rule
from .frac_cr_bicomplex import (
    FracParams,
    LambdaWeights,
    RectDomain,
    _axis_coord,
    _axis_partial_batched,
    axis_integral,
    lambda_residual,
    remainder_R,
    trace_sum,
)
from .hypercomplex import BicomplexNumber, HyperbolicNumber, bc_invert
from .weighted_cr import CauchyKernel, ProductFunction, WeightPair


@dataclass(frozen=True)
class SurfacePatch:
    """Per-component rectangles with boundary and area resolutions.

    ``m`` is the panel count per area axis, ``k`` the panel count per
    boundary edge; each panel carries a fixed small Gauss rule.
    """

    bounds1: tuple  # (x0, x1, y0, y1) in the first component plane
    bounds2: tuple
    m: int = 32
    k: int = 32

    def __post_init__(self):
        for x0, x1, y0, y1 in (self.bounds1, self.bounds2):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("patch bounds must be increasing")
        if self.m < 1 or self.k < 1:
            raise ValueError("resolutions must be positive")

    @classmethod
    def inside(cls, rect: RectDomain, margin: float = 0.15, m: int = 32, k: int = 32) -> "SurfacePatch":
        def shrink(lo, hi):
            pad = (hi - lo) * margin
            return lo + pad, hi - pad

        x0, x1 = shrink(rect.a1, rect.b1)
        y0, y1 = shrink(rect.c1, rect.d1)
        u0, u1 = shrink(rect.a2, rect.b2)
        v0, v1 = shrink(rect.c2, rect.d2)
        return cls((x0, x1, y0, y1), (u0, u1, v0, v1), m=m, k=k)

    def component_bounds(self, l: int) -> tuple:
        return self.bounds1 if l == 1 else self.bounds2

    def with_resolution(self, m: int, k: int) -> "SurfacePatch":
        return replace(self, m=m, k=k)


@dataclass
class ResidualReport:
    """One verification record: identity, resolutions, residual components,
    fitted convergence order (when part of a study), wall time."""

    identity: str
    m: int
    k: int
    n: int
    res_l1: float
    res_l2: float
    order: Optional[float] = None
    seconds: float = 0.0

    CSV_HEADER = "identity,m,k,n,res_l1,res_l2,order,seconds"

    def residual(self) -> HyperbolicNumber:
        return HyperbolicNumber(self.res_l1, self.res_l2)

    def max_residual(self) -> float:
        """Larger residual component; NaN when either component is NaN."""
        return float(np.maximum(self.res_l1, self.res_l2))

    def csv_row(self, include_seconds: bool = True) -> str:
        order = "" if self.order is None else f"{self.order:.6f}"
        row = (
            f"{self.identity},{self.m},{self.k},{self.n},"
            f"{self.res_l1:.12e},{self.res_l2:.12e},{order}"
        )
        return row + (f",{self.seconds:.3f}" if include_seconds else ",")


# ----------------------------------------------------------------------
# quadrature node construction


@lru_cache(maxsize=32)
def _gl_reference(pts: int):
    x, w = np.polynomial.legendre.leggauss(pts)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)  # on [0, 1]


@lru_cache(maxsize=256)
def _panel_rule(lo: float, hi: float, panels: int, pts: int):
    xr, wr = _gl_reference(pts)
    edges = np.linspace(lo, hi, panels + 1)
    width = (hi - lo) / panels
    nodes = (edges[:-1][:, None] + width * xr[None, :]).ravel()
    wts = np.broadcast_to(width * wr[None, :], (panels, pts)).ravel().copy()
    return _read_only(nodes, wts)


@lru_cache(maxsize=128)
def _boundary_nodes(bounds: tuple, k: int, pts: int = 4):
    """Counterclockwise boundary nodes with tangent-weighted measures.

    Returns ``(z, wx, wy)`` where ``sum(g(z) * (wx or wy))`` integrates
    ``g dx`` or ``g dy`` along the closed contour.
    """
    x0, x1, y0, y1 = bounds
    xs, wxs = _panel_rule(x0, x1, k, pts)
    ys, wys = _panel_rule(y0, y1, k, pts)
    z = np.concatenate([
        xs + 1j * y0,          # bottom, left to right
        x1 + 1j * ys,          # right, bottom to top
        xs[::-1] + 1j * y1,    # top, right to left
        x0 + 1j * ys[::-1],    # left, top to bottom
    ])
    zero_x, zero_y = np.zeros_like(xs), np.zeros_like(ys)
    wx = np.concatenate([wxs, zero_y, -wxs[::-1], zero_y])
    wy = np.concatenate([zero_x, wys, zero_x, -wys[::-1]])
    return _read_only(z, wx, wy)


@lru_cache(maxsize=128)
def _area_nodes(bounds: tuple, m: int, pts: int = 2):
    """Tensor Gauss-Legendre nodes ``(x, y, w)`` over the rectangle."""
    x0, x1, y0, y1 = bounds
    xs, wx = _panel_rule(x0, x1, m, pts)
    ys, wy = _panel_rule(y0, y1, m, pts)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wx, wy)
    return _read_only(X.ravel(), Y.ravel(), W.ravel())


# ----------------------------------------------------------------------
# elementary integrals


def contour_integral(F: ProductFunction, patch: SurfacePatch, measure="dz") -> BicomplexNumber:
    """Componentwise contour integral of ``F`` against ``dz`` or against the
    weighted measure ``theta dy - phi_w dx`` (pass the weight pair)."""
    comps = []
    for l in (1, 2):
        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        vals = F.component(l).f(z.real, z.imag)
        if isinstance(measure, WeightPair):
            th_fn, ph_fn = measure.component(l)
            wgt = th_fn.f(z.real, z.imag) * wy - ph_fn.f(z.real, z.imag) * wx
        elif measure == "dz":
            wgt = wx + 1j * wy
        else:
            raise ValueError("measure must be 'dz' or a WeightPair")
        comps.append(np.sum(vals * wgt))
    return BicomplexNumber(comps[0], comps[1])


def surface_integral(G: ProductFunction, patch: SurfacePatch) -> BicomplexNumber:
    """Componentwise ``integral g dz ^ dzbar = -2i * double integral g dx dy``."""
    comps = []
    for l in (1, 2):
        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        comps.append(-2j * np.sum(G.component(l).f(x, y) * w))
    return BicomplexNumber(comps[0], comps[1])


# ----------------------------------------------------------------------
# classical identities


def gauss_residual(F: ProductFunction, wp: WeightPair, patch: SurfacePatch) -> ResidualReport:
    """Weighted Gauss identity: area integral of the weighted derivative plus
    divergence terms against ``dx dy`` versus the weighted contour integral."""
    t0 = time.perf_counter()
    res = []
    for l in (1, 2):
        th_fn, ph_fn = wp.component(l)
        fl = F.component(l)
        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        th, ph = th_fn.f(x, y), ph_fn.f(x, y)
        grad_w = th_fn.dx(x, y) + ph_fn.dy(x, y)
        fv = fl.f(x, y)
        integrand = th * fl.dx(x, y) + ph * fl.dy(x, y) + (np.real(grad_w) + 1j * np.imag(grad_w)) * fv
        area = np.sum(integrand * w)
        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        bnd = np.sum(fl.f(z.real, z.imag) * (th_fn.f(z.real, z.imag) * wy - ph_fn.f(z.real, z.imag) * wx))
        res.append(abs(area - bnd))
    return ResidualReport("gauss-weighted", patch.m, patch.k, 0, res[0], res[1],
                          seconds=time.perf_counter() - t0)


def borel_pompeiu_classical(
    F: ProductFunction,
    W: BicomplexNumber,
    patch: SurfacePatch,
    excision_factor: float = 2.0,
):
    """Classical componentwise reconstruction from boundary values plus the
    area integral of the anti-holomorphic derivative.

    Returns the reconstructed value and a residual report against ``F(W)``.
    The area kernel's pole at the reconstruction point is excised on a disc
    tied to the mesh width, with the kernel's locally constant part
    subtracted first and integrated exactly in polar wedges (a point-masked
    excision alone stalls: its near-ring error is scale invariant).
    """
    t0 = time.perf_counter()
    comps, res = [], []
    for l, wz in ((1, W.z1), (2, W.z2)):
        x0, x1, y0, y1 = patch.component_bounds(l)
        eps = excision_factor * max(x1 - x0, y1 - y0) / patch.m
        wz = complex(wz)
        dist_to_edge = min(wz.real - x0, x1 - wz.real, wz.imag - y0, y1 - wz.imag)
        if dist_to_edge <= eps:
            raise WOnBoundaryError("reconstruction point too close to the contour")
        fl = F.component(l)
        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        bnd = np.sum(fl.f(z.real, z.imag) * (wx + 1j * wy) / (z - wz)) / (2j * np.pi)
        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        zz = x + 1j * y
        keep = np.abs(zz - wz) >= eps
        fbar_w = fl.dbar(wz.real, wz.imag)
        smooth_part = np.sum(
            (fl.dbar(x[keep], y[keep]) - fbar_w) * w[keep] / (zz[keep] - wz)
        )
        exact_pole = _wedge_recip_area(1.0, 0.0, patch.component_bounds(l), wz)
        area = -(smooth_part + fbar_w * exact_pole) / np.pi
        val = bnd + area
        comps.append(val)
        res.append(abs(val - fl.f(wz.real, wz.imag)))
    report = ResidualReport("borel-pompeiu", patch.m, patch.k, 0, res[0], res[1],
                            seconds=time.perf_counter() - t0)
    return BicomplexNumber(comps[0], comps[1]), report


# ----------------------------------------------------------------------
# batched component fields of the trace operators


def _component_axes(l: int) -> tuple:
    return (0, 1) if l == 1 else (2, 3)


def trace_component(F, W, p: FracParams, side: str, l: int, xs, ys):
    """Component of the trace integral at paired plane points (batched)."""
    ax_x, ax_y = _component_axes(l)
    return axis_integral(F, W, p, side, ax_x, xs) + axis_integral(F, W, p, side, ax_y, ys)


def frac_cr_component(F, W, p: FracParams, wp: WeightPair, side: str, l: int, xs, ys):
    """Component of the proportional weighted CR operator at paired points."""
    ax_x, ax_y = _component_axes(l)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    g = trace_component(F, W, p, side, l, xs, ys)
    dgx = _axis_partial_batched(F, W, p, side, ax_x, xs)
    dgy = _axis_partial_batched(F, W, p, side, ax_y, ys)
    th_fn, ph_fn = wp.component(l)
    comp_phi = p.phi.component(l)
    dphi_l = np.real(comp_phi.dx(xs, ys) + comp_phi.dy(xs, ys))
    sig = p.sigma.z1 if l == 1 else p.sigma.z2
    cr = th_fn.f(xs, ys) * dgx + ph_fn.f(xs, ys) * dgy
    return (1.0 - sig) * g + sig * cr / dphi_l


# ----------------------------------------------------------------------
# proportional fractional Gauss identity


def _patch_probes(patch: SurfacePatch) -> list:
    pts = []
    for fx, fy in ((0.2, 0.3), (0.7, 0.6), (0.5, 0.5)):
        x0, x1, y0, y1 = patch.bounds1
        u0, u1, v0, v1 = patch.bounds2
        pts.append(
            BicomplexNumber(
                complex(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)),
                complex(u0 + fy * (u1 - u0), v0 + fx * (v1 - v0)),
            )
        )
    return pts


def frac_gauss_residual(
    F,
    W: BicomplexNumber,
    p: FracParams,
    wp: WeightPair,
    lam: LambdaWeights,
    patch: SurfacePatch,
    check_lambda: bool = True,
) -> ResidualReport:
    """Gauss identity for the exponentially weighted trace integral.

    Boundary side: contour integral of ``exp(lambda) * (I F)`` against the
    weighted measure.  Area side: ``exp(lambda)`` times the trace-scaled
    proportional CR operator plus the divergence terms, against ``dx dy``.
    """
    t0 = time.perf_counter()
    if check_lambda:
        lres = lambda_residual(lam, wp, p, _patch_probes(patch))
        if lres > 1e-8:
            raise ValueError(f"multiplier PDE residual {lres:.3e} exceeds 1e-8")
    sigma_inv = bc_invert(p.sigma)
    res = []
    for l in (1, 2):
        th_fn, ph_fn = wp.component(l)
        lam_fn = lam.component(l)
        sig_inv = sigma_inv.z1 if l == 1 else sigma_inv.z2

        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        g_b = trace_component(F, W, p, "left", l, z.real, z.imag)
        elam_b = np.exp(lam_fn.f(z.real, z.imag))
        bnd = np.sum(
            elam_b * g_b * (th_fn.f(z.real, z.imag) * wy - ph_fn.f(z.real, z.imag) * wx)
        )

        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        comp_phi = p.phi.component(l)
        dphi_l = np.real(comp_phi.dx(x, y) + comp_phi.dy(x, y))
        h_field = dphi_l * sig_inv * frac_cr_component(F, W, p, wp, "left", l, x, y)
        g_a = trace_component(F, W, p, "left", l, x, y)
        elam_a = np.exp(lam_fn.f(x, y))
        grad_w = th_fn.dx(x, y) + ph_fn.dy(x, y)
        div_term = (np.real(grad_w) + 1j * np.imag(grad_w)) * elam_a * g_a
        area = np.sum((elam_a * h_field + div_term) * w)
        res.append(abs(bnd - area))
    return ResidualReport("frac-gauss", patch.m, patch.k, p.quadrature.n, res[0], res[1],
                          seconds=time.perf_counter() - t0)


def bg_gauss_residual(F, W, p: FracParams, wp: WeightPair, patch: SurfacePatch) -> ResidualReport:
    """Independent degenerate-proportion path: the plain weighted Gauss
    identity applied to the trace integral, with no proportional machinery.
    Valid when the composite proportion is one and the multiplier vanishes.
    """
    t0 = time.perf_counter()
    if not (p.sigma.z1 == 1 and p.sigma.z2 == 1):
        raise ValueError("reference path requires composite proportion one")
    res = []
    for l in (1, 2):
        th_fn, ph_fn = wp.component(l)
        ax_x, ax_y = _component_axes(l)

        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        g_b = trace_component(F, W, p, "left", l, z.real, z.imag)
        bnd = np.sum(g_b * (th_fn.f(z.real, z.imag) * wy - ph_fn.f(z.real, z.imag) * wx))

        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        dgx = _axis_partial_batched(F, W, p, "left", ax_x, x)
        dgy = _axis_partial_batched(F, W, p, "left", ax_y, y)
        cr = th_fn.f(x, y) * dgx + ph_fn.f(x, y) * dgy
        g_a = trace_component(F, W, p, "left", l, x, y)
        grad_w = th_fn.dx(x, y) + ph_fn.dy(x, y)
        area = np.sum((cr + (np.real(grad_w) + 1j * np.imag(grad_w)) * g_a) * w)
        res.append(abs(bnd - area))
    return ResidualReport("frac-gauss-reference", patch.m, patch.k, p.quadrature.n,
                          res[0], res[1], seconds=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# proportional fractional reconstruction (the deep identity)


def _wedge_recip_area(a: complex, b: complex, bounds: tuple, z, ntheta: int = 24):
    """Area integral of ``1 / (a*(v-z) + b*conj(v-z))`` over the rectangle by
    polar wedges around the interior pole: the radial Jacobian cancels the
    pole exactly, leaving one smooth angular integral per corner wedge.

    ``z`` is a point or an array of points (each strictly inside); the
    angular nodes broadcast against it, one integral per point, and a scalar
    ``z`` gives a scalar."""
    x0, x1, y0, y1 = bounds
    z = np.asarray(z, dtype=complex)[..., None]
    zx, zy = z.real, z.imag
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    angles = [np.angle(c - z) for c in corners]
    # wedges in order: bottom, right, top, left (counterclockwise sweep)
    spans = [
        (angles[0], angles[1], lambda th: (y0 - zy) / np.sin(th)),
        (angles[1], angles[2], lambda th: (x1 - zx) / np.cos(th)),
        (angles[2], angles[3], lambda th: (y1 - zy) / np.sin(th)),
        (angles[3], angles[0] + 2.0 * np.pi, lambda th: (x0 - zx) / np.cos(th)),
    ]
    xr, wr = _gl_reference(ntheta)
    total = 0.0 + 0.0j
    for th0, th1, radius in spans:
        th = th0 + (th1 - th0) * xr
        vals = radius(th) / (a * np.exp(1j * th) + b * np.exp(-1j * th))
        total += (th1 - th0)[..., 0] * np.sum(wr * vals, axis=-1)
    return total[()]


def _pole_along_trace(a: complex, b: complex, v: np.ndarray, fixed: float, horizontal: bool):
    """Location and width of a kernel pole seen from a trace line.

    The kernel denominator ``a*(z'-v) + b*conj(z'-v)`` restricted to a
    horizontal or vertical line is affine in the line parameter; its complex
    root gives the nearest approach (real part) and the miss distance
    (imaginary part magnitude)."""
    if horizontal:
        root = v.real - 1j * (a - b) / (a + b) * (fixed - v.imag)
    else:
        root = v.imag + 1j * (a + b) / (a - b) * (fixed - v.real)
    return np.real(root), np.abs(np.imag(root))


def _nearest_pole_clusters(a, b, v_nodes, fixed, horizontal, lo, hi, kmax: int = 4):
    """Refinement targets for a trace integral of a discrete kernel sum: the
    few kernel points whose poles come closest to the integration segment."""
    centers, scales = _pole_along_trace(a, b, v_nodes, fixed, horizontal)
    pad = 0.1 * (hi - lo)
    mask = (centers >= lo - pad) & (centers <= hi + pad)
    if not np.any(mask):
        return np.array([0.5 * (lo + hi)]), np.array([hi - lo])
    idx = np.argsort(np.where(mask, scales, np.inf))[:kmax]
    return centers[idx], scales[idx]


def _trace_derivative_of_map(
    line_map: Callable,
    l: int,
    Z,
    W,
    p: FracParams,
    crossings: dict,
    per_octave: int = 8,
):
    """Apply the two-direction trace derivative (in the real components of
    ``Z``, with weight restrictions anchored through ``W``) to a scalar
    field ``line_map(xs, ys)`` on one component plane.

    ``crossings`` maps ``"x"``/``"y"`` to ``(center, scale)`` pairs marking
    sharp features of the field along that trace direction (quadrature nodes
    are clustered there).  Differentiating the discretized field directly,
    instead of pushing the derivative under the discretization, keeps the
    finite differences acting on one fixed smooth function; the difference
    step is widened beyond the default so that residual quadrature noise is
    not amplified.
    """
    ax_x, ax_y = _component_axes(l)
    x_c, y_c = _axis_coord(Z, ax_x), _axis_coord(Z, ax_y)
    total = 0.0 + 0.0j
    for axis, coord, fixed, key in (
        (ax_x, x_c, y_c, "x"),
        (ax_y, y_c, x_c, "y"),
    ):
        sig = p.sigma_vec[axis]
        if key == "x":
            line = lambda t: line_map(t, np.full_like(np.asarray(t, dtype=float), fixed))
        else:
            line = lambda t: line_map(np.full_like(np.asarray(t, dtype=float), fixed), t)
        if sig == 0.0:
            total += line(np.array([coord]))[0]
            continue
        spec = p.axis_spec(axis, W, order=p.alpha[axis])  # inner integral order
        lo, hi = p.rect.axis_interval(axis)
        h = max(p.fd_for_axis(axis), 5e-3 * (hi - lo))
        sm, sp = max(coord - h, lo), min(coord + h, hi)
        centers, scales = crossings.get(key, (np.array([coord]), np.array([hi - lo])))
        i_vals = []
        for s in (coord, sm, sp):
            tau, wts = refined_rule(spec, "left", s, p.quadrature, centers, scales,
                                    per_octave=per_octave)
            i_vals.append(np.sum(line(tau[0]) * wts[0]))
        d_part = (i_vals[2] - i_vals[1]) / (sp - sm)
        total += (1.0 - sig) * i_vals[0] + sig * d_part / spec.weight.dphi(np.asarray(coord))
    return total


def frac_bp_reconstruct(
    F,
    W: BicomplexNumber,
    Z: BicomplexNumber,
    p: FracParams,
    wp: WeightPair,
    lam: LambdaWeights,
    patch: SurfacePatch,
    include_area: bool = True,
    check_lambda: bool = True,
):
    """Reconstruction of the trace sum of ``F`` through the deep identity:
    boundary integral of the derived kernel against the trace integral,
    minus the remainder, minus the trace derivative of the area integral of
    the proportional CR image.

    Restricted to constant weight pairs (the kernel must be constructible).
    The surface is always the full rectangle, whatever inset the supplied
    patch carries (only its resolutions are used): the trace derivatives
    integrate from the rectangle's corners, and the reconstruction identity
    they are applied to holds on the surface only.  Returns the
    reconstructed bicomplex value and a residual report against the direct
    trace sum.
    """
    t0 = time.perf_counter()
    kernel = CauchyKernel(wp)
    rect = p.rect
    patch = SurfacePatch(
        (rect.a1, rect.b1, rect.c1, rect.d1),
        (rect.a2, rect.b2, rect.c2, rect.d2),
        m=patch.m,
        k=patch.k,
    )
    if check_lambda:
        lres = lambda_residual(lam, wp, p, _patch_probes(patch))
        if lres > 1e-8:
            raise ValueError(f"multiplier PDE residual {lres:.3e} exceeds 1e-8")
    c_norm = kernel.normalization()
    sigma_inv = bc_invert(p.sigma)
    rem = remainder_R(F, W, p, Z)
    tsum = trace_sum(F, W, Z)

    comps, res = [], []
    for l in (1, 2):
        th, ph = kernel.pairs[l - 1]
        a_map, b_map = kernel._maps[l - 1]
        lam_fn = lam.component(l)
        sig_inv = sigma_inv.z1 if l == 1 else sigma_inv.z2
        cinv = 1.0 / (c_norm.z1 if l == 1 else c_norm.z2)
        rem_l = rem.z1 if l == 1 else rem.z2
        ts_l = tsum.z1 if l == 1 else tsum.z2
        ax_x, ax_y = _component_axes(l)
        x_c, y_c = _axis_coord(Z, ax_x), _axis_coord(Z, ax_y)

        z_b, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        # evaluate the trace integral a hair inside the anchor edges: the
        # contour integral sees the one-sided limit of the integrand there,
        # not the exactly-zero anchor value of near-degenerate orders
        nu_x = 1e-9 * (p.rect.axis_interval(ax_x)[1] - p.rect.axis_interval(ax_x)[0])
        nu_y = 1e-9 * (p.rect.axis_interval(ax_y)[1] - p.rect.axis_interval(ax_y)[0])
        gx = np.maximum(z_b.real, p.rect.axis_interval(ax_x)[0] + nu_x)
        gy = np.maximum(z_b.imag, p.rect.axis_interval(ax_y)[0] + nu_y)
        g_b = trace_component(F, W, p, "left", l, gx, gy)
        coef = (th * wy - ph * wx) * g_b * np.exp(lam_fn.f(z_b.real, z_b.imag))

        def boundary_map(xs, ys):
            zp, inv = np.unique(np.asarray(xs, dtype=float) + 1j * np.asarray(ys, dtype=float),
                                return_inverse=True)
            sums = kernel.sums(l, z_b, coef, zp)
            return (np.exp(-lam_fn.f(zp.real, zp.imag)) * sums)[inv]

        lo_x, hi_x = p.rect.axis_interval(ax_x)
        lo_y, hi_y = p.rect.axis_interval(ax_y)
        crossings = {
            "x": _nearest_pole_clusters(a_map, b_map, z_b, y_c, True, lo_x, x_c),
            "y": _nearest_pole_clusters(a_map, b_map, z_b, x_c, False, lo_y, y_c),
        }
        bnd = _trace_derivative_of_map(boundary_map, l, Z, W, p, crossings)

        area_d = 0.0 + 0.0j
        if include_area:
            area_map = _area_map_builder(l, F, W, p, kernel, lam, patch, sig_inv)
            x0, x1, y0, y1 = patch.component_bounds(l)
            cell = max(x1 - x0, y1 - y0) / patch.m
            area_crossings = {
                "x": (np.array([x0, x1]), np.array([cell / 2, cell / 2])),
                "y": (np.array([y0, y1]), np.array([cell / 2, cell / 2])),
            }
            area_d = _trace_derivative_of_map(area_map, l, Z, W, p, area_crossings)

        val = cinv * (bnd - area_d) - rem_l
        comps.append(val)
        res.append(abs(val - ts_l))

    report = ResidualReport("frac-borel-pompeiu", patch.m, patch.k, p.quadrature.n,
                            res[0], res[1], seconds=time.perf_counter() - t0)
    return BicomplexNumber(comps[0], comps[1]), report


def _area_map_builder(l, F, W, p: FracParams, kernel: CauchyKernel,
                      lam: LambdaWeights, patch: SurfacePatch, sig_inv):
    """Build the area integral of ``exp(lambda(V) - lambda(z)) * E(V, z) *
    Dphi(V) * sigma^{-1} * (proportional CR of F)(V, W)`` over the patch,
    against ``dx dy``, as a function of the trace point ``z``.

    The proportional CR field is precomputed once on the area nodes; each
    evaluation is then a kernel-weighted sum with the locally constant part
    subtracted and integrated exactly in polar wedges, so the map stays
    smooth inside the patch where the trace derivative differences it.
    """
    bounds = patch.component_bounds(l)
    lam_fn = lam.component(l)
    a_map, b_map = kernel._maps[l - 1]
    wp = kernel.wp

    x_a, y_a, w_a = _area_nodes(bounds, patch.m)
    v_nodes = x_a + 1j * y_a
    comp_phi = p.phi.component(l)
    dphi_l = np.real(comp_phi.dx(x_a, y_a) + comp_phi.dy(x_a, y_a))
    h_field = (
        np.exp(lam_fn.f(x_a, y_a))
        * dphi_l
        * sig_inv
        * frac_cr_component(F, W, p, wp, "left", l, x_a, y_a)
    )

    def h_at(xs, ys):
        comp_phi_v = np.real(comp_phi.dx(xs, ys) + comp_phi.dy(xs, ys))
        return (
            np.exp(lam_fn.f(xs, ys))
            * comp_phi_v
            * sig_inv
            * frac_cr_component(F, W, p, wp, "left", l, xs, ys)
        )

    charges = np.stack([w_a * h_field, w_a], axis=1)
    x0, x1, y0, y1 = bounds
    cell_x = (x1 - x0) / patch.m
    cell_y = (y1 - y0) / patch.m

    def area_map(xs, ys):
        """The area integral at an array of trace points: kernel sums with
        the constant part subtracted and integrated exactly in polar wedges.
        Each distinct point (after the clamp below) is evaluated once.

        Points are clamped one cell inside the surface: the subtraction
        degrades within the last cell ring (the exact wedge integral and the
        discrete near-field no longer cancel), while the map itself is
        continuous there, so the clamped value is accurate to O(cell) on an
        O(cell) strip and constant along the clamped direction, which the
        outer trace derivative cancels."""
        xs = np.clip(np.atleast_1d(np.asarray(xs, dtype=float)), x0 + cell_x, x1 - cell_x)
        ys = np.clip(np.atleast_1d(np.asarray(ys, dtype=float)), y0 + cell_y, y1 - cell_y)
        zp, inv = np.unique(xs + 1j * ys, return_inverse=True)
        ux, uy = zp.real, zp.imag
        field_sum, mass_sum = kernel.sums(l, v_nodes, charges, zp).T
        wedges = (-1j / np.pi) * _wedge_recip_area(a_map, b_map, bounds, zp)
        out = field_sum + h_at(ux, uy) * (wedges - mass_sum)
        return (np.exp(-lam_fn.f(ux, uy)) * out)[inv]

    return area_map


# ----------------------------------------------------------------------
# experiment driving: named identities at geometric refinements


@dataclass(frozen=True)
class Resolution:
    """Area panels, boundary panels, 1-D node budget."""

    m: int
    k: int
    n: int

    def scaled(self, factor: int) -> "Resolution":
        return Resolution(self.m * factor, self.k * factor, self.n * factor)


@dataclass
class VerificationSetup:
    """Everything an identity runner needs besides the resolutions."""

    F: ProductFunction
    wp: WeightPair
    params: FracParams
    lam: LambdaWeights
    W: BicomplexNumber
    Z: BicomplexNumber
    patch: SurfacePatch
    include_area: bool = True


IDENTITIES = (
    "gauss-weighted",
    "borel-pompeiu",
    "trace-inversion",
    "factorization",
    "frac-gauss",
    "frac-borel-pompeiu",
)


def run_identity(identity: str, setup: VerificationSetup, res: Resolution) -> ResidualReport:
    """Evaluate one named residual at the given resolutions."""
    from .frac_cr_bicomplex import factorization_check, inversion_check

    p = replace(setup.params, quadrature=replace(setup.params.quadrature, n=res.n))
    patch = setup.patch.with_resolution(res.m, res.k)
    if identity == "gauss-weighted":
        rep = gauss_residual(setup.F, setup.wp, patch)
    elif identity == "borel-pompeiu":
        _, rep = borel_pompeiu_classical(setup.F, setup.W, patch)
    elif identity == "trace-inversion":
        t0 = time.perf_counter()
        r = inversion_check(setup.F, setup.W, p, setup.Z)
        rep = ResidualReport("trace-inversion", 0, 0, res.n, float(r.l1), float(r.l2),
                             seconds=time.perf_counter() - t0)
    elif identity == "factorization":
        t0 = time.perf_counter()
        r = factorization_check(setup.F, setup.W, p, setup.wp, setup.lam, "left", setup.Z)
        rep = ResidualReport("factorization", 0, 0, res.n, float(r.l1), float(r.l2),
                             seconds=time.perf_counter() - t0)
    elif identity == "frac-gauss":
        rep = frac_gauss_residual(setup.F, setup.W, p, setup.wp, setup.lam, patch)
    elif identity == "frac-borel-pompeiu":
        _, rep = frac_bp_reconstruct(setup.F, setup.W, setup.Z, p, setup.wp, setup.lam,
                                     patch, include_area=setup.include_area)
    else:
        raise ValueError(f"unknown identity {identity!r}; known: {IDENTITIES}")
    rep.identity = identity
    return rep


def fit_order(reports) -> float:
    """Convergence order per refinement doubling, by least squares on the
    log residuals; infinite when every residual sits at rounding level and
    NaN when any residual is not finite."""
    res = np.array([max(r.max_residual(), 0.0) for r in reports])
    if not np.all(np.isfinite(res)):
        return float("nan")
    if np.all(res < 1e-15):
        return float("inf")
    res = np.maximum(res, 1e-300)
    slope = np.polyfit(np.arange(len(res)), np.log2(res), 1)[0]
    return float(-slope)


def convergence_study(
    identity: str, setup: VerificationSetup, base: Resolution, levels: int
) -> list:
    """Run one identity at geometrically refined resolutions and attach the
    fitted empirical order to every report."""
    if levels < 1:
        raise ValueError("need at least one level")
    reports = [run_identity(identity, setup, base.scaled(2**i)) for i in range(levels)]
    if levels >= 2:
        order = fit_order(reports)
        for r in reports:
            r.order = order
    return reports
