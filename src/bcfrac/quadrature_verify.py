"""Contour and surface quadrature plus residual checks for every identity.

Integration conventions, fixed once here and asserted by tests:

* contour integrals run counterclockwise with composite Gauss-Legendre
  panels per edge;
* the weighted Gauss identities and both reconstructions balance against
  the plain componentwise area element ``dx dy`` (their scalar building
  block is stated that way).

Singular area kernels are integrated by one routine,
``_cauchy_area_integral``, for both reconstructions (the classical one with
the classical pair's kernel ``1/(2*pi*i*(v - z))``): one kernel sum of
``h(v) - h(z)``, whose integrand is bounded at the pole, plus ``h(z)`` times
the kernel's area integral over the rectangle, in closed form as a sum over
the four straightened edges (``_wedge_recip_area``).  The result is smooth
in the reconstruction point, so that trace derivatives can act on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import WOnBoundaryError
from .fracops1d import _read_only
from .frac_cr_bicomplex import (
    FracParams,
    RectDomain,
    _axis_coord,
    _axis_partial_batched,
    axis_derivative,
    axis_integral,
    component_axes,
    factorization_check,
    inversion_check,
    remainder_R,
    trace_sum,
)
from .hypercomplex import BicomplexNumber, HyperbolicNumber
from .weighted_cr import (
    CauchyKernel,
    ProductFunction,
    WeightPair,
    apply_cr_weighted,
    boundary_measure,
    weight_divergence,
)


#: Inset of the verification patch from each side of the rectangle, as a
#: fraction of that axis's span.  The trace operators are anchored at the
#: rectangle's ends, where a fractional integral has an algebraic cusp and
#: the difference stencils turn one-sided; the inset keeps the patch's
#: contour and area nodes a fixed share of the span away from them (the
#: ``bg-gauss`` preset's residual is 9.7e-9 at this inset, 1.5e-6 at 0.05 and
#: 1.3e-2 at 0).  It also leaves the runner's points ``W`` and ``Z`` (at 0.4
#: to 0.6 of each span) at least a quarter of a span inside the contour.  The
#: deep reconstruction integrates over the whole rectangle instead (see
#: ``frac_bp_reconstruct``).
PATCH_INSET = 0.15


@dataclass(frozen=True)
class SurfacePatch:
    """A rectangle pair (one rectangle per component plane) with boundary
    and area resolutions.

    ``m`` is the panel count per area axis, ``k`` the panel count per
    boundary edge; each panel carries a fixed small Gauss rule.
    """

    rect: RectDomain
    m: int = 32
    k: int = 32

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("resolutions must be positive")

    @classmethod
    def inside(cls, rect: RectDomain, m: int = 32, k: int = 32) -> "SurfacePatch":
        """The patch inset from every side of ``rect`` by ``PATCH_INSET`` of
        that axis's span."""
        def shrink(lo, hi):
            pad = (hi - lo) * PATCH_INSET
            return lo + pad, hi - pad

        bounds = [v for axis in range(4) for v in shrink(*rect.axis_interval(axis))]
        return cls(RectDomain(*bounds), m=m, k=k)

    def component_bounds(self, l: int) -> tuple:
        """``(x0, x1, y0, y1)`` of the rectangle in component plane ``l``."""
        ax_x, ax_y = component_axes(l)
        return self.rect.axis_interval(ax_x) + self.rect.axis_interval(ax_y)

    def with_resolution(self, m: int, k: int) -> "SurfacePatch":
        return replace(self, m=m, k=k)

    def probes(self) -> list:
        """Three interior bicomplex points, where ``bcfrac verify`` checks
        that a multiplier solves its PDE."""
        return [self.rect.point(fx, fy, fy, fx) for fx, fy in ((0.2, 0.3), (0.7, 0.6), (0.5, 0.5))]


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

    def max_residual(self) -> float:
        """Larger residual component; NaN when either component is NaN."""
        return float(np.maximum(self.res_l1, self.res_l2))

    def csv_row(self) -> str:
        order = "" if self.order is None else f"{self.order:.6f}"
        return (
            f"{self.identity},{self.m},{self.k},{self.n},"
            f"{self.res_l1:.12e},{self.res_l2:.12e},{order},{self.seconds:.3f}"
        )


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
def _boundary_nodes(bounds: tuple, k: int):
    """Counterclockwise boundary nodes with tangent-weighted measures, on
    ``k`` panels of 4 Gauss points per edge.

    Returns ``(z, wx, wy)`` where ``sum(g(z) * (wx or wy))`` integrates
    ``g dx`` or ``g dy`` along the closed contour.
    """
    x0, x1, y0, y1 = bounds
    xs, wxs = _panel_rule(x0, x1, k, 4)
    ys, wys = _panel_rule(y0, y1, k, 4)
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
def _area_nodes(bounds: tuple, m: int):
    """Tensor Gauss-Legendre nodes ``(x, y, w)`` over the rectangle, on
    ``m`` panels of 2 points per axis."""
    x0, x1, y0, y1 = bounds
    xs, wx = _panel_rule(x0, x1, m, 2)
    ys, wy = _panel_rule(y0, y1, m, 2)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wx, wy)
    return _read_only(X.ravel(), Y.ravel(), W.ravel())


# ----------------------------------------------------------------------
# elementary integrals


def contour_integral(F: ProductFunction, patch: SurfacePatch, wp: WeightPair) -> BicomplexNumber:
    """Componentwise contour integral of ``F`` against the weighted measure
    ``theta dy - phi_w dx`` (``-i dz`` for the classical pair)."""
    comps = []
    for l in (1, 2):
        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        wgt = boundary_measure(wp, l, z, wx, wy)
        comps.append(np.sum(F.component(l).f(z.real, z.imag) * wgt))
    return BicomplexNumber(comps[0], comps[1])


# ----------------------------------------------------------------------
# classical identities


def gauss_residual(F: ProductFunction, wp: WeightPair, patch: SurfacePatch) -> HyperbolicNumber:
    """Weighted Gauss identity: area integral of the weighted derivative plus
    divergence terms against ``dx dy`` versus the weighted contour integral."""
    contour = contour_integral(F, patch, wp)
    res = []
    for l, bnd in ((1, contour.z1), (2, contour.z2)):
        fl = F.component(l)
        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        integrand = (apply_cr_weighted(wp, l, x, y, fl.dx(x, y), fl.dy(x, y))
                     + weight_divergence(wp, l, x, y) * fl.f(x, y))
        area = np.sum(integrand * w)
        res.append(abs(area - bnd))
    return HyperbolicNumber(res[0], res[1])


def check_reconstruction_point(W: BicomplexNumber, patch: SurfacePatch) -> None:
    """Raise ``WOnBoundaryError`` unless ``W`` lies more than two mesh widths
    (of the area mesh of ``patch.m`` panels) inside the contour in both
    components, away from the last cell ring where the classical
    reconstruction's area subtraction degrades."""
    for l, wz in ((1, W.z1), (2, W.z2)):
        x0, x1, y0, y1 = patch.component_bounds(l)
        eps = 2.0 * max(x1 - x0, y1 - y0) / patch.m
        wz = complex(wz)
        dist_to_edge = min(wz.real - x0, x1 - wz.real, wz.imag - y0, y1 - wz.imag)
        if dist_to_edge <= eps:
            raise WOnBoundaryError(
                f"reconstruction point too close to the contour: {dist_to_edge:.3g} from "
                f"component {l}'s edge, not more than two mesh widths ({eps:.3g}) at m = {patch.m}")


def borel_pompeiu_classical(F: ProductFunction, W: BicomplexNumber,
                            patch: SurfacePatch) -> HyperbolicNumber:
    """Residual of the classical componentwise reconstruction of ``F(W)``
    from boundary values plus the area integral of the anti-holomorphic
    derivative.

    This is the deep reconstruction's formula for the classical pair, with
    its kernel ``E(v, z) = 1/(2*pi*i*(v - z))``: ``F(W) = i * (boundary -
    area)``, where the boundary term integrates ``E * F`` against ``dy -
    i*dx`` and the area term integrates ``E * (dF/dx + i*dF/dy)`` against
    ``dx dy`` by ``_cauchy_area_integral``.  ``W`` must pass
    ``check_reconstruction_point``.
    """
    check_reconstruction_point(W, patch)
    kernel = CauchyKernel(WeightPair.classical())
    wp = kernel.wp
    res = []
    for l, wz in ((1, W.z1), (2, W.z2)):
        bounds = patch.component_bounds(l)
        wz = complex(wz)
        fl = F.component(l)
        zp = np.array([wz])
        z, wx, wy = _boundary_nodes(bounds, patch.k)
        bnd = kernel.sums(l, z, fl.f(z.real, z.imag) * boundary_measure(wp, l, z, wx, wy), zp)
        area = _cauchy_area_integral(
            kernel, l, bounds, patch.m,
            lambda x, y: apply_cr_weighted(wp, l, x, y, fl.dx(x, y), fl.dy(x, y)))(zp)
        res.append(abs(1j * (bnd - area)[0] - fl.f(wz.real, wz.imag)))
    return HyperbolicNumber(res[0], res[1])


# ----------------------------------------------------------------------
# batched component fields of the trace operators


def trace_component(F, W, p: FracParams, side: str, l: int, xs, ys):
    """Component of the trace integral at paired plane points (batched)."""
    ax_x, ax_y = component_axes(l)
    return axis_integral(F, W, p, side, ax_x, xs) + axis_integral(F, W, p, side, ax_y, ys)


def frac_cr_component(F, W, p: FracParams, wp: WeightPair, side: str, l: int, xs, ys):
    """Component of the proportional weighted CR operator at paired points,
    returned with the trace integral ``g`` it is built from (the same
    component of ``trace_component`` at the same points)."""
    ax_x, ax_y = component_axes(l)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    g = trace_component(F, W, p, side, l, xs, ys)
    dgx = _axis_partial_batched(F, W, p, side, ax_x, xs)
    dgy = _axis_partial_batched(F, W, p, side, ax_y, ys)
    sig = p.sigma.z1 if l == 1 else p.sigma.z2
    cr = apply_cr_weighted(wp, l, xs, ys, dgx, dgy)
    return (1.0 - sig) * g + sig * cr / p.phi.dphi(l, xs, ys), g


# ----------------------------------------------------------------------
# proportional fractional Gauss identity


def frac_gauss_residual(
    F,
    W: BicomplexNumber,
    p: FracParams,
    wp: WeightPair,
    lam: ProductFunction,
    patch: SurfacePatch,
) -> HyperbolicNumber:
    """Gauss identity for the exponentially weighted trace integral.

    Boundary side: contour integral of ``exp(lambda) * (I F)`` against the
    weighted measure.  Area side: ``exp(lambda)`` times the trace-scaled
    proportional CR operator plus the divergence terms, against ``dx dy``.
    ``lam`` must solve the multiplier PDE (``bcfrac verify`` checks that
    when it loads the configuration).
    """
    sigma_inv = p.sigma.invert()
    res = []
    for l in (1, 2):
        lam_fn = lam.component(l)
        sig_inv = sigma_inv.z1 if l == 1 else sigma_inv.z2

        z, wx, wy = _boundary_nodes(patch.component_bounds(l), patch.k)
        g_b = trace_component(F, W, p, "left", l, z.real, z.imag)
        elam_b = np.exp(lam_fn.f(z.real, z.imag))
        bnd = np.sum(elam_b * g_b * boundary_measure(wp, l, z, wx, wy))

        x, y, w = _area_nodes(patch.component_bounds(l), patch.m)
        cr_a, g_a = frac_cr_component(F, W, p, wp, "left", l, x, y)
        h_field = p.phi.dphi(l, x, y) * sig_inv * cr_a
        elam_a = np.exp(lam_fn.f(x, y))
        div_term = weight_divergence(wp, l, x, y) * elam_a * g_a
        area = np.sum((elam_a * h_field + div_term) * w)
        res.append(abs(bnd - area))
    return HyperbolicNumber(res[0], res[1])


# ----------------------------------------------------------------------
# proportional fractional reconstruction (the deep identity)


def _wedge_recip_area(a: complex, b: complex, bounds: tuple, z):
    """Area integral of ``1 / (a*(v-z) + b*conj(v-z))`` over the rectangle,
    in closed form, for ``|a| > |b|`` and a pole ``z`` strictly inside.

    With ``s = a*w + b*conj(w)`` and ``w = v - z``, the substitution ``v ->
    s`` has Jacobian ``det = |a|^2 - |b|^2`` and maps the rectangle onto a
    parallelogram around ``s = 0``, over which ``1/s = d(conj(s)/s)/d(conj
    s)``.  By Green's theorem the integral is ``(1/2i) * contour integral of
    conj(s)/s ds`` (the pole adds nothing), and along an edge from ``s0`` to
    ``s1``, with ``d = s1 - s0``, that is ``Im(conj(s0)*d)/d * Log(s1/s0)``
    up to terms that cancel around the contour.  The edge does not pass
    through the pole, so the principal logarithm is its continuous branch.

    ``z`` is a point or an array of points; a scalar ``z`` gives a scalar."""
    x0, x1, y0, y1 = bounds
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()  # array arithmetic even for one point
    corners = (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
    s = [a * (c - z) + b * np.conjugate(c - z) for c in corners]
    total = 0.0 + 0.0j
    for s0, s1 in zip(s, s[1:] + s[:1]):
        d = s1 - s0
        total = total + (np.conjugate(s0) * d).imag / d * np.log(s1 / s0)
    return (total / (abs(a) ** 2 - abs(b) ** 2)).reshape(shape)[()]


def _cauchy_area_integral(kernel: CauchyKernel, l: int, bounds: tuple, m: int, h_at: Callable):
    """The area integral ``integral E_l(v, z) * h(v) dx dy`` over the
    rectangle, as a function of an array of points ``z`` strictly inside it.

    ``h_at(x, y)`` is evaluated once on the area nodes.  Each evaluation is
    one kernel sum of ``h(v) - h(z)``, whose integrand is bounded at the
    pole, plus ``h(z)`` times the kernel's area integral in closed form.
    The subtraction degrades within the last cell ring, where the exact
    integral and the discrete near field no longer cancel.
    """
    x_a, y_a, w_a = _area_nodes(bounds, m)
    v_nodes = x_a + 1j * y_a
    charges = np.stack([w_a * h_at(x_a, y_a), w_a], axis=1)
    a_map, b_map = kernel._maps[l - 1]

    def integral(zp):
        field_sum, mass_sum = kernel.sums(l, v_nodes, charges, zp).T
        wedges = (-1j / np.pi) * _wedge_recip_area(a_map, b_map, bounds, zp)
        return field_sum + h_at(zp.real, zp.imag) * (wedges - mass_sum)

    return integral


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


def _nearest_pole_clusters(a, b, v_nodes, fixed, horizontal, lo, hi):
    """Refinement targets for a trace integral of a discrete kernel sum: the
    four kernel points whose poles come closest to the integration segment."""
    centers, scales = _pole_along_trace(a, b, v_nodes, fixed, horizontal)
    pad = 0.1 * (hi - lo)
    mask = (centers >= lo - pad) & (centers <= hi + pad)
    if not np.any(mask):
        return np.array([0.5 * (lo + hi)]), np.array([hi - lo])
    idx = np.argsort(np.where(mask, scales, np.inf))[:4]
    return centers[idx], scales[idx]


def _trace_derivative_of_map(
    line_map: Callable,
    l: int,
    Z,
    W,
    p: FracParams,
    features: tuple,
):
    """Apply the two-direction trace derivative (in the real components of
    ``Z``, with weight restrictions anchored through ``W``) to a scalar
    field ``line_map(xs, ys)`` on one component plane: one
    ``axis_derivative`` per direction, on the refined rows of
    ``fracops1d.refined_rule``.

    ``features`` holds one ``(centers, scales)`` pair per direction, x then
    y, marking sharp features of the field along that trace line (quadrature
    nodes are clustered there).  Differentiating the discretized field
    directly, instead of pushing the derivative under the discretization,
    keeps the finite differences acting on one fixed smooth function; the
    difference step is 5e-3 of the span, fifty times the default, so that
    residual quadrature noise is not amplified.
    """
    ax_x, ax_y = component_axes(l)
    x_c, y_c = _axis_coord(Z, ax_x), _axis_coord(Z, ax_y)
    lines = (lambda t: line_map(t, np.full_like(t, y_c)),
             lambda t: line_map(np.full_like(t, x_c), t))
    total = 0.0 + 0.0j
    for axis, coord, line, feats in zip((ax_x, ax_y), (x_c, y_c), lines, features):
        lo, hi = p.rect.axis_interval(axis)
        total += axis_derivative(line, W, p, "left", axis, coord,
                                 h=5e-3 * (hi - lo), features=feats)
    return total


def frac_bp_reconstruct(
    F,
    W: BicomplexNumber,
    Z: BicomplexNumber,
    p: FracParams,
    wp: WeightPair,
    lam: ProductFunction,
    patch: SurfacePatch,
    include_area: bool = True,
) -> HyperbolicNumber:
    """Residual of the reconstruction of the trace sum of ``F`` through the
    deep identity: boundary integral of the derived kernel against the trace
    integral, minus the remainder, minus the trace derivative of the area
    integral of the proportional CR image, against the direct trace sum.

    Restricted to constant weight pairs (the kernel must be constructible),
    and ``lam`` must solve the multiplier PDE (``bcfrac verify`` checks that
    when it loads the configuration).  The surface is always the full
    rectangle, whatever inset the supplied patch carries (only its
    resolutions are used): the trace derivatives integrate from the
    rectangle's corners, and the reconstruction identity they are applied to
    holds on the surface only.
    """
    kernel = CauchyKernel(wp)
    patch = replace(patch, rect=p.rect)
    sigma_inv = p.sigma.invert()
    rem = remainder_R(F, W, p, Z)
    tsum = trace_sum(F, W, Z)

    res = []
    for l in (1, 2):
        a_map, b_map = kernel._maps[l - 1]
        lam_fn = lam.component(l)
        sig_inv = sigma_inv.z1 if l == 1 else sigma_inv.z2
        rem_l = rem.z1 if l == 1 else rem.z2
        ts_l = tsum.z1 if l == 1 else tsum.z2
        ax_x, ax_y = component_axes(l)
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
        coef = boundary_measure(wp, l, z_b, wx, wy) * g_b * np.exp(lam_fn.f(z_b.real, z_b.imag))

        def boundary_map(xs, ys):
            zp, inv = np.unique(np.asarray(xs, dtype=float) + 1j * np.asarray(ys, dtype=float),
                                return_inverse=True)
            sums = kernel.sums(l, z_b, coef, zp)
            return (np.exp(-lam_fn.f(zp.real, zp.imag)) * sums)[inv]

        lo_x, hi_x = p.rect.axis_interval(ax_x)
        lo_y, hi_y = p.rect.axis_interval(ax_y)
        features = (_nearest_pole_clusters(a_map, b_map, z_b, y_c, True, lo_x, x_c),
                    _nearest_pole_clusters(a_map, b_map, z_b, x_c, False, lo_y, y_c))
        bnd = _trace_derivative_of_map(boundary_map, l, Z, W, p, features)

        area_d = 0.0 + 0.0j
        if include_area:
            area_map = _area_map_builder(l, F, W, p, kernel, lam, patch, sig_inv)
            x0, x1, y0, y1 = patch.component_bounds(l)
            cell = max(x1 - x0, y1 - y0) / patch.m
            area_features = ((np.array([x0, x1]), np.array([cell / 2, cell / 2])),
                             (np.array([y0, y1]), np.array([cell / 2, cell / 2])))
            area_d = _trace_derivative_of_map(area_map, l, Z, W, p, area_features)

        val = 1j * (bnd - area_d) - rem_l  # the kernel's normalization is -i
        res.append(abs(val - ts_l))
    return HyperbolicNumber(res[0], res[1])


def _area_map_builder(l, F, W, p: FracParams, kernel: CauchyKernel,
                      lam: ProductFunction, patch: SurfacePatch, sig_inv):
    """Build the area integral of ``exp(lambda(V) - lambda(z)) * E(V, z) *
    Dphi(V) * sigma^{-1} * (proportional CR of F)(V, W)`` over the patch,
    against ``dx dy``, as a function of the trace point ``z``.

    The proportional CR field is precomputed once on the area nodes (see
    ``_cauchy_area_integral``), so the map stays smooth inside the patch where
    the trace derivative differences it.
    """
    bounds = patch.component_bounds(l)
    lam_fn = lam.component(l)

    def h_at(xs, ys):
        return (
            np.exp(lam_fn.f(xs, ys))
            * p.phi.dphi(l, xs, ys)
            * sig_inv
            * frac_cr_component(F, W, p, kernel.wp, "left", l, xs, ys)[0]
        )

    integral = _cauchy_area_integral(kernel, l, bounds, patch.m, h_at)
    x0, x1, y0, y1 = bounds
    cell_x = (x1 - x0) / patch.m
    cell_y = (y1 - y0) / patch.m

    def area_map(xs, ys):
        """The area integral at an array of trace points.  Each distinct
        point (after the clamp below) is evaluated once.

        Points are clamped one cell inside the surface: the subtraction
        degrades within the last cell ring (the closed-form integral and the
        discrete near-field no longer cancel), while the map itself is
        continuous there, so the clamped value is accurate to O(cell) on an
        O(cell) strip and constant along the clamped direction, which the
        outer trace derivative cancels."""
        xs = np.clip(np.atleast_1d(np.asarray(xs, dtype=float)), x0 + cell_x, x1 - cell_x)
        ys = np.clip(np.atleast_1d(np.asarray(ys, dtype=float)), y0 + cell_y, y1 - cell_y)
        zp, inv = np.unique(xs + 1j * ys, return_inverse=True)
        return (np.exp(-lam_fn.f(zp.real, zp.imag)) * integral(zp))[inv]

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
    lam: ProductFunction
    W: BicomplexNumber
    Z: BicomplexNumber
    patch: SurfacePatch
    include_area: bool = True


#: Identity name -> (residual of a setup ``s`` under parameters ``p`` on a
#: patch, whether the report records the patch resolutions m and k, whether it
#: records the 1-D node budget n).  The lambdas look the residual functions up
#: when called, so a rebound module attribute (a wrapper) takes effect.
_RESIDUALS = {
    "gauss-weighted": (lambda s, p, patch: gauss_residual(s.F, s.wp, patch), True, False),
    "borel-pompeiu": (lambda s, p, patch: borel_pompeiu_classical(s.F, s.W, patch), True, False),
    "trace-inversion": (lambda s, p, patch: inversion_check(s.F, s.W, p, s.Z), False, True),
    "factorization": (
        lambda s, p, patch: factorization_check(s.F, s.W, p, s.wp, s.lam, "left", s.Z),
        False, True),
    "frac-gauss": (
        lambda s, p, patch: frac_gauss_residual(s.F, s.W, p, s.wp, s.lam, patch), True, True),
    "frac-borel-pompeiu": (
        lambda s, p, patch: frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch,
                                                include_area=s.include_area),
        True, True),
}

IDENTITIES = tuple(_RESIDUALS)


def run_identity(identity: str, setup: VerificationSetup, res: Resolution) -> ResidualReport:
    """Evaluate one named residual at the given resolutions and report it."""
    if identity not in _RESIDUALS:
        raise ValueError(f"unknown identity {identity!r}; known: {IDENTITIES}")
    residual, records_mk, records_n = _RESIDUALS[identity]
    p = replace(setup.params, quadrature=replace(setup.params.quadrature, n=res.n))
    patch = setup.patch.with_resolution(res.m, res.k)
    t0 = time.perf_counter()
    r = residual(setup, p, patch)
    seconds = time.perf_counter() - t0
    m, k = (res.m, res.k) if records_mk else (0, 0)
    return ResidualReport(identity, m, k, res.n if records_n else 0, float(r.l1), float(r.l2),
                          seconds=seconds)


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
