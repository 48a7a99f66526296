"""Contour and surface quadrature plus residual checks for every identity.

Integration conventions, fixed once here and asserted by tests:

* contour integrals run counterclockwise with composite Gauss-Legendre
  panels per edge;
* the weighted Gauss identities and both reconstructions balance against
  the plain componentwise area element ``dx dy`` (their scalar building
  block is stated that way).

Both reconstructions take their singular kernel from the constant pair's
``CauchyKernel``, which owns the kernel's sums, their close evaluation near
the contour and its area integral over the rectangle
(``CauchyKernel.area_integral``); this module supplies the nodes and the
densities.
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
    _trace_derivative_of_map,
    axis_surrogate,
    component_axes,
    factorization_check,
    frac_cr_component,
    inversion_check,
    inversion_terms,
    remainder_R,
    trace_component,
    trace_sum,
)
from .hypercomplex import BicomplexNumber, HyperbolicNumber
from .weighted_cr import (
    _GL4_NODES,
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


@lru_cache(maxsize=2)
def _gl_reference(pts: int):
    """The ``pts``-point Gauss-Legendre rule moved to ``[0, 1]``, in closed
    form for the two counts the panels use: ``+-sqrt(1/3)`` with unit
    weights, or the nodes ``_GL4_NODES`` that close evaluation assumes, with
    weights ``(18 -+ sqrt(30))/36`` (outer nodes first)."""
    if pts == 2:
        x, w = np.array([-1.0, 1.0]) * np.sqrt(1.0 / 3.0), np.ones(2)
    elif pts == 4:
        x, w = _GL4_NODES, (18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * np.sqrt(30.0)) / 36.0
    else:
        raise ValueError(f"no closed-form Gauss-Legendre rule of {pts} points")
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=256)
def _panel_rule(lo: float, hi: float, panels: int, pts: int):
    xr, wr = _gl_reference(pts)
    edges = np.linspace(lo, hi, panels + 1)
    width = (hi - lo) / panels
    nodes = (edges[:-1][:, None] + width * xr[None, :]).ravel()
    wts = np.broadcast_to(width * wr[None, :], (panels, pts)).ravel().copy()
    return _read_only(nodes, wts)


def _on_edges(along_x, along_y, x_ends, y_ends, back: float = 1.0) -> tuple:
    """Per-axis arrays laid out at the contour's nodes, counterclockwise from
    the bottom edge; the top and left edges run reversed, times ``back``."""
    (x_lo, x_hi), (y_lo, y_hi), nx, ny = x_ends, y_ends, len(along_x), len(along_y)
    return (np.concatenate([along_x, np.full(ny, x_hi), back * along_x[::-1], np.full(ny, x_lo)]),
            np.concatenate([np.full(nx, y_lo), along_y, np.full(nx, y_hi), back * along_y[::-1]]))


@lru_cache(maxsize=128)
def _boundary_nodes(bounds: tuple, k: int):
    """Counterclockwise boundary nodes with tangent-weighted measures, on
    ``k`` panels of 4 Gauss points per edge (``_on_edges``).

    Returns ``(z, wx, wy)`` where ``sum(g(z) * (wx or wy))`` integrates
    ``g dx`` or ``g dy`` along the closed contour.
    """
    x0, x1, y0, y1 = bounds
    xs, wxs = _panel_rule(x0, x1, k, 4)
    ys, wys = _panel_rule(y0, y1, k, 4)
    x, y = _on_edges(xs, ys, (x0, x1), (y0, y1))
    wx, wy = _on_edges(wxs, wys, (0.0, 0.0), (0.0, 0.0), back=-1.0)  # tangent steps
    return _read_only(x + 1j * y, wx, wy)


@lru_cache(maxsize=128)
def _area_nodes(bounds: tuple, m: int):
    """Tensor Gauss-Legendre nodes over the rectangle, on ``m`` panels of 2
    points per axis, as broadcastable axes: the column ``x`` (2m, 1), the row
    ``y`` (1, 2m) and the weight grid ``w`` (2m, 2m)."""
    x0, x1, y0, y1 = bounds
    xs, wx = _panel_rule(x0, x1, m, 2)
    ys, wy = _panel_rule(y0, y1, m, 2)
    return _read_only(xs[:, None], ys[None, :], np.outer(wx, wy))


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


def borel_pompeiu_classical(F: ProductFunction, W: BicomplexNumber, wp: WeightPair,
                            patch: SurfacePatch) -> HyperbolicNumber:
    """Residual of the componentwise Cauchy-Pompeiu reconstruction of
    ``F(W)`` from boundary values plus the area integral of the weighted
    derivative, for a constant orientation-preserving pair ``wp``.

    This is the deep reconstruction's formula with the pair's kernel ``E =
    CauchyKernel(wp)`` (``1/(2*pi*i*(v - z))`` for the classical pair):
    ``F(W) = i * (boundary - area)``, where the boundary term integrates ``E
    * F`` against ``theta dy - phi_w dx`` and the area term integrates ``E *
    (theta dF/dx + phi_w dF/dy)`` against ``dx dy`` by
    ``CauchyKernel.area_integral``.  For the classical pair and a holomorphic
    ``F`` the area term vanishes; a general pair keeps it live.  ``W`` must
    pass ``check_reconstruction_point``.
    """
    check_reconstruction_point(W, patch)
    kernel = CauchyKernel(wp)
    res = []
    for l, wz in ((1, W.z1), (2, W.z2)):
        bounds = patch.component_bounds(l)
        wz = complex(wz)
        fl = F.component(l)
        zp = np.array([wz])
        z, wx, wy = _boundary_nodes(bounds, patch.k)
        bnd = kernel.boundary_sums(l, z, fl.f(z.real, z.imag) * boundary_measure(wp, l, z, wx, wy),
                                   zp)
        area = kernel.area_integral(
            l, bounds, _area_nodes(bounds, patch.m),
            lambda x, y: apply_cr_weighted(wp, l, x, y, fl.dx(x, y), fl.dy(x, y)))(zp)
        res.append(abs(1j * (bnd - area)[0] - fl.f(wz.real, wz.imag)))
    return HyperbolicNumber(res[0], res[1])


# ----------------------------------------------------------------------
# batched component fields of the trace operators


def _trace_integrals(F, W, p: FracParams, l: int) -> tuple:
    """The left trace integrals along component ``l``'s two axes, as
    callables on coordinate arrays: one surrogate per axis
    (``axis_surrogate``: 32 rule rows, where the direct rule takes one per
    coordinate and difference point), evaluated per axis and broadcast.  They
    match the direct rule to about 1e-15 relative, and the CR field's
    Richardson quotients to about 2e-12 (1.3e-11 on ``fractal-gauss``)."""
    return tuple(axis_surrogate(F, W, p, ax) for ax in component_axes(l))


def _contour_trace(ix: Callable, iy: Callable, bounds: tuple, k: int, anchor_hair: float = 0.0):
    """The trace integral at the contour nodes of ``_boundary_nodes(bounds,
    k)``: each integral once per axis, on the sorted batch of its lower end
    (``anchor_hair`` of the span inside), edge nodes and upper end."""
    x0, x1, y0, y1 = bounds
    gx = ix(np.concatenate([[x0 + anchor_hair * (x1 - x0)], _panel_rule(x0, x1, k, 4)[0], [x1]]))
    gy = iy(np.concatenate([[y0 + anchor_hair * (y1 - y0)], _panel_rule(y0, y1, k, 4)[0], [y1]]))
    return np.add(*_on_edges(gx[1:-1], gy[1:-1], gx[[0, -1]], gy[[0, -1]]))


# ----------------------------------------------------------------------
# proportional fractional Gauss identity


def _frac_gauss_terms(ix: Callable, iy: Callable, p: FracParams, wp: WeightPair, lam_fn, l: int,
                      bounds: tuple, k: int, anchor_hair: float = 0.0) -> tuple:
    """The two integrands of the proportional fractional Gauss identity on
    component ``l``, for its per-axis trace integrals ``ix`` and ``iy`` and
    multiplier ``lam_fn``: ``(z, charges, h_at)``, the contour nodes of
    ``_boundary_nodes(bounds, k)``, the boundary charges ``(theta dy - phi_w
    dx) * (I F) * exp(lambda)`` there (``_contour_trace`` with
    ``anchor_hair``), and the area density ``h_at(xs, ys) = exp(lambda) *
    Dphi * sigma^{-1} * (proportional CR of I F)``, plus ``div(theta, phi_w)
    * exp(lambda) * (I F)`` for non-constant weights, with ``exp(lambda)``
    formed once per grid.  The Gauss identity integrates both plainly, the
    deep reconstruction (constant weights only) against the kernel."""
    z, wx, wy = _boundary_nodes(bounds, k)
    charges = (boundary_measure(wp, l, z, wx, wy) * _contour_trace(ix, iy, bounds, k, anchor_hair)
               * np.exp(lam_fn.f(z.real, z.imag)))
    sig_inv = 1.0 / (p.sigma.z1 if l == 1 else p.sigma.z2)

    def h_at(xs, ys):
        elam = np.exp(lam_fn.f(xs, ys))
        h = elam * p.phi.dphi(l, xs, ys) * sig_inv * frac_cr_component(ix, iy, p, wp, l, xs, ys)
        if wp.const_values is None:
            h = h + weight_divergence(wp, l, xs, ys) * elam * trace_component(ix, iy, xs, ys)
        return h

    return z, charges, h_at


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
    proportional CR operator plus the divergence terms (of non-constant
    weights only), against ``dx dy``.  Both are ``_frac_gauss_terms``' charge
    and density, so the residual is ``|sum(charges) - sum(h_at * w)|`` per
    component.  ``lam`` must solve the multiplier PDE (``bcfrac verify``
    checks that when it loads the configuration).
    Every trace integral comes from the component's two surrogates
    (``_trace_integrals``), per axis and broadcast.
    """
    res = []
    for l in (1, 2):
        ix, iy = _trace_integrals(F, W, p, l)
        bounds = patch.component_bounds(l)
        _, charges, h_at = _frac_gauss_terms(ix, iy, p, wp, lam.component(l), l, bounds, patch.k)
        x, y, w = _area_nodes(bounds, patch.m)
        res.append(abs(np.sum(charges) - np.sum(h_at(x, y) * w)))
    return HyperbolicNumber(res[0], res[1])


# ----------------------------------------------------------------------
# proportional fractional reconstruction (the deep identity)


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

    Every trace field of a component (the boundary trace integral, and the
    proportional CR field on the area nodes and at the area map's points)
    comes from its two surrogates (``_trace_integrals``), per axis and
    broadcast, and both integrands from ``_frac_gauss_terms``, as in
    ``frac_gauss_residual``.  The remainder at ``Z`` runs the direct rule and
    ``derivative_of_one``; the outer trace derivatives, of step
    ``_MAP_STEP``, difference the area map and the boundary map along each
    trace line of nonzero proportion, read through a Chebyshev interpolant
    (``_trace_derivative_of_map`` within the area map's clamp region, and
    within the rectangle for the boundary map).  A component reads each map
    once: one kernel sum holds the ``_MAP_LINE_SAMPLES`` = 32 samples of each
    live line and ``Z`` for a line of proportion zero, where the direct map
    takes one target per node of the outer rows.
    """
    kernel = CauchyKernel(wp)
    patch = replace(patch, rect=p.rect)
    rem = remainder_R(F, W, p, Z)
    tsum = trace_sum(F, W, Z)

    res = []
    for l in (1, 2):
        lam_fn = lam.component(l)
        rem_l = rem.z1 if l == 1 else rem.z2
        ts_l = tsum.z1 if l == 1 else tsum.z2

        ix, iy = _trace_integrals(F, W, p, l)
        bounds = patch.component_bounds(l)
        # evaluate the trace integral a hair inside the anchor edges: the
        # contour integral sees the one-sided limit of the integrand there,
        # not the exactly-zero anchor value of near-degenerate orders
        z_b, charges, h_at = _frac_gauss_terms(ix, iy, p, wp, lam_fn, l, bounds, patch.k,
                                               anchor_hair=1e-9)

        def boundary_map(xs, ys):
            zp = np.asarray(xs, dtype=float) + 1j * np.asarray(ys, dtype=float)
            return np.exp(-lam_fn.f(zp.real, zp.imag)) * kernel.boundary_sums(l, z_b, charges, zp)

        # the boundary map is not clamped: its region is the rectangle
        bnd = _trace_derivative_of_map(boundary_map, l, Z, W, p, (bounds[:2], bounds[2:]))

        area_d = 0.0 + 0.0j
        if include_area:
            area_map, region = _area_map_builder(l, h_at, kernel, lam_fn, bounds, patch.m)
            area_d = _trace_derivative_of_map(area_map, l, Z, W, p, region)

        val = 1j * (bnd - area_d) - rem_l  # the kernel's normalization is -i
        res.append(abs(val - ts_l))
    return HyperbolicNumber(res[0], res[1])


def _area_map_builder(l, h_at: Callable, kernel: CauchyKernel, lam_fn, bounds: tuple, m: int):
    """Build the area integral of ``exp(-lambda(z)) * E(V, z) * h(V)``
    against ``dx dy`` over the rectangle ``bounds`` of ``m`` panels per axis,
    as a function of the trace point ``z``, for the area density ``h_at`` of
    ``_frac_gauss_terms``.  The density is evaluated once per area axis and
    broadcast, and at each call on the call's points for the subtraction
    constant ``h(z)`` (see ``CauchyKernel.area_integral``), so the map stays
    smooth inside the rectangle where the trace derivative differences it.

    Returns the map and its clamp region ``((x_lo, x_hi), (y_lo, y_hi))``,
    one cell inside each edge: the map is constant beyond it, and
    ``_trace_derivative_of_map`` samples each live trace line within it, in
    its one call of the map per component.
    """
    integral = kernel.area_integral(l, bounds, _area_nodes(bounds, m), h_at)
    x0, x1, y0, y1 = bounds
    cell_x, cell_y = (x1 - x0) / m, (y1 - y0) / m
    region = ((x0 + cell_x, x1 - cell_x), (y0 + cell_y, y1 - cell_y))

    def area_map(xs, ys):
        """The area integral at an array of trace points, or at a coordinate
        array and a scalar.

        Points are clamped into the region, one cell inside the surface: the
        subtraction degrades within the last cell ring (the closed-form
        integral and the discrete near-field no longer cancel), while the map
        itself is continuous there, so the clamped value is accurate to
        O(cell) on an O(cell) strip and constant along the clamped direction,
        which the outer trace derivative cancels."""
        xs = np.clip(np.atleast_1d(np.asarray(xs, dtype=float)), *region[0])
        ys = np.clip(np.atleast_1d(np.asarray(ys, dtype=float)), *region[1])
        zp = xs + 1j * ys
        return np.exp(-lam_fn.f(zp.real, zp.imag)) * integral(zp)

    return area_map, region


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


@dataclass(frozen=True)
class Identity:
    residual: Callable  # (setup s, parameters p, patch, level-free part) -> HyperbolicNumber
    patch: bool  # the report records m and k
    n: bool  # the report records n: it runs a 1-D rule and reads ``scheme``
    multiplier: bool = False  # it reads the multiplier lambda when sigma != 1
    kernel: bool = False  # it needs the pair's ``CauchyKernel``
    point: bool = False  # the loader runs ``check_reconstruction_point``
    area: bool = False  # it accepts ``include_area``
    # (s, p) -> the part no resolution changes, once a study: trace-inversion's
    # is its InversionTerms (composition, axis specs with D[1], trace sum)
    level_free: Optional[Callable] = None


#: Name -> record, as in the README's identity table.  The lambdas look the
#: residuals up when called, so a rebound module attribute (a wrapper) takes effect.
REGISTRY = {
    "gauss-weighted": Identity(lambda s, p, patch, _: gauss_residual(s.F, s.wp, patch), True, False),
    "borel-pompeiu": Identity(lambda s, p, patch, _: borel_pompeiu_classical(s.F, s.W, s.wp, patch),
                              True, False, kernel=True, point=True),
    "trace-inversion": Identity(
        lambda s, p, patch, held: inversion_check(s.F, s.W, p, s.Z, held), False, True,
        level_free=lambda s, p: inversion_terms(s.F, s.W, p, s.Z)),
    "factorization": Identity(
        lambda s, p, patch, _: factorization_check(s.F, s.W, p, s.wp, s.lam, s.Z), False, True,
        multiplier=True),
    "frac-gauss": Identity(
        lambda s, p, patch, _: frac_gauss_residual(s.F, s.W, p, s.wp, s.lam, patch), True, True,
        multiplier=True),
    "frac-borel-pompeiu": Identity(
        lambda s, p, patch, _: frac_bp_reconstruct(s.F, s.W, s.Z, p, s.wp, s.lam, patch,
                                                   include_area=s.include_area),
        True, True, multiplier=True, kernel=True, area=True),
}

IDENTITIES = tuple(REGISTRY)


def run_identity(identity: str, setup: VerificationSetup, res: Resolution,
                 held: Optional[dict] = None) -> ResidualReport:
    """Evaluate one named residual at the given resolutions and report it.

    An identity's level-free part (``Identity.level_free``) is computed
    inside the timed span and kept in ``held`` under the identity's name,
    unless ``held`` has it already.  A study passes one ``held`` to all its
    levels, so its first level computes that part and carries its cost in
    ``seconds``, and the others read it."""
    if identity not in REGISTRY:
        raise ValueError(f"unknown identity {identity!r}; known: {IDENTITIES}")
    rec = REGISTRY[identity]
    held = {} if held is None else held
    p = replace(setup.params, quadrature=replace(setup.params.quadrature, n=res.n))
    patch = setup.patch.with_resolution(res.m, res.k)
    t0 = time.perf_counter()
    if rec.level_free is not None and identity not in held:
        held[identity] = rec.level_free(setup, p)
    r = rec.residual(setup, p, patch, held.get(identity))
    seconds = time.perf_counter() - t0
    m, k = (res.m, res.k) if rec.patch else (0, 0)
    return ResidualReport(identity, m, k, res.n if rec.n else 0, float(r.l1), float(r.l2),
                          seconds=seconds)


def fit_order(reports) -> float:
    """Convergence order per refinement doubling: minus the least-squares
    slope of the log2 residuals (floored at 1e-300) against the level, in
    closed form ``-sum(x*y) / sum(x*x)`` with the levels ``x`` centred on
    their mean.  Infinite when every residual sits at rounding level and NaN
    when any residual is not finite."""
    res = np.array([max(r.max_residual(), 0.0) for r in reports])
    if not np.all(np.isfinite(res)):
        return float("nan")
    if np.all(res < 1e-15):
        return float("inf")
    y = np.log2(np.maximum(res, 1e-300))
    x = np.arange(len(y)) - (len(y) - 1) / 2
    return float(-(x @ y) / (x @ x))


def convergence_study(
    identity: str, setup: VerificationSetup, base: Resolution, levels: int
) -> list:
    """Run one identity at geometrically refined resolutions and attach the
    fitted empirical order (``fit_order``) to every report.  The identity's
    level-free part (``trace-inversion``'s composition, axis specs with their
    ``D[1]`` and trace sum) is computed once per study, at the first level,
    whose ``seconds`` carry its cost; every later level runs only what reads
    its resolution (for ``trace-inversion``, the remainder's four direct-rule
    integrals), and a second study computes that part again."""
    if levels < 1:
        raise ValueError("need at least one level")
    held = {}
    reports = [run_identity(identity, setup, base.scaled(2**i), held) for i in range(levels)]
    if levels >= 2:
        order = fit_order(reports)
        for r in reports:
            r.order = order
    return reports
