"""Trace-direction fractional operators on a bicomplex hyper-rectangle.

A product-type function ``F = f1*E + f2*E'`` on the rectangle is acted on by
four one-dimensional proportional fractional operators, one per real
coordinate (``x1, y1`` in the first component plane, ``x2, y2`` in the
second).  Each acts along the horizontal or vertical line through a fixed
base point ``W``, with the scalar weight obtained by restricting the
product-type weight ``phi`` to that line.  Every operator is left-sided
(``a+``): it is anchored at the lower rectangle edges.

On top of the trace integrals and derivatives sit the composition identity
(derivative of integral equals trace sum plus an explicit remainder), the
proportional weighted Cauchy-Riemann operator, and its exponential
factorization through a multiplier ``lambda`` solving a first-order PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, EmptyProbesError, UnsupportedWeightsError
from .fracops1d import (
    FracSpec,
    Quadrature1D,
    ScalarWeightFn,
    _barycentric,
    _chebyshev_points,
    derivative_of_integral,
    derivative_of_one,
    difference_step,
    prop_frac_derivative,
    prop_frac_integral,
    tabulate,
)
from .hypercomplex import BicomplexNumber, HyperbolicNumber
from .weighted_cr import PlaneFunction, ProductFunction, WeightPair, apply_cr_weighted


@dataclass(frozen=True)
class RectDomain:
    """Product of two axis-aligned rectangles, one per component plane."""

    a1: float
    b1: float
    c1: float
    d1: float
    a2: float
    b2: float
    c2: float
    d2: float

    def __post_init__(self):
        # every grid, step and weight restriction reads the spans b - a
        if not all(a < b and math.isfinite(b - a) for a, b in map(self.axis_interval, range(4))):
            raise ValueError("rectangle bounds must satisfy a < b and c < d, with finite spans")

    def axis_interval(self, axis: int) -> tuple:
        return (
            (self.a1, self.b1),
            (self.c1, self.d1),
            (self.a2, self.b2),
            (self.c2, self.d2),
        )[axis]

    def contains(self, Z: BicomplexNumber) -> bool:
        """Whether the point ``Z`` lies in the domain, to 1e-12; a NaN
        coordinate lies nowhere.  Its components are complex scalars (numpy's
        too), compared in plain floats; an array point raises ``TypeError``."""
        tol = 1e-12
        z1, z2 = complex(Z.z1), complex(Z.z2)
        return (self.a1 - tol <= z1.real <= self.b1 + tol
                and self.c1 - tol <= z1.imag <= self.d1 + tol
                and self.a2 - tol <= z2.real <= self.b2 + tol
                and self.c2 - tol <= z2.imag <= self.d2 + tol)

    def point(self, fx1: float, fy1: float, fx2: float, fy2: float) -> BicomplexNumber:
        """Interior point given per-axis fractions in (0, 1)."""
        return BicomplexNumber(
            complex(self.a1 + fx1 * (self.b1 - self.a1), self.c1 + fy1 * (self.d1 - self.c1)),
            complex(self.a2 + fx2 * (self.b2 - self.a2), self.c2 + fy2 * (self.d2 - self.c2)),
        )

    def grid(self, l: int) -> tuple:
        """16 x 16 mesh ``(xs, ys)`` over component ``l``'s rectangle, edges
        included: where weights and scale functions are checked."""
        ax_x, ax_y = component_axes(l)
        lo_x, hi_x = self.axis_interval(ax_x)
        lo_y, hi_y = self.axis_interval(ax_y)
        return np.meshgrid(np.linspace(lo_x, hi_x, 16), np.linspace(lo_y, hi_y, 16))


def component_axes(l: int) -> tuple:
    """Trace axes ``(x, y)`` of component plane ``l``: ``(0, 1)`` for the
    first plane, ``(2, 3)`` for the second."""
    return (0, 1) if l == 1 else (2, 3)


@dataclass(frozen=True)
class Phi4:
    """Product-type positive weight ``phi = phi1*E + phi2*E'`` with strictly
    positive partials; restricted to axis lines it yields the scalar weights
    of the four trace directions.  ``exponents``, when set, declares each
    component additive, ``phi_l = x^dx + y^dy``, with one exponent per trace
    direction in the order ``(x1, y1, x2, y2)``: every restriction is then
    ``C + t^d``, the power form of ``ScalarWeightFn``."""

    comp1: PlaneFunction
    comp2: PlaneFunction
    exponents: Optional[tuple] = None

    @classmethod
    def fractal(cls, d0: float, d1: float, d2: float, d3: float) -> "Phi4":
        """Components ``x^d + y^d`` (exponents per axis; all four 1 is the
        ``linear`` preset ``x + y``).  An exponent other than 1 needs a
        rectangle in the open positive quadrant."""

        def power_pf(dx_exp, dy_exp):
            return PlaneFunction(
                f=lambda x, y: np.asarray(x, dtype=float) ** dx_exp + np.asarray(y, dtype=float) ** dy_exp,
                dx=lambda x, y: dx_exp * np.asarray(x, dtype=float) ** (dx_exp - 1.0)
                + 0.0 * np.asarray(y, dtype=float),
                dy=lambda x, y: dy_exp * np.asarray(y, dtype=float) ** (dy_exp - 1.0)
                + 0.0 * np.asarray(x, dtype=float),
            )

        exponents = tuple(float(d) for d in (d0, d1, d2, d3))
        return cls(power_pf(d0, d1), power_pf(d2, d3), exponents=exponents)

    def component(self, l: int) -> PlaneFunction:
        return self.comp1 if l == 1 else self.comp2

    def dphi(self, l: int, x, y):
        """``Dphi`` on component plane ``l`` at the plane points ``(x, y)``:
        the sum of the two partials, strictly positive."""
        c = self.component(l)
        return np.real(c.dx(x, y) + c.dy(x, y))

    def restriction(self, axis: int, W: BicomplexNumber, rect: RectDomain) -> ScalarWeightFn:
        """Scalar weight along one trace direction through ``W``: the real
        part of the component along ``_trace_line``, and of its partial in
        that direction."""
        comp = self.component(1 + axis // 2)
        phi = _trace_line(comp.f, W, axis)
        partial = _trace_line(comp.dx if axis % 2 == 0 else comp.dy, W, axis)
        lo, hi = rect.axis_interval(axis)
        return ScalarWeightFn(
            phi=lambda t: np.real(phi(t)),
            dphi=lambda t: np.real(partial(t)),
            lo=lo,
            hi=hi,
            exponent=None if self.exponents is None else self.exponents[axis],
        )

    def validate(self, rect: RectDomain) -> None:
        """Raise ``DomainError`` unless each component's values and partials
        are real and finite, and its partials positive, on ``rect.grid``.
        ``restriction`` keeps only real parts, so a complex component would
        otherwise lose its imaginary part unnoticed."""
        for l in (1, 2):
            xs, ys = rect.grid(l)
            comp = self.component(l)
            with np.errstate(all="ignore"):
                samples = np.array([comp.f(xs, ys), comp.dx(xs, ys), comp.dy(xs, ys)])
            if not (np.all(np.isfinite(samples)) and np.all(np.imag(samples) == 0)):
                raise DomainError("scale-function values and partials must be real and finite "
                                  "on the rectangle")
            if not np.all(np.real(samples[1:]) > 0):
                raise DomainError("weight partials must be finite and strictly positive "
                                  "on the rectangle")


@dataclass(frozen=True)
class FracParams:
    """Orders, proportions, weight, and discretization of the trace operators.

    ``alpha`` and ``sigma_vec`` hold one entry per trace direction in the
    order ``(x1, y1, x2, y2)``.  A proportion entry of ``0`` selects the
    degenerate limit in which that direction's operators are the identity;
    this is how the composite proportion ``(s0 + i*s1)*E + (s2 + i*s3)*E'``
    can equal ``1`` while the live directions stay classical.
    """

    rect: RectDomain
    alpha: tuple
    sigma_vec: tuple
    phi: Phi4
    quadrature: Quadrature1D

    def __post_init__(self):
        self.check_alpha(self.alpha)
        self.check_sigma(self.sigma_vec)

    @staticmethod
    def check_alpha(alpha) -> None:
        """Raise ``ValueError`` unless ``alpha`` is four orders in (0, 1)."""
        if len(alpha) != 4:
            raise ValueError("alpha must have four entries")
        if not all(0.0 < a < 1.0 for a in alpha):
            raise ValueError("fractional orders must lie in (0, 1)")

    @staticmethod
    def check_sigma(sigma_vec) -> None:
        """Raise ``ValueError`` unless ``sigma_vec`` is four proportions in
        [0, 1] whose composite proportion is invertible."""
        if len(sigma_vec) != 4:
            raise ValueError("sigma_vec must have four entries")
        if not all(0.0 <= s <= 1.0 for s in sigma_vec):
            raise ValueError("proportions must lie in [0, 1]")
        s0, s1, s2, s3 = sigma_vec
        if abs(complex(s0, s1)) == 0 or abs(complex(s2, s3)) == 0:
            raise ValueError("composite proportion must be invertible")

    @property
    def sigma(self) -> BicomplexNumber:
        s0, s1, s2, s3 = self.sigma_vec
        return BicomplexNumber(complex(s0, s1), complex(s2, s3))

    @property
    def one_minus_sigma(self) -> BicomplexNumber:
        s = self.sigma
        return BicomplexNumber(1.0 - s.z1, 1.0 - s.z2)

    def axis_spec(self, axis: int, W: BicomplexNumber) -> FracSpec:
        """1-D operator spec along one direction, of order ``1 - alpha``."""
        return FracSpec(1.0 - self.alpha[axis], self.sigma_vec[axis],
                        self.phi.restriction(axis, W, self.rect))


def dphi(phi: Phi4, Z: BicomplexNumber) -> HyperbolicNumber:
    """Sum of the two partials per component, a strictly positive hyperbolic
    value used to scale the weighted derivative."""
    return HyperbolicNumber(phi.dphi(1, np.real(Z.z1), np.imag(Z.z1)),
                            phi.dphi(2, np.real(Z.z2), np.imag(Z.z2)))


def _trace_line(fn: Callable, P: BicomplexNumber, axis: int) -> Callable:
    """The line of the plane function ``fn(x, y)`` along ``axis`` through
    ``P``: ``t -> fn(t, Im p)`` on an x axis and ``t -> fn(Re p, t)`` on a y
    axis, ``p`` the component of ``P`` in that axis's plane."""
    held = _axis_coord(P, axis ^ 1)  # the other axis of the same plane
    if axis % 2 == 0:
        return lambda t: fn(t, held)
    return lambda t: fn(held, t)


def _axis_line(F: ProductFunction, W: BicomplexNumber, axis: int) -> Callable:
    return _trace_line(F.component(1 + axis // 2).f, W, axis)


def _axis_coord(Z: BicomplexNumber, axis: int) -> float:
    z = Z.z1 if axis < 2 else Z.z2
    return float(np.real(z)) if axis % 2 == 0 else float(np.imag(z))


def _check_points(p: FracParams, *points) -> None:
    for P in points:
        if not p.rect.contains(P):
            raise DomainError("point outside the rectangle")


def axis_integral(F, W, p: FracParams, axis: int, targets):
    """Batched left trace integral of order ``1 - alpha[axis]`` along one
    axis."""
    return prop_frac_integral(
        _axis_line(F, W, axis), p.axis_spec(axis, W), targets, p.quadrature
    )


def axis_surrogate(F, W, p: FracParams, axis: int) -> Callable:
    """Surrogate (``tabulate``) of the left trace integral of order ``1 -
    alpha[axis]`` along one axis: a callable on coordinate arrays."""
    return tabulate(_axis_line(F, W, axis), p.axis_spec(axis, W), p.quadrature)


def axis_derivative(line: Callable, W, p: FracParams, axis: int, targets,
                    h: Optional[float] = None):
    """Batched left trace derivative of order ``1 - alpha[axis]`` of a line
    map; ``h`` as in ``prop_frac_derivative``."""
    return prop_frac_derivative(line, p.axis_spec(axis, W), targets, p.quadrature, h=h)


def trace_sum(F: ProductFunction, W: BicomplexNumber, Z: BicomplexNumber) -> BicomplexNumber:
    """Sum of ``F`` along the horizontal and vertical traces through ``W``."""
    vals = [_axis_line(F, W, ax)(_axis_coord(Z, ax)) for ax in range(4)]
    return BicomplexNumber(vals[0] + vals[1], vals[2] + vals[3])


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def axis_terms(W: BicomplexNumber, p: FracParams, Z: BicomplexNumber) -> tuple:
    """Per axis, the spec of its trace operator through ``W``
    (``FracParams.axis_spec``) and ``D[1]`` at ``Z`` on it
    (``derivative_of_one``): what the composition and the remainder share,
    and what no resolution changes.  ``D[1]`` is infinite where ``Z`` sits on
    an axis's anchor."""
    _check_points(p, Z, W)
    specs = [p.axis_spec(ax, W) for ax in range(4)]
    return tuple((spec, derivative_of_one(spec, _axis_coord(Z, ax))) for ax, spec in enumerate(specs))


def remainder_R(F, W: BicomplexNumber, p: FracParams, Z: BicomplexNumber,
                terms: Optional[tuple] = None) -> BicomplexNumber:
    """Cross terms (direct-rule integral along one direction times
    ``derivative_of_one`` along the other) left over by the composition identity.

    ``terms`` are the four (spec, ``D[1]``) pairs of ``axis_terms``, from a
    caller that holds them across levels; without them the remainder builds
    them.  Either way it runs the four one-target direct-rule integrals
    (``prop_frac_integral`` on ``p.quadrature``)."""
    _check_points(p, Z, W)
    terms = axis_terms(W, p, Z) if terms is None else terms
    i_vals = [prop_frac_integral(_axis_line(F, W, ax), spec, _axis_coord(Z, ax), p.quadrature)
              for ax, (spec, _) in enumerate(terms)]
    (p1x, d1x), (p1y, d1y), (p2x, d2x), (p2y, d2y) = terms
    return BicomplexNumber(_cross(i_vals[1], p1y, d1x) + _cross(i_vals[0], p1x, d1y),
                           _cross(i_vals[2], p2x, d2y) + _cross(i_vals[3], p2y, d2x))


def _cross(s, s_spec: FracSpec, d_one):
    """A cross term ``s * D[1]``, ``s`` the trace integral along the axis of
    ``s_spec``: zero where ``s`` is, also at the anchor, where ``D[1]`` is
    infinite.  Along an axis of proportion zero ``s`` is ``f`` itself, on
    both sides of the identity, so where ``D[1]`` is infinite both would
    hold the same infinite term: it is left out of both."""
    if s == 0 or (s_spec.sigma == 0.0 and d_one == np.inf):
        return 0.0
    return s * d_one


#: Chebyshev samples of the deep area and boundary maps per live trace line
#: (``_trace_derivative_of_map``).  On the stall setup (classical weights,
#: linear phi, ``poly``, alpha 0.5, sigma (0.7, 0, 0.7, 0)) at (8, 8, 64) ...
#: (128, 128, 1024), largest move of l1 or l2 from the direct area map, and
#: time of the finest level (one BLAS thread, 2-CPU Xeon): 16 samples 9.1%,
#: 0.17 s; 32 samples 6.1%, 0.19 s; 64 samples 1.6%, 0.22 s; direct 3.5 s.
#: Along the line, the m-map and its 32-sample surrogate are equally far from
#: the 2m map, 0.15-0.35% of its size at m = 16 ... 64 (BENCH_27.json).  The
#: boundary half alone moves from the direct boundary map by at most 3.3e-10,
#: 3.2e-10 and 3.2e-10 absolute at 16, 32 and 64 samples (all at (8, 8, 64);
#: 2.6e-13, 2.8e-13 and 9.8e-14 at the finest level), and its finest level
#: takes 8, 8 and 12 ms against 108 ms direct (BENCH_29.json).
_MAP_LINE_SAMPLES = 32
#: Step of ``_trace_derivative_of_map``, a fraction of the span: its quotients
#: act on one fixed smooth map, and fifty times ``difference_step`` does not amplify its noise.
_MAP_STEP = 5e-3


def _trace_derivative_of_map(plane_map: Callable, l: int, Z, W, p: FracParams, region: tuple):
    """The two-direction trace derivative (in the real components of ``Z``,
    with weight restrictions anchored through ``W``) of a scalar field
    ``plane_map(xs, ys)`` on component plane ``l``: one ``axis_derivative``
    per direction, along the map's ``_trace_line`` through ``Z``, with
    difference step ``h = _MAP_STEP`` times that axis's span.

    ``region`` gives, per direction, the bounds ``(a, end)`` outside which
    the map is constant: the deep area map's clamp region, or the
    rectangle's interval for the deep boundary map, which has no clamp.  A
    direction of nonzero proportion reads the map through the barycentric
    interpolant at ``_MAP_LINE_SAMPLES`` Chebyshev points of ``[a, min(coord
    + h, end)]``: the part of the line that the outer rule reads, within the
    region (when that is empty, one sample at ``a``, the constant there).  A
    direction of proportion zero needs the map at ``Z`` only: its derivative
    is the identity.  The map is called once, on the points of both
    directions."""
    rows = []  # per direction: axis, coordinate, step, sampled interval, angles and points
    for axis, (a, end) in zip(component_axes(l), region):
        coord, (lo, hi) = _axis_coord(Z, axis), p.rect.axis_interval(axis)
        h = _MAP_STEP * (hi - lo)
        b = max(a, min(coord + h, end))
        theta, ts = ((None, np.array([coord])) if p.sigma_vec[axis] == 0.0
                     else _chebyshev_points(a, b, _MAP_LINE_SAMPLES if b > a else 1))
        rows.append((axis, coord, h, a, b, theta, ts))
    points = np.concatenate([_trace_line(lambda x, y: x + 1j * y, Z, axis)(ts)
                             for axis, *_, ts in rows])
    values = np.asarray(plane_map(points.real, points.imag), dtype=complex)
    total = 0.0 + 0.0j
    for (axis, coord, h, a, b, theta, ts), vals in zip(rows, np.split(values, [rows[0][-1].size])):
        total += vals[0] if theta is None else axis_derivative(
            _barycentric(theta, ts, vals, a, b), W, p, axis, coord, h=h)
    return total


def compose_derivative_of_integral(F, W, p: FracParams, Z: BicomplexNumber,
                                   terms: Optional[tuple] = None) -> BicomplexNumber:
    """Honest numerical composition: the four-direction derivative applied to
    the map ``Z' -> (I F)(Z', W)``, each direction acting on the trace of
    that map through the current point ``Z``.

    Per component the map is ``S_x(x) + S_y(y)``, the integrals along the two
    axes through ``W``, so its derivative at ``Z`` is ``D_x[S_x] + S_y *
    D_x[1] + D_y[S_y] + S_x * D_y[1]``.  Each axis takes ``S`` and ``D[S]``
    from one ``derivative_of_integral`` call, a Jacobi series exact to about
    1e-14 at a cost that does not depend on ``n``, and its spec and ``D[1]``
    from ``terms`` (``axis_terms``, built here when not given), as the
    remainder does.  An axis of proportion zero is the identity.
    """
    terms = axis_terms(W, p, Z) if terms is None else terms
    out = []
    for l in (1, 2):
        (sx, dsx), (sy, dsy) = (derivative_of_integral(_axis_line(F, W, ax), terms[ax][0], _axis_coord(Z, ax))
                                for ax in component_axes(l))
        (px, d1x), (py, d1y) = (terms[ax] for ax in component_axes(l))
        out.append(dsx + _cross(sy, py, d1x) + dsy + _cross(sx, px, d1y))
    return BicomplexNumber(out[0], out[1])


class InversionTerms(NamedTuple):
    """What the levels of a trace-inversion study share: every term of its
    residual but the remainder's four direct-rule integrals."""

    di: BicomplexNumber  # the composition, compose_derivative_of_integral
    axes: tuple  # per axis, its spec and D[1] at Z (axis_terms)
    tsum: BicomplexNumber  # trace_sum at Z


def inversion_terms(F, W: BicomplexNumber, p: FracParams, Z: BicomplexNumber) -> InversionTerms:
    """The level-free part of ``inversion_check``."""
    axes = axis_terms(W, p, Z)
    return InversionTerms(compose_derivative_of_integral(F, W, p, Z, axes), axes, trace_sum(F, W, Z))


def inversion_check(F, W: BicomplexNumber, p: FracParams, Z: BicomplexNumber,
                    held: Optional[InversionTerms] = None) -> HyperbolicNumber:
    """Residual of the composition identity: derivative of the integral minus
    the trace sum minus the remainder.  The composition is exact to about
    1e-14 (``compose_derivative_of_integral``), and the composition and the
    remainder read the same ``derivative_of_one``, so the residual tracks
    the error of the remainder's direct-rule integrals.

    Only those integrals read ``p.quadrature``, so a caller that holds the
    rest passes it as ``held`` (``inversion_terms``): a convergence study
    builds it once, at its first level (``quadrature_verify.Identity.level_free``),
    and each level checks its points and runs the remainder's four
    direct-rule integrals.  Without ``held`` the result is the same, bit for bit."""
    if held is None:
        held = inversion_terms(F, W, p, Z)
    return (held.di - (held.tsum + remainder_R(F, W, p, Z, held.axes))).mod_k()


def _stencil(p: FracParams, axis: int, coords: np.ndarray) -> tuple:
    """The four points of ``_axis_partial_batched``'s quotients about each of
    ``coords``: steps ``h = difference_step`` and ``2h`` below and above,
    each clipped at the interval ends."""
    lo, hi = p.rect.axis_interval(axis)
    h = difference_step(lo, hi)
    return (np.maximum(coords - 2 * h, lo), np.maximum(coords - h, lo),
            np.minimum(coords + h, hi), np.minimum(coords + 2 * h, hi))


def _axis_partial_batched(integral: Callable, p: FracParams, axis: int, coords,
                          centre: bool = False):
    """Derivative along ``axis`` of the 1-D trace integral ``integral`` (a
    callable on coordinate arrays) at each of ``coords`` (an array of any
    shape): the Richardson combination ``(4*D_h - D_2h) / 3`` of two central
    differences, of steps ``h = difference_step`` and ``2h``, each clipped
    one-sided at the interval ends.  ``integral`` is called once, on the
    whole four-point stencil as one flat array, and with ``centre`` on
    ``coords`` too; the result is then the pair of the derivative and the
    integral at ``coords``."""
    coords = np.asarray(coords, dtype=float)
    t = _stencil(p, axis, coords) + ((coords,) if centre else ())
    g = np.reshape(integral(np.concatenate([np.ravel(tk) for tk in t])), (len(t),) + coords.shape)
    d_h = (g[2] - g[1]) / (t[2] - t[1])
    d_2h = (g[3] - g[0]) / (t[3] - t[0])
    d = (4.0 * d_h - d_2h) / 3.0
    return (d, g[4]) if centre else d


def trace_component(ix: Callable, iy: Callable, xs, ys):
    """Component of the trace integral, ``ix(xs) + iy(ys)`` for the
    component's two per-axis trace integrals, at paired points or per axis,
    broadcast onto the grid of a column ``xs`` and a row ``ys``."""
    return ix(xs) + iy(ys)


def frac_cr_component(ix: Callable, iy: Callable, p: FracParams, wp: WeightPair, l: int, xs, ys):
    """Component of the proportional weighted CR operator at paired points
    or per axis, broadcast as in ``trace_component``: ``(1 - sigma) * g +
    sigma * (weighted CR of g) / Dphi`` for the trace integral ``g =
    trace_component(ix, iy, xs, ys)``.  The partials are
    ``_axis_partial_batched`` of ``ix`` on ``xs`` and ``iy`` on ``ys``: the
    Richardson combination of central differences of steps ``h`` and ``2h``
    (``h = difference_step``), one call of each integral on its four-point
    stencil.  The identities pass the per-axis surrogates
    (``quadrature_verify._trace_integrals``), ``frac_cr_apply`` the direct
    rule.  Where the component's proportion is not 1, the same call also
    takes the points themselves, and ``g`` is ``ix(xs) + iy(ys)`` from it;
    where the proportion is 1, ``g`` is not evaluated."""
    ax_x, ax_y = component_axes(l)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    sig = p.sigma.z1 if l == 1 else p.sigma.z2
    centre = sig != 1
    dgx = _axis_partial_batched(ix, p, ax_x, xs, centre)
    dgy = _axis_partial_batched(iy, p, ax_y, ys, centre)
    if centre:
        (dgx, gx), (dgy, gy) = dgx, dgy
    cr = apply_cr_weighted(wp, l, xs, ys, dgx, dgy)
    out = sig * cr / p.phi.dphi(l, xs, ys)
    if centre:
        out = (1.0 - sig) * (gx + gy) + out
    return out


def _direct_rows(F, W: BicomplexNumber, p: FracParams, Z: BicomplexNumber) -> list:
    """Per axis, the direct rule's trace integral on the four-point stencil
    of ``Z``'s coordinate (``_stencil``) and at ``Z``: one ``axis_integral``
    call of five targets, held as a callable that reads the values back by
    coordinate (a ``KeyError`` for any other)."""
    _check_points(p, Z, W)
    rows = []
    for ax in range(4):
        x = np.array([_axis_coord(Z, ax)])
        t = np.concatenate(_stencil(p, ax, x) + (x,))
        table = dict(zip(t.tolist(), axis_integral(F, W, p, ax, t)))
        rows.append(lambda s, table=table: np.reshape(
            [table[v] for v in np.ravel(s).tolist()], np.shape(s)))
    return rows


def frac_cr_apply(F, W: BicomplexNumber, p: FracParams, wp: WeightPair,
                  Z: BicomplexNumber, rows: Optional[list] = None) -> BicomplexNumber:
    """Proportional weighted Cauchy-Riemann operator of the trace integral,
    ``(1 - sigma) * (I F) + sigma * (weighted CR of I F) / Dphi``, at ``Z``:
    ``frac_cr_component`` per component on the direct rule's trace
    integrals, one rule call of five targets per axis (``Z`` and the
    four-point stencil, ``_direct_rows``).  A caller that holds those rows
    passes them (``factorization_check`` does)."""
    rows = _direct_rows(F, W, p, Z) if rows is None else rows
    comps = []
    for l in (1, 2):
        axes = component_axes(l)
        x, y = (_axis_coord(Z, ax) for ax in axes)
        comps.append(frac_cr_component(*(rows[ax] for ax in axes), p, wp, l, x, y)[0])
    return BicomplexNumber(comps[0], comps[1])


def lambda_residual(lam: ProductFunction, wp: WeightPair, p: FracParams, probes) -> float:
    """Largest pointwise residual of the multiplier PDE
    ``theta * dlam/dx + phi_w * dlam/dy = Dphi * (1 - sigma) / sigma``."""
    probes = list(probes)
    if not probes:
        raise EmptyProbesError("probe list is empty")
    factor = p.one_minus_sigma * p.sigma.invert()
    worst = 0.0
    for l, factor_l in ((1, factor.z1), (2, factor.z2)):
        ax_x, ax_y = component_axes(l)
        x = np.array([_axis_coord(P, ax_x) for P in probes])
        y = np.array([_axis_coord(P, ax_y) for P in probes])
        lam_fn = lam.component(l)
        lhs = apply_cr_weighted(wp, l, x, y, lam_fn.dx(x, y), lam_fn.dy(x, y))
        rhs = p.phi.dphi(l, x, y) * factor_l
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def lambda_for_constant_weights(wp: WeightPair, p: FracParams) -> ProductFunction:
    """Solve the multiplier PDE for constant weights and constant ``Dphi``
    with the particular solution linear in ``x``; the multiplier is the
    product-type function ``lambda = lambda1*E + lambda2*E'``."""
    if wp.const_values is None:
        raise UnsupportedWeightsError("multiplier construction needs constant weights")
    if p.sigma.z1 == 1 and p.sigma.z2 == 1:
        return ProductFunction.constant(0.0)
    center = p.rect.point(0.5, 0.5, 0.5, 0.5)
    corner = p.rect.point(0.1, 0.9, 0.9, 0.1)
    d_center, d_corner = dphi(p.phi, center), dphi(p.phi, corner)
    if abs(d_center.l1 - d_corner.l1) > 1e-10 or abs(d_center.l2 - d_corner.l2) > 1e-10:
        raise UnsupportedWeightsError(
            "multiplier construction needs constant Dphi (linear weight preset)"
        )
    factor = p.one_minus_sigma * p.sigma.invert()
    rhs = d_center.as_bicomplex() * factor
    th1, ph1, th2, ph2 = wp.const_values
    comps = []
    for rhs_c, th in ((rhs.z1, th1), (rhs.z2, th2)):
        if th == 0:
            raise UnsupportedWeightsError("multiplier construction needs a nonzero constant theta")
        slope = rhs_c / th
        comps.append(
            PlaneFunction(
                f=lambda x, y, s=slope: s * x + 0.0 * np.asarray(y, dtype=float),
                dx=lambda x, y, s=slope: s * _one(x) * _one(y),
                dy=lambda x, y: 0j * np.asarray(x, dtype=float) * _one(y),
            )
        )
    return ProductFunction(comps[0], comps[1])


def factorization_check(
    F,
    W: BicomplexNumber,
    p: FracParams,
    wp: WeightPair,
    lam: ProductFunction,
    Z: BicomplexNumber,
) -> HyperbolicNumber:
    """Residual between the proportional weighted CR operator and its
    exponential factorization ``exp(-lambda) * Dphi^{-1} * sigma *
    (weighted CR of exp(lambda) * I F)``.  The direct rule runs once per
    axis, on the four-point stencil and ``Z`` (``_direct_rows``), and both
    sides read those rows: the operator through ``frac_cr_apply``, and the
    factorization's partials of ``exp(lambda) * (I F)`` on the same
    stencil."""
    rows = _direct_rows(F, W, p, Z)
    lhs = frac_cr_apply(F, W, p, wp, Z, rows)
    comps = []
    for l in (1, 2):
        ax_x, ax_y = component_axes(l)
        x, y = _axis_coord(Z, ax_x), _axis_coord(Z, ax_y)
        lam_fn = lam.component(l)
        lam_x, lam_y = (_trace_line(lam_fn.f, Z, ax) for ax in (ax_x, ax_y))
        ix, iy = rows[ax_x], rows[ax_y]
        # exp(lambda) * (I F) along each axis through Z, with the other
        # direction's integral held at its value at Z
        dmx = _axis_partial_batched(lambda s: np.exp(lam_x(s)) * (ix(s) + iy(y)), p, ax_x, x)
        dmy = _axis_partial_batched(lambda s: np.exp(lam_y(s)) * (iy(s) + ix(x)), p, ax_y, y)
        comps.append(np.exp(-lam_fn.f(x, y)) * apply_cr_weighted(wp, l, x, y, dmx, dmy))

    cr_part = BicomplexNumber(comps[0], comps[1])
    rhs = p.sigma * dphi(p.phi, Z).as_bicomplex().invert() * cr_part
    return (lhs - rhs).mod_k()
