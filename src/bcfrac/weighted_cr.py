"""Weighted Cauchy-Riemann operators on the plane and their bicomplex lift.

A weight pair ``(theta, phi_w)`` consists of four complex-valued plane
functions, one ``(theta_l, phi_wl)`` pair per idempotent component.  The
paper states its identities for pointwise hyperbolically orthogonal pairs
(``<theta_l, phi_wl>_C = 0``); that hypothesis is not enforced here.  The
classical pair is ``theta = 1``, ``phi_w = i``, for which the weighted
operator ``theta*d/dx + phi_w*d/dy`` reduces to twice the Wirtinger
anti-holomorphic derivative.

The weighted operator, the divergence of the weights and the weighted
contour element ``theta dy - phi_w dx`` are written once each, per component
plane on arrays of points (:func:`apply_cr_weighted`,
:func:`weight_divergence`, :func:`boundary_measure`); every residual calls
them.

Cauchy-type kernels are provided for the classical pair and for constant
orientation-preserving pairs, where a real-linear substitution turns the
weighted operator into the classical one.  :class:`CauchyKernel` alone knows
that kernel: its sums, their close evaluation near a contour and its area
integral over a rectangle, each smooth in the evaluation point, so that trace
derivatives can act on them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedWeightsError

#: Element budget per block of targets in ``CauchyKernel.sums``: 32768
#: complex entries, a 512 KB block (8 rows of the 4096 area sources at m =
#: 32).  Median warm time per item (ms) of the deep reconstructions
#: bg-reconstruction / bp-general at m = k = 32, whose area lines send 32
#: targets per sum, one BLAS thread, 2-CPU Intel Xeon, by budget, in two
#: rounds: 8192 12.5 / 16.8 and 14.5 / 19.4, 16384 12.0 / 16.9 and 14.0 /
#: 19.3, 32768 12.3 / 16.0 and 13.5 / 17.5, 65536 12.5 / 16.7 and 14.9 /
#: 20.2, 131072 13.2 / 17.6 and 15.4 / 21.1.
_KERNEL_BLOCK_ELEMENTS = 32_768

#: Close-evaluation radius of ``CauchyKernel.boundary_sums``, in panel
#: half-lengths.  Max error against Cauchy's formula (tests/test_weighted_cr.py
#: ``TestCloseEvaluation``) at k = 8 / 16 / 32 / 64, by radius: 3: 1.5e-7 /
#: 1.2e-7 / 1.2e-7 / 1.2e-7 (the first panel outside keeps its 4-point error);
#: 5: 2.2e-8 / 1.4e-9 / 1.0e-9 / 1.0e-9; 8: 2.2e-8 / 1.2e-9 / 7.2e-11 / 1.7e-11;
#: plain sums 2.7 ... 7.3.  The deep reconstruction's boundary half takes 10.1
#: ms at radius 3 and 10.9 ms at 8 for m = k = 32, n = 256; 103 ms at both for
#: (128, 128, 1024) (one BLAS thread, 2-CPU Xeon).
_CLOSE_RADIUS = 8.0
#: The 4-point Gauss-Legendre nodes on ``[-1, 1]``, the roots of ``P(t) = t^4
#: - 6/7 t^2 + 3/35``.  Row ``j``, column ``i`` of ``_GL4_CLOSE`` is the
#: coefficient of ``t^j`` in node ``i``'s Lagrange polynomial ``P(t) / ((t -
#: x_i) P'(x_i))`` over its weight ``(128/1225) / ((1 - x_i^2) P'(x_i)^2)``.
_GL4_NODES = np.sqrt((3.0 + np.array([2.0, -2.0, -2.0, 2.0]) * np.sqrt(1.2)) / 7.0) * [-1, -1, 1, 1]
_GL4_CLOSE = (np.array([_GL4_NODES**3 - 6 / 7 * _GL4_NODES, _GL4_NODES**2 - 6 / 7,
                        _GL4_NODES, [1] * 4])
              * (1 - _GL4_NODES**2) * (4 * _GL4_NODES**3 - 12 / 7 * _GL4_NODES) * 1225 / 128)


@dataclass(frozen=True)
class PlaneFunction:
    """Complex-valued function of a plane point with analytic partials.

    All three callables map ``(x, y)`` arrays to complex values.  Partials
    are supplied, not differenced."""

    f: Callable
    dx: Callable
    dy: Callable

    @classmethod
    def constant(cls, c: complex) -> "PlaneFunction":
        c = complex(c)
        return cls(
            f=lambda x, y: np.full(np.broadcast(x, y).shape, c) if np.ndim(x) or np.ndim(y) else c,
            dx=lambda x, y: np.zeros(np.broadcast(x, y).shape, dtype=complex) if np.ndim(x) or np.ndim(y) else 0j,
            dy=lambda x, y: np.zeros(np.broadcast(x, y).shape, dtype=complex) if np.ndim(x) or np.ndim(y) else 0j,
        )

    @classmethod
    def from_holomorphic(cls, fn: Callable, dfn: Callable) -> "PlaneFunction":
        """Lift ``fn(z)`` with derivative ``dfn(z)``; then ``dy = i*dx``."""
        return cls(
            f=lambda x, y: fn(x + 1j * y),
            dx=lambda x, y: dfn(x + 1j * y),
            dy=lambda x, y: 1j * dfn(x + 1j * y),
        )

    @classmethod
    def from_antiholomorphic(cls, fn: Callable, dfn: Callable) -> "PlaneFunction":
        """Lift ``fn(conj(z))``; useful for non-holomorphic test inputs."""
        return cls(
            f=lambda x, y: fn(x - 1j * y),
            dx=lambda x, y: dfn(x - 1j * y),
            dy=lambda x, y: -1j * dfn(x - 1j * y),
        )

    def __mul__(self, other) -> "PlaneFunction":
        if isinstance(other, (int, float, complex)):
            other = PlaneFunction.constant(other)
        a, b = self, other
        return PlaneFunction(
            f=lambda x, y: a.f(x, y) * b.f(x, y),
            dx=lambda x, y: a.dx(x, y) * b.f(x, y) + a.f(x, y) * b.dx(x, y),
            dy=lambda x, y: a.dy(x, y) * b.f(x, y) + a.f(x, y) * b.dy(x, y),
        )

    __rmul__ = __mul__


@dataclass(frozen=True)
class WeightPair:
    """Bicomplex weight functions ``theta = theta1*E + theta2*E'`` and
    ``phi_w = phi1*E + phi2*E'``."""

    theta1: PlaneFunction
    theta2: PlaneFunction
    phi1: PlaneFunction
    phi2: PlaneFunction
    #: Set when the pair is constant: ``(theta1, phi1, theta2, phi2)`` values.
    const_values: Optional[tuple] = None

    @classmethod
    def classical(cls) -> "WeightPair":
        one = PlaneFunction.constant(1.0)
        eye = PlaneFunction.constant(1j)
        return cls(one, one, eye, eye, const_values=(1.0 + 0j, 1j, 1.0 + 0j, 1j))

    @classmethod
    def constant(cls, theta: complex, phi: complex) -> "WeightPair":
        th, ph = complex(theta), complex(phi)
        return cls(
            PlaneFunction.constant(th),
            PlaneFunction.constant(th),
            PlaneFunction.constant(ph),
            PlaneFunction.constant(ph),
            const_values=(th, ph, th, ph),
        )

    @classmethod
    def scaled_classical(cls, g: PlaneFunction) -> "WeightPair":
        """Pair ``theta = 1``, ``phi_w = i*g`` with ``g`` real-valued;
        orthogonal by construction for every real ``g``."""
        one = PlaneFunction.constant(1.0)
        ig = 1j * g
        return cls(one, one, ig, ig)

    def component(self, l: int) -> tuple:
        if l == 1:
            return self.theta1, self.phi1
        if l == 2:
            return self.theta2, self.phi2
        raise ValueError("component index must be 1 or 2")


@dataclass(frozen=True)
class ProductFunction:
    """Bicomplex function ``F(Z) = f1(z1)*E + f2(z2)*E'`` of product type."""

    f1: PlaneFunction
    f2: PlaneFunction

    @classmethod
    def from_holomorphic(cls, fn, dfn) -> "ProductFunction":
        pf = PlaneFunction.from_holomorphic(fn, dfn)
        return cls(pf, pf)

    @classmethod
    def from_antiholomorphic(cls, fn, dfn) -> "ProductFunction":
        pf = PlaneFunction.from_antiholomorphic(fn, dfn)
        return cls(pf, pf)

    @classmethod
    def constant(cls, c: complex) -> "ProductFunction":
        pf = PlaneFunction.constant(c)
        return cls(pf, pf)

    def component(self, l: int) -> PlaneFunction:
        return self.f1 if l == 1 else self.f2


def apply_cr_weighted(wp: WeightPair, l: int, x, y, a, b):
    """Weighted Cauchy-Riemann operator ``theta_l*a + phi_wl*b`` on component
    plane ``l``, where ``a`` and ``b`` are the x- and y-partials of the
    operand at the plane points ``(x, y)``."""
    th_fn, ph_fn = wp.component(l)
    return th_fn.f(x, y) * a + ph_fn.f(x, y) * b


def weight_divergence(wp: WeightPair, l: int, x, y):
    """Divergence ``d(theta_l)/dx + d(phi_wl)/dy`` of the weights at the
    plane points ``(x, y)``: the extra term of the weighted Gauss identity,
    zero for constant weights."""
    th_fn, ph_fn = wp.component(l)
    return th_fn.dx(x, y) + ph_fn.dy(x, y)


def boundary_measure(wp: WeightPair, l: int, z, wx, wy):
    """Weighted contour element ``theta_l*dy - phi_wl*dx`` at the contour
    points ``z`` with tangent steps ``(wx, wy)``; ``-i*dz`` for the classical
    pair."""
    th_fn, ph_fn = wp.component(l)
    return th_fn.f(z.real, z.imag) * wy - ph_fn.f(z.real, z.imag) * wx


class CauchyKernel:
    """Cauchy-type kernel for classical or constant weight pairs.

    For a constant pair the real-linear substitution
    ``s(v) = (theta - i*phi_w)*v - (theta + i*phi_w)*conj(v)`` straightens
    the weighted operator into a Wirtinger derivative, and the kernel is
    ``-i / (pi * (s(v) - s(z)))`` per component.  The classical pair gives
    ``1 / (2*pi*i*(v - z))``.  The contour integral of the kernel against
    the weighted measure ``theta dy - phi_w dx`` around its pole is ``-i``
    for every such pair, so the associated Cauchy-Pompeiu identity
    reconstructs ``-i * f(z)`` and its normalization is exact.
    """

    def __init__(self, wp: WeightPair):
        if wp.const_values is None:
            raise UnsupportedWeightsError("Cauchy kernel needs constant weights")
        th1, ph1, th2, ph2 = wp.const_values
        self.pairs = ((th1, ph1), (th2, ph2))
        self._maps = []
        for th, ph in self.pairs:
            # the Jacobian of s(v), by which _wedge_recip_area divides, is 4
            # Im(conj(theta)*phi_w): positive exactly for an orientation
            # preserving pair.  Python complex arithmetic overflows to inf
            # without a warning.
            a, b = th - 1j * ph, -(th + 1j * ph)
            jacobian = abs(a) * abs(a) - abs(b) * abs(b)
            if not (cmath.isfinite(a) and cmath.isfinite(b) and math.isfinite(jacobian)
                    and jacobian > 0):
                raise UnsupportedWeightsError(
                    "constant pair must be orientation preserving with a finite kernel "
                    f"(Jacobian |a|^2 - |b|^2 = {jacobian:.3e} must be finite and positive)"
                )
            self._maps.append((a, b))
        self.wp = wp

    def smap(self, l: int, v):
        a, b = self._maps[l - 1]
        return a * v + b * np.conjugate(v)

    def component(self, l: int) -> Callable:
        """Vectorized kernel ``(v, z) -> E_l(v, z)`` on one component plane."""

        def kernel(v, z):
            return (-1j / np.pi) / (self.smap(l, v) - self.smap(l, z))

        return kernel

    def sums(self, l: int, sources, charges, targets):
        """Kernel sums ``sum_v charges[v] * E_l(v, z)`` at every target ``z``.

        ``sources`` and ``targets`` are points of component plane ``l``;
        ``charges`` holds one row per source and any number of columns, and
        the result has shape ``targets.shape + charges.shape[1:]``.  A source
        within 1e-13 of a target in straightened coordinates adds zero.

        In straightened coordinates the kernel is a plain Cauchy kernel, so
        each block of targets is one complex difference ``s(v) - s(z)``, one
        reciprocal and, per charge column, one complex matrix-vector product
        against that column scaled by ``-i/pi`` (at two columns, half the
        time of a two-column BLAS product of these shapes).  Targets run in
        row blocks of ``_KERNEL_BLOCK_ELEMENTS`` entries.  The coincident
        source-target pairs are found once per call, from the sources sorted
        by real part, and zeroed in their block.
        """
        s_src, s_tgt, q = self._straightened(l, sources, charges, targets)
        flat = s_tgt.ravel()
        out = _block_sums(s_src, q, flat, *_coincident_pairs(s_src, flat))
        return out.T.reshape(s_tgt.shape + np.shape(charges)[1:])

    def boundary_sums(self, l: int, sources, charges, targets):
        """``sums`` over a contour of 4-point Gauss-Legendre panels (runs of
        four sources, each charge a Gauss weight times the density), with
        close evaluation (Helsing & Ojala, J. Comput. Phys. 227 (2008)
        2899-2921).  A panel's 4-point term is wrong by O(1) within a panel
        length, so where a target's coordinate ``zeta`` in the panel's ``[-1,
        1]`` parametrization has ``|zeta| < _CLOSE_RADIUS``, the panel adds the
        exact integral of the cubic through its densities instead: ``sum_j p_j
        a_j`` over the cubic's coefficients ``a_j`` and the moments ``p_0 =
        log(1 - zeta) - log(-1 - zeta)``, ``p_{j+1} = zeta*p_j + (1 -
        (-1)^(j+1))/(j + 1)``.  A target with no close panel gets ``sums``'
        value bit for bit."""
        s_src, s_tgt, q = self._straightened(l, sources, charges, targets)
        flat = s_tgt.ravel()
        hit_t, hit_p, zeta, half = _close_panels(s_src, flat)
        panel_nodes = 4 * hit_p[:, None] + np.arange(4)
        out = _block_sums(s_src, q, flat, hit_t.repeat(4), panel_nodes.ravel())
        if hit_t.size:
            moment = np.log(1.0 - zeta) - np.log(-1.0 - zeta)
            node_wts = moment[:, None] * _GL4_CLOSE[0]  # elementwise: BLAS would map gemm pages
            for j, tail in enumerate((2.0, 0.0, 2.0 / 3.0), 1):
                moment = zeta * moment + tail
                node_wts += moment[:, None] * _GL4_CLOSE[j]
            node_wts /= half[:, None]
            for col, res in zip(q, out):
                np.add.at(res, hit_t, np.sum(node_wts * col[panel_nodes], axis=1))
        return out.T.reshape(s_tgt.shape + np.shape(charges)[1:])

    def area_integral(self, l: int, bounds: tuple, nodes: tuple, h_at: Callable):
        """The area integral ``integral E_l(v, z) * h(v) dx dy`` over the
        rectangle ``bounds``, as a function of an array of points ``z`` (of
        any shape) strictly inside it; ``nodes`` are the rectangle's area
        nodes, a column ``x``, a row ``y`` and their weight grid.

        ``h_at(x, y)`` is evaluated once on the nodes, then once per
        evaluation at its points ``z``: one kernel sum of ``h(v) - h(z)``,
        bounded at the pole, plus ``h(z)`` times the kernel's area integral in
        closed form (``_wedge_recip_area``).  The subtraction degrades within
        the last cell ring, where the two no longer cancel."""
        x_a, y_a, w_a = nodes
        v_nodes = (x_a + 1j * y_a).ravel()
        charges = np.stack([(w_a * h_at(x_a, y_a)).ravel(), w_a.ravel()], axis=1)
        a_map, b_map = self._maps[l - 1]

        def integral(zp):
            field_sum, mass_sum = np.moveaxis(self.sums(l, v_nodes, charges, zp), -1, 0)
            wedges = (-1j / np.pi) * _wedge_recip_area(a_map, b_map, bounds, zp)
            return field_sum + h_at(zp.real, zp.imag) * (wedges - mass_sum)

        return integral

    def _straightened(self, l: int, sources, charges, targets):
        """Straightened sources and targets, and ``-i/pi`` times the charges, a row per column."""
        s_src = self.smap(l, np.asarray(sources, dtype=complex).ravel())
        s_tgt = self.smap(l, np.asarray(targets, dtype=complex))
        c = np.asarray(charges, dtype=complex)
        return s_src, s_tgt, np.multiply(c.reshape(s_src.size, -1).T, -1j / np.pi, order="C")


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


def _block_sums(s_src, q, flat, hit_t, hit_v):
    """``q @ (1 / (s_src - flat))^T`` with the pairs ``(hit_t, hit_v)``,
    ordered by target, left out: targets in row blocks of
    ``_KERNEL_BLOCK_ELEMENTS`` entries, one reciprocal block and one
    matrix-vector product per charge row at a time."""
    rows = max(1, _KERNEL_BLOCK_ELEMENTS // max(1, s_src.size))
    buf = np.empty((min(rows, flat.size), s_src.size), dtype=complex)
    out = np.empty((q.shape[0], flat.size), dtype=complex)
    starts = range(0, flat.size, rows)
    cuts = np.searchsorted(hit_t, [*starts, flat.size])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
            blk = np.subtract(s_src, flat[start:start + rows, None], out=buf[:flat.size - start])
            np.reciprocal(blk, out=blk)
            if hi > lo:
                blk[hit_t[lo:hi] - start, hit_v[lo:hi]] = 0.0
            for col, res in zip(q, out):
                np.matmul(blk, col, out=res[start:start + rows])
    return out


def _close_panels(s_src: np.ndarray, targets: np.ndarray):
    """``(target, panel, zeta, half)``, ordered by target, of the targets
    within ``_CLOSE_RADIUS`` half-lengths ``half`` of a panel's midpoint,
    ``zeta`` in the panel's coordinate.  Every (target, panel) pair is tested,
    in the row blocks of ``_block_sums`` (the two real blocks of the test are
    a quarter of its kernel block), first by ``|t - mid|^2 < R^2 |half|^2``
    with a relative margin of 1e-9, far above the rounding of either side.
    Only those candidates are divided by ``half`` and held to ``|zeta|^2 <
    R^2``, so the hits and the bits of their ``zeta`` are those of that test
    on every pair."""
    mid = 0.5 * (s_src[0::4] + s_src[3::4])
    half = (s_src[3::4] - s_src[0::4]) / (_GL4_NODES[3] - _GL4_NODES[0])
    reach = (_CLOSE_RADIUS**2 * (1.0 + 1e-9)) * (half.real * half.real + half.imag * half.imag)
    rows = max(1, _KERNEL_BLOCK_ELEMENTS // max(1, s_src.size))
    found = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0, dtype=complex),)]
    for start in range(0, targets.size, rows):
        block = targets[start:start + rows, None]
        dist = block.real - mid.real
        dist *= dist
        dy = block.imag - mid.imag
        dy *= dy
        dist += dy
        hit_t, hit_p = np.divmod(np.flatnonzero(dist < reach), mid.size)
        hit_t += start
        zeta = (targets[hit_t] - mid[hit_p]) / half[hit_p]
        near = zeta.real * zeta.real + zeta.imag * zeta.imag < _CLOSE_RADIUS**2
        found.append((hit_t[near], hit_p[near], zeta[near]))
    hit_t, hit_p, zeta = map(np.concatenate, zip(*found))
    return hit_t, hit_p, zeta, half[hit_p]


def _coincident_pairs(s_src: np.ndarray, s_tgt: np.ndarray):
    """Index pairs ``(target, source)``, ordered by target, of the points
    within 1e-13 of each other (``dx*dx + dy*dy < 1e-26``).  Candidates come
    from the sources sorted by real part, in a window of 2e-13 around each
    target's real part, so that rounding at the window's ends cannot drop a
    pair; the predicate then confirms them."""
    order = np.argsort(s_src.real, kind="stable")
    lo, hi = np.searchsorted(s_src.real[order], s_tgt.real + np.array([[-2e-13], [2e-13]]))
    counts = hi - lo
    hit_t = np.repeat(np.arange(s_tgt.size), counts)
    # the j-th candidate overall is the (j - first index of its target)-th of its window
    hit_v = order[np.arange(hit_t.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    d = s_src[hit_v] - s_tgt[hit_t]
    near = d.real * d.real + d.imag * d.imag < 1e-26
    return hit_t[near], hit_v[near]
