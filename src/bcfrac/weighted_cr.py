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
weighted operator into the classical one (see :class:`CauchyKernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedWeightsError

#: Element budget per block of targets in ``CauchyKernel.sums``: 32768
#: complex entries, a 512 KB block (8 rows of the 4096 area sources at m =
#: 32).  Median warm time per item (ms) of the deep reconstructions
#: bg-reconstruction / bp-general at m = k = 32, one BLAS thread, 2-CPU Intel
#: Xeon, by budget: 8192 25.5 / 45.1, 16384 23.9 / 42.6, 32768 23.3 / 41.6,
#: 65536 23.6 / 41.7, 131072 24.9 / 44.2.
_KERNEL_BLOCK_ELEMENTS = 32_768


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

    def __add__(self, other) -> "PlaneFunction":
        if isinstance(other, (int, float, complex)):
            other = PlaneFunction.constant(other)
        a, b = self, other
        return PlaneFunction(
            f=lambda x, y: a.f(x, y) + b.f(x, y),
            dx=lambda x, y: a.dx(x, y) + b.dx(x, y),
            dy=lambda x, y: a.dy(x, y) + b.dy(x, y),
        )


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
    def from_holomorphic(cls, fn1, dfn1, fn2=None, dfn2=None) -> "ProductFunction":
        if fn2 is None:
            fn2, dfn2 = fn1, dfn1
        return cls(
            PlaneFunction.from_holomorphic(fn1, dfn1),
            PlaneFunction.from_holomorphic(fn2, dfn2),
        )

    @classmethod
    def from_antiholomorphic(cls, fn, dfn) -> "ProductFunction":
        pf = PlaneFunction.from_antiholomorphic(fn, dfn)
        return cls(pf, pf)

    @classmethod
    def constant(cls, c1: complex, c2: complex = None) -> "ProductFunction":
        if c2 is None:
            c2 = c1
        return cls(PlaneFunction.constant(c1), PlaneFunction.constant(c2))

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
            orient = np.imag(np.conjugate(th) * ph)
            if orient <= 0:
                raise UnsupportedWeightsError(
                    "constant pair must be orientation preserving "
                    f"(Im(conj(theta)*phi) = {orient:.3e} <= 0)"
                )
            self._maps.append((th - 1j * ph, -(th + 1j * ph)))
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
        s_src = self.smap(l, np.asarray(sources, dtype=complex).ravel())
        s_tgt = self.smap(l, np.asarray(targets, dtype=complex))
        c = np.asarray(charges, dtype=complex)
        q = np.multiply(c.reshape(s_src.size, -1).T, -1j / np.pi, order="C")  # row per column
        flat = s_tgt.ravel()
        hit_t, hit_v = _coincident_pairs(s_src, flat)
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
        return out.T.reshape(s_tgt.shape + c.shape[1:])


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
