"""Weighted Cauchy-Riemann operators on the plane and their bicomplex lift.

A weight pair ``(theta, phi_w)`` consists of four complex-valued plane
functions, one ``(theta_l, phi_wl)`` pair per idempotent component, subject
to pointwise hyperbolic orthogonality ``<theta_l, phi_wl>_C = 0``.  The
classical pair is ``theta = 1``, ``phi_w = i``, for which the weighted
operator ``theta*d/dx + phi_w*d/dy`` reduces to twice the Wirtinger
anti-holomorphic derivative.

Cauchy-type kernels are provided for the classical pair and for constant
orientation-preserving pairs, where a real-linear substitution turns the
weighted operator into the classical one (see :class:`CauchyKernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import fracops1d
from .errors import (
    DomainError,
    EmptyProbesError,
    NotInvertibleError,
    UnsupportedWeightsError,
)
from .hypercomplex import BicomplexNumber


@dataclass(frozen=True)
class PlaneFunction:
    """Complex-valued function of a plane point with analytic partials.

    All three callables map ``(x, y)`` arrays to complex values.  Partials
    are supplied, not differenced; ``validate_partials`` cross-checks them.
    """

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

    def dbar(self, x, y):
        """Wirtinger anti-holomorphic derivative ``(dx + i*dy)/2``."""
        return 0.5 * (self.dx(x, y) + 1j * self.dy(x, y))

    def validate_partials(self, probes, tol: float = 1e-6, h: float = 1e-7) -> float:
        """Finite-difference cross-check of the supplied partials."""
        x, y = as_plane_points(probes)
        fdx = (self.f(x + h, y) - self.f(x - h, y)) / (2 * h)
        fdy = (self.f(x, y + h) - self.f(x, y - h)) / (2 * h)
        err = max(
            float(np.max(np.abs(fdx - self.dx(x, y)))),
            float(np.max(np.abs(fdy - self.dy(x, y)))),
        )
        if err > tol:
            raise DomainError(f"partials inconsistent with values: max error {err:.3e}")
        return err


@dataclass(frozen=True)
class WeightPair:
    """Bicomplex weight functions ``theta = theta1*E + theta2*E'`` and
    ``phi_w = phi1*E + phi2*E'`` with the orthogonality constraint."""

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

    @classmethod
    def orthogonal_from(cls, theta1: PlaneFunction, theta2: PlaneFunction,
                        g1: PlaneFunction, g2: PlaneFunction) -> "WeightPair":
        """General orthogonal construction ``phi_wl = i * g_l * theta_l``
        with real-valued ``g_l``."""
        return cls(theta1, theta2, (1j * g1) * theta1, (1j * g2) * theta2)

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

    def value(self, Z: BicomplexNumber) -> BicomplexNumber:
        return BicomplexNumber(
            self.f1.f(np.real(Z.z1), np.imag(Z.z1)),
            self.f2.f(np.real(Z.z2), np.imag(Z.z2)),
        )


@dataclass(frozen=True)
class OrthogonalityReport:
    """Pointwise orthogonality diagnostics over a probe set."""

    max_inner: float
    max_identity: float
    criteria_gap: float

    def passed(self, tol: float = 1e-10) -> bool:
        return self.max_inner <= tol


def inner_c(z, w):
    """Real inner product ``(conj(z)*w + conj(w)*z) / 2`` on the plane."""
    return np.real(np.conjugate(z) * w)


def as_plane_points(probes):
    """Normalize a probe list (complex numbers or ``(x, y)`` pairs)."""
    probes = list(probes)
    if not probes:
        raise EmptyProbesError("probe list is empty")
    if isinstance(probes[0], tuple):
        x = np.array([p[0] for p in probes], dtype=float)
        y = np.array([p[1] for p in probes], dtype=float)
    else:
        z = np.asarray(probes, dtype=complex)
        x, y = z.real, z.imag
    return x, y


def check_orthogonality(wp: WeightPair, probes) -> OrthogonalityReport:
    """Evaluate both orthogonality criteria over the probes.

    The first criterion is the inner product ``<theta_l, phi_wl>_C`` itself;
    the second is the equivalent componentwise identity
    ``Im(theta_l) * phi_wl = -i * Re(phi_wl) * theta_l``.  Both vanish
    together; the reported gap is the largest pointwise difference of their
    magnitudes and should sit at rounding level.
    """
    x, y = as_plane_points(probes)
    max_inner = 0.0
    max_ident = 0.0
    gap = 0.0
    for l in (1, 2):
        th_fn, ph_fn = wp.component(l)
        th, ph = th_fn.f(x, y), ph_fn.f(x, y)
        ip = np.abs(inner_c(th, ph))
        ident = np.abs(np.imag(th) * ph + 1j * np.real(ph) * th)
        max_inner = max(max_inner, float(np.max(ip)))
        max_ident = max(max_ident, float(np.max(ident)))
        gap = max(gap, float(np.max(np.abs(ip - ident))))
    return OrthogonalityReport(max_inner, max_ident, gap)


def apply_cr_weighted(
    wp: WeightPair, F: ProductFunction, Z: BicomplexNumber, rect=None
) -> BicomplexNumber:
    """Weighted Cauchy-Riemann operator applied to a product-type function."""
    if rect is not None and not rect.contains(Z):
        raise DomainError("point outside the working rectangle")
    parts = []
    for l, z in ((1, Z.z1), (2, Z.z2)):
        x, y = np.real(z), np.imag(z)
        th_fn, ph_fn = wp.component(l)
        fl = F.component(l)
        parts.append(th_fn.f(x, y) * fl.dx(x, y) + ph_fn.f(x, y) * fl.dy(x, y))
    return BicomplexNumber(parts[0], parts[1])


def weight_divergence(wp: WeightPair, Z: BicomplexNumber) -> tuple:
    """Divergence coefficients ``(A, B)`` of the weighted Gauss identity.

    ``A`` collects the real parts of the weight gradients, ``B`` the
    imaginary parts; both vanish for constant weights.
    """
    a_parts, b_parts = [], []
    for l, z in ((1, Z.z1), (2, Z.z2)):
        x, y = np.real(z), np.imag(z)
        th_fn, ph_fn = wp.component(l)
        grad = th_fn.dx(x, y) + ph_fn.dy(x, y)
        a_parts.append(np.real(grad) + 0j)
        b_parts.append(np.imag(grad) + 0j)
    return BicomplexNumber(a_parts[0], a_parts[1]), BicomplexNumber(b_parts[0], b_parts[1])


def boundary_measure(
    wp: WeightPair, Z: BicomplexNumber, d1: Sequence[float], d2: Sequence[float]
) -> BicomplexNumber:
    """Weighted contour element ``theta*dy - phi_w*dx`` per component.

    ``d1`` and ``d2`` are the tangent steps ``(dx, dy)`` in each component
    plane.  For classical weights this is ``-i * dz`` componentwise.
    """
    parts = []
    for l, z, (dx, dy) in ((1, Z.z1, d1), (2, Z.z2, d2)):
        x, y = np.real(z), np.imag(z)
        th_fn, ph_fn = wp.component(l)
        parts.append(th_fn.f(x, y) * dy - ph_fn.f(x, y) * dx)
    return BicomplexNumber(parts[0], parts[1])


class CauchyKernel:
    """Cauchy-type kernel for classical or constant weight pairs.

    For a constant pair the real-linear substitution
    ``s(v) = (theta - i*phi_w)*v - (theta + i*phi_w)*conj(v)`` straightens
    the weighted operator into a Wirtinger derivative, and the kernel is
    ``-i / (pi * (s(v) - s(z)))`` per component.  The classical pair gives
    ``1 / (2*pi*i*(v - z))``.  The reconstruction normalization constant of
    the associated Cauchy-Pompeiu identity is calibrated numerically once
    (it equals ``-i`` analytically) and cached.
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
        self._normalization = None

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
        with ``d = s(v) - s(z) = dx + i*dy`` each term is
        ``-(dy + i*dx) / (pi*|d|^2)``, all in real arithmetic.  Targets run
        in row blocks of the 1-D rule's element budget, so the block
        temporaries stay in cache, and each block is one real matrix product
        against ``[Re c, Im c]`` for every charge column.
        """
        s_src = self.smap(l, np.asarray(sources, dtype=complex).ravel())
        s_tgt = self.smap(l, np.asarray(targets, dtype=complex))
        c = np.asarray(charges, dtype=complex)
        q = c.reshape(s_src.size, -1)
        rhs = np.block([[q.real, q.imag], [-q.imag, q.real]]) * (-1.0 / np.pi)
        flat = s_tgt.ravel()
        rows = max(1, fracops1d._CHUNK_ELEMENTS // max(1, s_src.size))
        pq = np.empty((min(rows, flat.size), 2, s_src.size))  # [dy | dx] / |d|^2
        r2 = np.empty((pq.shape[0], s_src.size))
        out = np.empty((flat.size, rhs.shape[1]))
        for start in range(0, flat.size, rows):
            t = flat[start:start + rows, None]
            blk, r = pq[:t.size], r2[:t.size]
            dy = np.subtract(s_src.imag, t.imag, out=blk[:, 0])
            dx = np.subtract(s_src.real, t.real, out=blk[:, 1])
            np.multiply(dx, dx, out=r)
            r += dy * dy
            r[r < 1e-26] = np.inf  # |d| < 1e-13: the term is zero
            np.divide(1.0, r, out=r)
            blk *= r[:, None, :]
            np.matmul(blk.reshape(t.size, -1), rhs, out=out[start:start + t.size])
        res = out[:, :q.shape[1]] + 1j * out[:, q.shape[1]:]
        return res.reshape(s_tgt.shape + c.shape[1:])

    def eval(self, V: BicomplexNumber, Z: BicomplexNumber) -> BicomplexNumber:
        diff = V - Z
        if min(abs(diff.z1), abs(diff.z2)) < 1e-14:
            raise NotInvertibleError("kernel argument V - Z is not invertible")
        return BicomplexNumber(
            self.component(1)(V.z1, Z.z1), self.component(2)(V.z2, Z.z2)
        )

    def normalization(self) -> BicomplexNumber:
        """Reconstruction constant ``c`` with ``c * f(z) = contour term`` for
        weighted-holomorphic ``f``; computed by reconstructing ``f = 1`` on a
        circle and cached (write-once)."""
        if self._normalization is None:
            comps = []
            theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
            ct, st = np.cos(theta), np.sin(theta)
            dtheta = 2.0 * np.pi / theta.size
            for l in (1, 2):
                th, ph = self.pairs[l - 1]
                v = ct + 1j * st
                vals = self.component(l)(v, 0.0 + 0.0j) * (th * ct + ph * st)
                comps.append(complex(np.sum(vals) * dtheta))
            self._normalization = BicomplexNumber(comps[0], comps[1])
        return self._normalization


def cauchy_kernel(wp: WeightPair, V: BicomplexNumber, Z: BicomplexNumber) -> BicomplexNumber:
    """Componentwise Cauchy kernel at ``(V, Z)`` for constant weights."""
    return CauchyKernel(wp).eval(V, Z)
