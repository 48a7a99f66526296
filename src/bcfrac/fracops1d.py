"""One-dimensional proportional fractional operators with respect to a weight.

The central objects are the left and right proportional fractional integrals
of order ``alpha`` and proportion ``sigma`` taken with respect to a strictly
increasing weight function ``phi``::

    left:   (1 / (sigma^a * Gamma(a))) *
            integral_a^t exp(((sigma-1)/sigma) * (phi(t)-phi(tau)))
                         * (phi(t)-phi(tau))^(a-1) * f(tau) * phi'(tau) dtau

(and the mirrored form over ``[t, b]`` for the right side), together with the
fractional derivatives obtained by composing a first-order proportional
derivative with the integral of complementary order.

The kernel is weakly singular at ``tau = t``.  Both quadrature schemes work
in the variable ``v = |phi(t) - phi(tau)|`` where the weight is exactly
``v^(a-1)``, and both are served by ``_rule``:

* ``graded`` (default): a mesh graded toward the singular endpoint with the
  singular moments integrated exactly against a piecewise-linear interpolant
  of the smooth factor (product trapezoid rule; Diethelm, Ford & Freed,
  Numer. Algorithms 36 (2004) 31-52).  Robust for every order in ``(0, 1]``,
  including orders approaching zero where the kernel mass concentrates far
  below any fixed mesh resolution.
* ``gauss_jacobi``: a Gauss-Jacobi rule with the ``v^(a-1)`` weight built in,
  spectrally accurate for smooth integrands.  The rule is built here with
  numpy alone: Golub-Welsch nodes from the symmetric Jacobi matrix, refined
  by a Newton step, and Christoffel-number weights (see ``_jacobi_rule``).

Each scheme has one cached reference row at ``L = 1`` (``_reference_row``);
a row over ``v`` in ``[0, L]`` is ``L^a`` times it, with the tempered factor
and ``1 / sigma^a``.  A weight declared in the power form of
``ScalarWeightFn`` gets its nodes in closed form; for any other weight the
graded scheme meshes ``tau`` instead, and Gauss-Jacobi inverts ``phi`` by
bisection.

Evaluation points may be scalars or numpy arrays; integrand callables must
accept numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, StepError

_LOG2E = math.log2(math.e)
#: Grading exponents above this are clipped; the product rule integrates the
#: singular weight exactly, so extreme grading only degenerates the mesh.
GRADING_CAP = 10.0
#: Below this order the moment differences switch to an expm1/log evaluation.
_SMALL_ORDER = 1e-3
#: Element budget per block of target rows: 8192 float64 are 64 KB per
#: matrix.  With 256 KB (32768) or 128 KB (16384) matrices, the temporaries a
#: block frees leave more free memory at the top of the heap than malloc
#: keeps, so it goes back to the OS and the next block faults it in again.
#: Measured per warm pass of the three perfbench workloads (trace-gauss,
#: deep-reconstruction, trace-inversion): about 19k / 31k / 93k minor faults
#: at 32768 and 1.6k / 0-1.6k / 7-9k at 8192, whose passes were also the
#: fastest on trace-gauss and in two of three rounds on the others.  Rows
#: depend only on their own target, so the block size never changes a 1-D
#: rule result.  The runner also raises malloc's trim threshold
#: (``cli._keep_freed_memory``), which keeps freed blocks of any size in the
#: heap; these counts were taken before that setting.
_CHUNK_ELEMENTS = 8_192


@dataclass(frozen=True)
class ScalarWeightFn:
    """Strictly increasing C^1 weight ``phi`` on a closed interval.

    ``phi`` and ``dphi`` must accept numpy arrays.  ``exponent`` declares the
    power form ``phi(t) = phi(lo) + t**exponent - lo**exponent`` (finite and
    positive, and ``lo > 0`` unless it is 1, the affine case).  The singular
    variable is then ``v = |t**exponent - tau**exponent|``: both schemes
    scale one cached reference row per target and place the nodes in closed
    form, instead of evaluating ``phi`` on a mesh or inverting it.
    """

    phi: Callable
    dphi: Callable
    lo: float
    hi: float
    exponent: Optional[float] = None

    def __post_init__(self):
        d = self.exponent
        if d is None:
            return
        if not (math.isfinite(d) and d > 0.0):
            raise ValueError(f"weight exponent must be finite and positive, got {d!r}")
        if d != 1.0 and not self.lo > 0.0:
            raise ValueError(f"a power weight needs lo > 0, got {self.lo!r}")

    def contains(self, t) -> bool:
        t = np.asarray(t, dtype=float)
        return bool(np.all(t >= self.lo - 1e-12) and np.all(t <= self.hi + 1e-12))

    def inverse(self, u):
        """Value ``t`` with ``phi(t) = u``, by 80 steps of vectorized
        bisection."""
        u = np.asarray(u, dtype=float)
        a = np.full(u.shape, self.lo, dtype=float)
        b = np.full(u.shape, self.hi, dtype=float)
        for _ in range(80):
            m = 0.5 * (a + b)
            below = np.asarray(self.phi(m), dtype=float) < u
            a = np.where(below, m, a)
            b = np.where(below, b, m)
        return 0.5 * (a + b)

    def power_gap(self, x0, x1):
        """``x1**exponent - x0**exponent`` for ``x0 <= x1`` in the interval,
        without cancellation: ``x0**d * expm1(d*log1p((x1 - x0)/x0))``."""
        d = self.exponent
        if d == 1.0:
            return x1 - x0
        return x0**d * np.expm1(d * np.log1p((x1 - x0) / x0))


@dataclass(frozen=True)
class Quadrature1D:
    """Discretization choice for the weakly singular integrals."""

    n: int = 512
    scheme: str = "graded"  # "graded" | "gauss_jacobi"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("node count must be at least 2")
        if self.scheme not in ("graded", "gauss_jacobi"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")


@dataclass(frozen=True)
class FracSpec:
    """Order, proportion, and weight of a fractional operator.

    ``sigma = 0`` is accepted as the degenerate limit in which both the
    integral and the derivative collapse to the identity."""

    alpha: float
    sigma: float
    weight: ScalarWeightFn

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("fractional order must lie in (0, 1]")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError("proportion must lie in [0, 1]")


def prop_derivative(f: Callable, df: Callable, w: ScalarWeightFn, sigma: float, t):
    """First-order proportional derivative ``(1 - sigma)*f + sigma*f'/phi'``."""
    t = np.asarray(t, dtype=float)
    if not w.contains(t):
        raise DomainError(f"evaluation point outside [{w.lo}, {w.hi}]")
    out = np.asarray((1.0 - sigma) * f(t) + sigma * df(t) / w.dphi(t))
    return out if out.ndim else out[()]


def hausdorff_derivative(l: Callable, dl: Callable, alpha: float, a: float, t):
    """Local fractal-time derivative ``l'(t) / (alpha * (t-a)^(alpha-1))``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("fractal order must lie in (0, 1]")
    t = np.asarray(t, dtype=float)
    if np.any(t <= a):
        raise DomainError("Hausdorff derivative needs t > a")
    out = dl(t) * (t - a) ** (1.0 - alpha) / alpha
    return out if out.ndim else out[()]


def prop_frac_integral(f: Callable, p: FracSpec, side: str, t, q: Quadrature1D,
                       features: Optional[tuple] = None):
    """Left or right proportional fractional integral of ``f`` at ``t``.

    ``side`` is ``"left"`` (integration from the lower interval end) or
    ``"right"`` (from the upper end).  ``t`` may be a scalar or an array.
    Repeated targets are evaluated once: every rule row depends on its own
    target only, so the result is bit-for-bit that of evaluating each entry.
    ``features = (centers, scales)`` marks sharp features of ``f`` and
    switches to the rows of ``refined_rule``, which cluster nodes there.
    """
    _check_side(side)
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t_arr = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t_arr).ravel()
    w = p.weight
    if not w.contains(ts):
        raise DomainError(f"evaluation point outside [{w.lo}, {w.hi}]")
    anchor = w.lo if side == "left" else w.hi
    if side == "left" and np.any(ts < anchor - 1e-14):
        raise DomainError("left integral needs t >= lower end")
    if side == "right" and np.any(ts > anchor + 1e-14):
        raise DomainError("right integral needs t <= upper end")

    if p.sigma == 0.0:
        out = np.asarray(f(ts)) + 0.0j  # identity limit of the tempered kernel
    else:
        uniq, inv = np.unique(ts, return_inverse=True)
        out = _integral_dispatch(f, p, side, uniq, q, features)[inv]
    if scalar:
        return out[0]
    return out.reshape(t_arr.shape)


def prop_frac_derivative(
    f: Callable,
    p: FracSpec,
    side: str,
    t,
    q: Quadrature1D,
    h: Optional[float] = None,
    features: Optional[tuple] = None,
):
    """Proportional fractional derivative of order ``p.alpha``.

    Composes the first-order proportional step with the integral of
    complementary order ``1 - alpha``; the derivative of the inner integral
    is taken by a central difference of step ``h`` (``difference_step`` of
    the interval when ``None``), clipped one-sided at the interval ends.  On
    the right side the derivative part enters with the opposite sign, which
    is what makes the right-sided composition with the right integral the
    identity.  ``features`` is passed on to the inner integral (see
    ``prop_frac_integral``).
    """
    _check_side(side)
    if p.alpha >= 1.0:
        raise ValueError("derivative order must lie in (0, 1)")
    w = p.weight
    span = w.hi - w.lo
    if h is None:
        h = difference_step(w.lo, w.hi)
    if h <= 0 or h >= span / 2.0:
        raise StepError(f"finite-difference step {h} invalid for span {span}")

    scalar = np.isscalar(t) or np.ndim(t) == 0
    t_arr = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t_arr).ravel()
    if not w.contains(ts):
        raise DomainError(f"evaluation point outside [{w.lo}, {w.hi}]")
    if p.sigma == 0.0:
        out = np.asarray(f(ts)) + 0.0j
        return out[0] if scalar else out.reshape(t_arr.shape)

    inner = FracSpec(1.0 - p.alpha, p.sigma, w)

    def g(s):
        return prop_frac_integral(f, inner, side, s, q, features)

    dg = _central_difference(g, ts, h, w.lo, w.hi)
    sign = 1.0 if side == "left" else -1.0
    out = (1.0 - p.sigma) * g(ts) + sign * p.sigma * dg / w.dphi(ts)
    return out[0] if scalar else out.reshape(t_arr.shape)


def difference_step(lo: float, hi: float) -> float:
    """Default central-difference step on ``[lo, hi]``: 1e-4 of its span."""
    return (hi - lo) * 1e-4


def _central_difference(fn: Callable, ts: np.ndarray, h: float, lo: float, hi: float):
    """Derivative of ``fn`` at each of ``ts`` by a central difference of step
    ``h``, clipped one-sided at ``[lo, hi]``; ``fn`` is called once, on the
    whole stencil."""
    tm = np.maximum(ts - h, lo)
    tp = np.minimum(ts + h, hi)
    g = fn(np.concatenate([tm, tp]))
    return (g[ts.size :] - g[: ts.size]) / (tp - tm)


# ----------------------------------------------------------------------
# quadrature internals


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _read_only(*arrays) -> tuple:
    """Mark arrays returned by a cache read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _integral_dispatch(f, p, side, ts, q, features=None):
    """Integral at each target, one cache-sized block of rule rows at a time.
    Refined rows (``features`` given) are built on the graded base mesh
    whatever the scheme."""
    if features is not None:
        def rule(p, side, ts, q):
            # the module global, looked up when called, so that a wrapper
            # bound to the module attribute sees every call
            return refined_rule(p, side, ts, q, *features)
    else:
        rule = _rule
    out = np.empty(ts.shape, dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // q.n)
    for start in range(0, ts.size, chunk):
        sl = slice(start, start + chunk)
        tau, wts = rule(p, side, ts[sl], q)
        out[sl] = np.sum(np.asarray(f(tau)) * wts, axis=1)
    return out


#: Mesh grading toward the anchor end.  Compositions integrate functions
#: with an algebraic cusp there (a fractional integral of a smooth input
#: behaves like distance-to-anchor to its order), so the mesh clusters at
#: both ends: hard at the singular endpoint, mildly at the anchor.
_ANCHOR_GRADING = 3.0


@lru_cache(maxsize=64)
def _graded_fractions(n_nodes: int, grading: float) -> np.ndarray:
    x = np.arange(n_nodes, dtype=float) / (n_nodes - 1)
    frac = 1.0 - (1.0 - x**grading) ** _ANCHOR_GRADING
    # never sample the anchor itself: fractional integrals of smooth inputs
    # drop to zero in an exponentially thin layer there when the order is
    # tiny, and power-law inputs may blow up; the one-sided limit is the
    # value a composition should see
    frac[-1] = 1.0 - 1e-12
    frac.setflags(write=False)
    return frac


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, beta_key: float):
    """Gauss rule of the weight ``(1+x)^(beta-1)`` on ``[-1, 1]``.

    The nodes are the eigenvalues of the symmetric Jacobi matrix (Golub &
    Welsch, Math. Comp. 23 (1969) 221-230), refined by one Newton step on
    the three-term recurrence of the orthonormal polynomials ``p_k``.  The
    weights are the Christoffel numbers ``1 / sum_{k<n} p_k(x)^2`` at the
    refined nodes.  Squared eigenvector components, and the ``1 / (p_{n-1}
    p_n')`` form, lose digits at the nodes next to the singular end, where
    a rounding of the node moves them far: up to 1e-6 relative at n = 512
    and beta = 0.001, against about 1e-11 for the Christoffel numbers.
    """
    b = beta_key - 1.0  # Jacobi exponents (0, b)
    k = np.arange(n + 1, dtype=float)
    s = 2.0 * k + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = b * b / (s * (s + 2.0))
        off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    diag[0], off[0] = b / (b + 2.0), 0.0
    x = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1))

    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    for j in range(n):
        dp_prev, dp = dp, ((x - diag[j]) * dp + p - off[j] * dp_prev) / off[j + 1]
        p_prev, p = p, ((x - diag[j]) * p - off[j] * p_prev) / off[j + 1]
    x -= p / dp

    p_prev, p = np.zeros_like(x), np.ones_like(x)
    total = np.ones_like(x)
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        total += p * p
    mass = 2.0 ** (b + 1.0) / (b + 1.0)  # p_0 = 1 stands for 1/sqrt(mass)
    return _read_only(x, mass / total)


def _auto_grading(beta: float) -> float:
    """Grading exponent of the mesh for the singular weight ``v^(beta-1)``."""
    return float(min(max(2.0 / beta, 1.0), GRADING_CAP))


def _graded_mesh(p: FracSpec, side: str, ts: np.ndarray, q: Quadrature1D) -> np.ndarray:
    """The graded base mesh ``t + (anchor - t)*u``, one row per target,
    running from ``t`` toward the anchor."""
    anchor = p.weight.lo if side == "left" else p.weight.hi
    u = _graded_fractions(q.n, _auto_grading(p.alpha))
    tau = np.multiply((anchor - ts)[:, None], u)
    tau += ts[:, None]
    return tau


def _rule(p: FracSpec, side: str, ts: np.ndarray, q: Quadrature1D):
    """Nodes and real weights of the rule of ``q.scheme``, one row per
    target; the tempered-exponential factor and ``1 / sigma^beta`` are folded
    into the weights so that ``sum(weights * f(nodes))`` approximates the
    integral.  Every row but an undeclared weight's graded row is ``L^beta *
    sigma^-beta`` times the scheme's reference row, ``L`` the range of the
    singular variable, times the tempered factor at ``v = L*u``."""
    w, beta, sigma = p.weight, p.alpha, p.sigma
    if q.scheme == "graded" and w.exponent is None:
        tau = _graded_mesh(p, side, ts, q)
        phits = np.asarray(w.phi(ts), dtype=float)
        return tau, _tempered_weights(p, side, phits[:, None], tau)
    u, row = _reference_row(q.scheme, q.n, beta)
    if w.exponent is None:
        phits = np.asarray(w.phi(ts), dtype=float)
        phi_anchor = float(w.phi(np.asarray(w.lo if side == "left" else w.hi)))
        big_l = np.abs(phits - phi_anchor)
        v = np.multiply(big_l[:, None], u)
        tau = w.inverse(phits[:, None] - v if side == "left" else phits[:, None] + v)
    else:
        tau, big_l = _power_nodes(w, side, ts, u)
    scale = big_l**beta * sigma ** (-beta)
    wts = np.multiply(scale[:, None], row)
    c = (sigma - 1.0) / sigma
    if c != 0.0:
        big_l *= c * _LOG2E
        factor = np.multiply(big_l[:, None], u)
        wts *= np.exp2(factor, out=factor)
    return tau, wts


def _power_nodes(w: ScalarWeightFn, side: str, ts: np.ndarray, u: np.ndarray):
    """Nodes ``tau = (t^d -+ L*u)^(1/d)`` of a declared power weight, one row
    per target, at the fractions ``u`` of the singular variable's range ``L
    = |t^d - anchor^d|`` (taken without cancellation); returns ``(tau, L)``."""
    d = w.exponent
    anchor = w.lo if side == "left" else w.hi
    gap = w.power_gap(anchor, ts) if side == "left" else w.power_gap(ts, anchor)
    tau = np.multiply(gap[:, None], u)
    if side == "left":
        np.subtract((ts**d)[:, None], tau, out=tau)
    else:
        tau += (ts**d)[:, None]
    if d != 1.0:
        np.power(tau, 1.0 / d, out=tau)
    return tau, np.maximum(gap, 0.0)


@lru_cache(maxsize=64)
def _reference_row(scheme: str, n: int, beta: float) -> tuple:
    """``(u, row)`` of a scheme at ``L = 1`` and ``sigma = 1``: fractions
    ``u`` of the singular variable, running from the singular end, and the
    weights there.  Graded: the graded fractions and their product-trapezoid
    weights.  Gauss-Jacobi: ``(1 + x)/2`` and ``wj * 2^-beta / Gamma(beta)``
    for the rule ``(x, wj)`` of ``(1 + x)^(beta - 1)``."""
    if scheme == "gauss_jacobi":
        x, wj = _jacobi_rule(n, round(beta, 12))
        return _read_only(0.5 * (1.0 + x), wj * (2.0 ** (-beta) / math.gamma(beta)))
    u = _graded_fractions(n, _auto_grading(beta))
    (row,) = _read_only(_panel_weights(u[None, :], beta, math.gamma(beta + 1.0))[0])
    return u, row


def _tempered_weights(p: FracSpec, side: str, phit, tau: np.ndarray) -> np.ndarray:
    """Product-trapezoid weights for per-row meshes ``tau`` ordered from the
    singular end (where ``phi = phit``) toward the anchor, with the tempered
    exponential and ``1 / sigma^beta`` folded in."""
    beta, sigma = p.alpha, p.sigma
    phi_tau = np.asarray(p.weight.phi(tau), dtype=float)
    v = phit - phi_tau if side == "left" else phi_tau - phit
    np.maximum(v, 0.0, out=v)
    wts = _panel_weights(v, beta, math.gamma(beta + 1.0))
    c = (sigma - 1.0) / sigma
    if c != 0.0:
        v *= c * _LOG2E
        wts *= np.exp2(v, out=v)
    wts *= sigma ** (-beta)
    return wts


def _panel_weights(v: np.ndarray, beta: float, gamma_b1: float) -> np.ndarray:
    """Node weights of the product-trapezoid rule in the singular variable
    ``v`` (rows ascending from 0), already divided by ``Gamma(beta)``."""
    vb = v**beta  # one power per node; each panel uses both of its ends
    vbv = vb * v
    vl, vh = v[:, :-1], v[:, 1:]
    vb_l, vb_h = vb[:, :-1], vb[:, 1:]
    if beta < _SMALL_ORDER:
        # difference of nearly equal powers; go through expm1 of the log ratio
        flat = ~(vl > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = np.divide(vh, vl)
            np.log(c0, out=c0)
            c0 *= beta
            np.expm1(c0, out=c0)
            c0 *= vb_l
        c0[flat] = vb_h[flat]
    else:
        c0 = vb_h - vb_l
    c0 /= gamma_b1
    slope_coef = vbv[:, 1:] - vbv[:, :-1]  # first moment m1, then the slope
    slope_coef *= beta / ((beta + 1.0) * gamma_b1)
    slope_coef -= vl * c0
    dv = vh - vl
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_coef /= dv
    slope_coef[~(dv > 0)] = 0.0

    wts = np.empty_like(v)
    np.subtract(c0, slope_coef, out=wts[:, :-1])
    wts[:, -1] = 0.0
    wts[:, 1:] += slope_coef
    return wts


def refined_rule(
    p: FracSpec,
    side: str,
    ts: np.ndarray,
    q: Quadrature1D,
    centers: np.ndarray,
    scales: np.ndarray,
):
    """Rule with extra nodes geometrically clustered around near-singular
    locations of the integrand, one row per target of the 1-D ``ts``.

    ``centers`` and ``scales`` (1-D arrays) give locations and widths of
    sharp features (for instance Cauchy kernel poles just off the
    integration segment).  Each row is the graded base mesh of
    ``_graded_mesh`` merged with two-sided geometric ladders spanning
    ``scale/2`` up to the interval length, so each feature is resolved at
    every octave.  Features far outside the segment simply produce harmless
    extra nodes.

    Returns ``(tau, wts)``, rows running from their target toward the
    anchor; ``sum(wts * f(tau), axis=1)`` approximates the integral at each
    target.
    """
    w = p.weight
    anchor = w.lo if side == "left" else w.hi
    ts = np.asarray(ts, dtype=float)
    span = np.abs(ts - anchor)[:, None]
    scales = np.maximum(np.asarray(scales, dtype=float), span * 1e-9 + 1e-300)

    ladder = 2.0 ** (np.arange(81) / 8 - 1.0)  # 8 nodes per octave over 10 octaves
    offsets = np.concatenate([-ladder[::-1], [0.0], ladder])
    extras = np.asarray(centers, dtype=float)[:, None] + scales[:, :, None] * offsets
    extras = extras.reshape(ts.size, -1)
    nudge = 1e-12 * span  # keep extras off the exact anchor (see _graded_fractions)
    lo_t, hi_t = (anchor + nudge, ts[:, None]) if side == "left" else (ts[:, None], anchor - nudge)
    extras = np.clip(extras, lo_t, hi_t)

    tau = np.sort(np.concatenate([_graded_mesh(p, side, ts, q), extras], axis=1), axis=1)
    if side == "left":
        # the rule runs from the singular end toward the anchor; a contiguous
        # copy, because numpy may pick another inner loop for phi (one that
        # rounds differently) on reversed rows when a block has several
        tau = np.ascontiguousarray(tau[:, ::-1])
    phits = np.asarray(w.phi(ts), dtype=float)
    return tau, _tempered_weights(p, side, phits[:, None], tau)


def tabulate(fn: Callable, lo: float, hi: float, n: int, grade_toward: Optional[float] = None):
    """Sample ``fn`` once and return a cubic-spline surrogate.

    Composing two fractional operators naively costs one full quadrature per
    node of the outer rule.  Tabulating the inner operator on a fine grid
    first (graded toward ``grade_toward`` when its profile has an algebraic
    endpoint there) reduces the composition to one batched evaluation plus
    cheap interpolation.  A spline is used rather than a broken line because
    compositions near order one differentiate the surrogate pointwise, where
    a broken line's slope error would not average out.  The spline is the
    not-a-knot cubic (``n >= 4`` samples): one tridiagonal solve for its node
    slopes, then ``searchsorted`` and Horner's rule per evaluation.
    """
    if n < 4:
        raise ValueError("a not-a-knot cubic spline needs at least 4 samples")
    if grade_toward is None:
        xs = np.linspace(lo, hi, n)
    else:
        # keep the first sample a hair inside the graded end so tabulated
        # fractional integrals carry their one-sided limit, not the exact
        # anchor value (zero) from inside its thin boundary layer
        frac = 1e-12 + (1.0 - 1e-12) * np.linspace(0.0, 1.0, n) ** 3.0
        if abs(grade_toward - lo) <= abs(grade_toward - hi):
            xs = lo + (hi - lo) * frac
        else:
            xs = hi - (hi - lo) * frac[::-1]
    ys = np.asarray(fn(xs)) + 0.0j
    c3, c2, c1, c0 = _not_a_knot_spline(xs, ys)

    def interp(t):
        t = np.clip(np.asarray(t, dtype=float), lo, hi)
        # samples may stop a hair inside [lo, hi]: the end pieces extrapolate
        i = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, n - 2)
        d = t - xs[i]
        return ((c3[i] * d + c2[i]) * d + c1[i]) * d + c0[i]

    return interp


def _not_a_knot_spline(xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Power-form coefficients ``(c3, c2, c1, c0)`` per interval of the
    not-a-knot cubic spline through ``(xs, ys)``, ``xs`` increasing.

    The node slopes solve the usual tridiagonal system, whose first and last
    rows ask for a continuous third derivative at the second and the
    second-to-last node."""
    dx = np.diff(xs)
    secant = np.diff(ys) / dx
    d0, d1 = xs[2] - xs[0], xs[-1] - xs[-3]
    band = np.zeros((3, xs.size))  # lower, diagonal and upper coefficient per row
    band[0, 1:-1], band[0, -1] = dx[1:], d1
    band[1, 0], band[1, 1:-1], band[1, -1] = dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]
    band[2, 0], band[2, 1:-1] = d0, dx[:-1]
    rhs = np.empty_like(ys)
    rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * secant[0] + dx[0] ** 2 * secant[1]) / d0
    rhs[1:-1] = 3.0 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])
    rhs[-1] = (dx[-1] ** 2 * secant[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * secant[-1]) / d1
    slopes = np.array(_tridiagonal_solve(*band.tolist(), rhs.tolist()))
    t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
    return t / dx, (secant - slopes[:-1]) / dx - t, slopes[:-1], ys[:-1]


def _tridiagonal_solve(lower: list, diag: list, upper: list, rhs: list) -> list:
    """Elimination without pivoting (the Thomas algorithm) on lists of Python
    numbers; ``lower[0]`` and ``upper[-1]`` are unused.  Python scalars, not
    numpy ones: at 1024 rows the loop takes 0.34 ms on lists and 1.4 ms on
    numpy arrays, whose every element access makes a numpy scalar."""
    n = len(diag)
    c, d = [0.0] * n, [0.0] * n
    c[0], d[0] = upper[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        m = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / m
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / m
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d
