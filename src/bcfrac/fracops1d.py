"""One-dimensional proportional fractional operators with respect to a weight.

The central object is the left (``a+``) proportional fractional integral of
order ``alpha`` and proportion ``sigma`` taken with respect to a strictly
increasing weight function ``phi``::

    (1 / (sigma^a * Gamma(a))) *
    integral_a^t exp(((sigma-1)/sigma) * (phi(t)-phi(tau)))
                 * (phi(t)-phi(tau))^(a-1) * f(tau) * phi'(tau) dtau

together with the fractional derivative obtained by composing a first-order
proportional derivative with the integral of complementary order.  Every
operator here is left-sided.  The right (``b-``) operators of ``f`` at ``t``
on ``phi`` over ``[a, b]`` are the left ones at ``s = -t`` on the weight
``-phi(-s)`` over ``[-b, -a]``, with input ``f(-s)``.

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
  by a Newton step, and Christoffel-number weights (see ``_jacobi_rule``,
  which serves this scheme alone: its weight is singular at the anchor end,
  where weights read off the eigenvectors would lose digits).

Each scheme has one cached reference row at ``L = 1`` (``_reference_row``);
a row over ``v`` in ``[0, L]`` is ``L^a`` times it, with the tempered factor
and ``1 / sigma^a``, for every weight.  Only the nodes depend on how the
weight is given: a weight declared in the power form of ``ScalarWeightFn``
gets them in closed form, and any other weight by Newton's method on
``phi`` (``ScalarWeightFn.inverse``).

``derivative_of_integral`` builds no row: it takes the left derivative of a
left integral on Jacobi series of the line, and ``derivative_of_one`` that of
one in closed form, for the composition identity.  The series sample at the
Gauss-Legendre nodes, whose analysis map comes from one eigendecomposition
of the Legendre Jacobi matrix (``_jacobi_analysis``); the map from Legendre
coefficients to those of the integral in ``P_k^(0,gamma)`` is the Jacobi
connection formula, in closed form (``_series_maps``).

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
#: rule result.  These counts were taken before the runner raised malloc's
#: trim and mmap thresholds (``cli._keep_freed_memory``), which keep freed
#: blocks below 32 MB in the heap: with the trim threshold alone, blocks of
#: 128 KB and more were still mapped anew on every call (258 minor faults per
#: classical-reconstruction item, 0 with both thresholds).
_CHUNK_ELEMENTS = 8_192
#: Capacity of the row cache (``_reference_row``), which serves every rule
#: row of every weight.  One pass over the trace-inversion benchmark bundle
#: uses 140 distinct ``(scheme, n, beta)`` rows at either seed (the
#: composition, on Jacobi series, reads none of its own), and an LRU cache
#: smaller than such a cyclic working set misses every row on every pass: at
#: 64 entries, 280 misses in two passes, at 256 the 140 first uses only.
#: Measured on that workload (ten alternating pairs per seed, 2 CPUs, one
#: BLAS thread): items/s 94.4 -> 111.3 (seed 0) and 78.6 -> 91.3 (seed 1) in
#: the median, peak RSS 34.97 -> 35.47 MB.  A row holds at most ``2*n``
#: float64, so 256 rows of n = 1024 hold 4 MB.
_ROW_CACHE_SIZE = 256


@dataclass(frozen=True)
class ScalarWeightFn:
    """Strictly increasing C^1 weight ``phi`` on a closed interval.

    ``phi`` and ``dphi`` must accept numpy arrays.  ``exponent`` declares the
    power form ``phi(t) = phi(lo) + t**exponent - lo**exponent`` (finite and
    positive, and ``lo > 0`` unless it is 1, the affine case).  The singular
    variable is then ``v = |t**exponent - tau**exponent|``, so the rule
    nodes come in closed form and keep their digits next to the anchor;
    without the declaration they come from ``inverse``.
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

    def inverse(self, u):
        """Value ``t`` with ``phi(t) = u``, entry by entry: Newton steps on
        ``phi - u`` from the piecewise-linear inverse through ``phi`` at 65
        points, bisecting the bracket kept by the signs of ``phi - u`` where a
        step would leave it or ``dphi`` is not positive.  An entry stops one
        Newton step after ``phi - u`` reaches the rounding level of ``phi``
        at the ends, or when its step no longer moves it, so its value never
        depends on the others; ``phi`` is called at most 80 times."""
        target = np.asarray(u, dtype=float).ravel()
        grid = np.linspace(self.lo, self.hi, 65)
        table = np.asarray(self.phi(grid), dtype=float)
        settled = 8.0 * np.finfo(float).eps * max(abs(table[0]), abs(table[-1]))
        t = np.interp(target, table, grid)
        a, b = np.full(t.size, self.lo), np.full(t.size, self.hi)
        out, live = t.copy(), np.arange(t.size)
        for _ in range(79):
            f = np.asarray(self.phi(t), dtype=float) - target
            d = np.asarray(self.dphi(t), dtype=float)
            below = f < 0.0
            a, b = np.where(below, t, a), np.where(below, b, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = t - f / d
            converged = np.abs(f) <= settled
            inside = (d > 0.0) & (newton >= a) & (newton <= b)
            step = np.where(inside, newton, np.where(converged, t, 0.5 * (a + b)))
            out[live] = step
            going = ~converged & (step != t)
            if not going.any():
                break
            t, target, a, b, live = step[going], target[going], a[going], b[going], live[going]
        return out.reshape(np.shape(u))

    def power_gap(self, t):
        """``t**exponent - lo**exponent`` for ``t`` in the interval, without
        cancellation: ``lo**d * expm1(d*log1p((t - lo)/lo))``."""
        d, lo = self.exponent, self.lo
        if d == 1.0:
            return t - lo
        return lo**d * np.expm1(d * np.log1p((t - lo) / lo))


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


def prop_frac_integral(f: Callable, p: FracSpec, t, q: Quadrature1D):
    """Left proportional fractional integral of ``f`` at ``t``, from the
    lower interval end.  ``t`` may be a scalar or an array; every entry gets
    its own rule row, which depends on that target only.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t_arr = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t_arr).ravel()
    _check_targets(p.weight, ts)
    if p.sigma == 0.0:
        out = np.asarray(f(ts)) + 0.0j  # identity limit of the tempered kernel
    else:
        out = _integral_dispatch(f, p, ts, q)
    if scalar:
        return out[0]
    return out.reshape(t_arr.shape)


def prop_frac_derivative(
    f: Callable,
    p: FracSpec,
    t,
    q: Quadrature1D,
    h: Optional[float] = None,
):
    """Left proportional fractional derivative of order ``p.alpha``.

    Composes the first-order proportional step with the integral of
    complementary order ``1 - alpha``; the derivative of the inner integral
    is taken by a central difference of step ``h`` (``difference_step`` of
    the interval when ``None``), clipped one-sided at the interval ends.  The
    inner integral is called once, on the stencil ``[max(t - h, lo), min(t +
    h, hi)]`` and, where the term ``(1 - sigma) * integral`` is live
    (``sigma != 1``), on ``t`` itself.
    """
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
    _check_targets(w, ts)
    if p.sigma == 0.0:
        out = np.asarray(f(ts)) + 0.0j
        return out[0] if scalar else out.reshape(t_arr.shape)

    tm, tp = np.maximum(ts - h, w.lo), np.minimum(ts + h, w.hi)
    stencil = (tm, tp) if p.sigma == 1.0 else (tm, tp, ts)
    g = prop_frac_integral(f, FracSpec(1.0 - p.alpha, p.sigma, w),
                           np.concatenate(stencil), q).reshape(len(stencil), ts.size)
    out = p.sigma * ((g[1] - g[0]) / (tp - tm)) / w.dphi(ts)
    if p.sigma != 1.0:
        out = (1.0 - p.sigma) * g[2] + out
    return out[0] if scalar else out.reshape(t_arr.shape)


def difference_step(lo: float, hi: float) -> float:
    """Default central-difference step on ``[lo, hi]``: 1e-4 of its span."""
    return (hi - lo) * 1e-4


def derivative_of_integral(f: Callable, p: FracSpec, t: float) -> tuple:
    """``(I f, D I f)`` at the point ``t``: the left integral of ``f`` of order
    ``gamma = p.alpha`` and the left derivative of that order of this
    integral, on Jacobi series in ``x = 2U/L - 1`` (``U = phi - phi(lo)``,
    ``L`` at most its range): no rule row, and a cost that does not depend
    on ``n``.  With ``c = (sigma - 1)/sigma``, the Legendre coefficients
    ``a_k`` of ``exp(-c(U - U(t))) f`` at ``N`` Gauss-Legendre samples give,
    by the Jacobi fractional-integral formula (Chen, Shen & Wang, Math. Comp.
    85 (2016) 1603-1638), ``I f = sigma^-gamma (L/2)^gamma (1+x)^gamma sum
    a_k Gamma(k+1)/Gamma(k+gamma+1) P_k^(-gamma,gamma)(x)`` at ``t``.  The
    derivative acts on that integral, not by the semigroup: the coefficients
    of ``exp(-c(U - U(t))) I f / (1+x)^gamma`` in ``P_k^(0,gamma)`` follow
    from the ``a_k`` by the connection formula (``_series_maps``), and each
    term maps to ``sigma^gamma (L/2)^-gamma Gamma(k+gamma+1)/Gamma(k+1)
    P_k^(gamma,0)``, read at ``x`` as ``(-1)^k P_k^(0,gamma)(-x)`` (DLMF
    18.6.1), so both sums run on one recurrence.
    ``N`` starts at 32 and doubles, up to 256, while the last quarter of the
    coefficients exceeds 1e-13 of the largest.  The samples sit where ``U =
    L(1+x)/2``, by the inverse of ``power_gap`` for a declared weight and by
    ``inverse`` for any other.  At ``sigma = 0`` both operators are the
    identity: ``(f(t), f(t))``."""
    if p.sigma == 0.0:
        value = complex(np.asarray(f(np.array([t])))[0])
        return value, value
    w, gamma, sigma = p.weight, p.alpha, p.sigma
    c = (sigma - 1.0) / sigma
    big_l, u0 = _singular_range(w, np.array([w.hi, t])).tolist()
    if c != 0.0:  # L is cut to U(t) + 2/|c|, where exp(-c(U - U(t))) reaches e^2
        big_l = min(big_l, u0 + 2.0 / abs(c))
    d, n = w.exponent, 32
    while True:
        x, analysis = _jacobi_analysis(n)
        u = 0.5 * big_l * (1.0 + x)
        if d is None:
            ts = w.inverse(float(w.phi(np.asarray(w.lo))) + u)
        elif d == 1.0:
            ts = w.lo + u
        else:
            ts = w.lo + w.lo * np.expm1(np.log1p(u / w.lo**d) / d)
        coef = analysis @ (np.exp(c * (u0 - u)) * f(ts))
        size = np.abs(coef)
        if n == 256 or size[-(n // 4):].max() <= 1e-13 * size.max():
            break
        n *= 2
    # exp(-c(U - U(t))) I f / (1+x)^gamma over sigma^-gamma (L/2)^gamma, in
    # P_k^(0,gamma); the derivative's sigma^gamma (L/2)^-gamma cancels that factor
    connect, ratios = _series_maps(n, gamma)
    series = connect @ coef
    x0 = 2.0 * u0 / big_l - 1.0
    value = (u0 / sigma) ** gamma * (series @ _jacobi_polynomials(n, 0.0, gamma, x0))
    return value, (ratios * series) @ _jacobi_polynomials(n, 0.0, gamma, -x0)


def derivative_of_one(p: FracSpec, t: float) -> float:
    """``D 1`` at the point ``t``: the left derivative of order ``gamma =
    p.alpha`` of the constant one, in closed form.  With ``U = phi(t) -
    phi(lo)`` and ``c = (sigma - 1)/sigma``, ``D 1 = sigma^gamma [U^-gamma
    e^(cU)/Gamma(1-gamma) - c U^(1-gamma) 1F1(1-gamma; 2-gamma;
    cU)/Gamma(2-gamma)]``, whose second term is ``(1-sigma)^gamma P(1-gamma,
    -cU)`` by Kummer's transformation (DLMF 13.2.39): ``P(a, y) = y^a e^-y
    sum y^k/Gamma(a+k+1)`` (DLMF 8.7.1), a sum of positive terms, is the
    regularized incomplete gamma function.  Infinite at the anchor, and 1 at
    ``sigma = 0``, where the derivative is the identity."""
    if p.sigma == 0.0:
        return 1.0
    gamma, sigma = p.alpha, p.sigma
    big_u = float(_singular_range(p.weight, np.array([t]))[0])
    if big_u == 0.0:
        return math.inf
    y = (1.0 - sigma) / sigma * big_u
    ratio = 1.0
    if y <= 50.0:  # above, P is 1 to within y^-gamma e^-y / Gamma(1-gamma) < 1e-21
        total, term, k = 1.0, 1.0, 0
        while term > 1e-17 * total:
            term *= y / (2.0 - gamma + k)
            total, k = total + term, k + 1
        ratio = y ** (1.0 - gamma) * math.exp(-y) * total / math.gamma(2.0 - gamma)
    head = sigma**gamma * big_u**-gamma * math.exp(-y) / math.gamma(1.0 - gamma)
    return head + (1.0 - sigma) ** gamma * ratio


# ----------------------------------------------------------------------
# quadrature internals


def _check_targets(w: ScalarWeightFn, ts: np.ndarray) -> None:
    """Refuse targets beyond 1e-12 outside the interval or 1e-14 past the anchor."""
    # one pass each for the extremes; a NaN makes both NaN and fails the test
    t_min, t_max = ts.min(initial=np.inf), ts.max(initial=-np.inf)
    if not (t_min >= w.lo - 1e-12 and t_max <= w.hi + 1e-12):
        raise DomainError(f"evaluation point outside [{w.lo}, {w.hi}]")
    if t_min < w.lo - 1e-14:
        raise DomainError("left integral needs t >= lower end")


def _read_only(*arrays) -> tuple:
    """Mark arrays returned by a cache read-only: every caller shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _integral_dispatch(f, p, ts, q):
    """Integral at each target, one cache-sized block of rule rows at a time."""
    out = np.empty(ts.shape, dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // q.n)
    for start in range(0, ts.size, chunk):
        sl = slice(start, start + chunk)
        tau, wts = _rule(p, ts[sl], q)
        out[sl] = np.sum(np.asarray(f(tau)) * wts, axis=1)
    return out


#: Mesh grading toward the anchor end.  Compositions integrate functions
#: with an algebraic cusp there (a fractional integral of a smooth input
#: behaves like distance-to-anchor to its order), so the mesh clusters at
#: both ends: hard at the singular endpoint, mildly at the anchor.
_ANCHOR_GRADING = 3.0


def _jacobi_matrix(n: int, beta: float) -> tuple:
    """``(matrix, diag, off)`` of the weight ``(1+x)^(beta-1)`` on ``[-1,
    1]``: the three-term recurrence of its orthonormal polynomials, ``x p_k
    = off[k+1] p_(k+1) + diag[k] p_k + off[k] p_(k-1)`` for ``k = 0 ... n``,
    and the symmetric Jacobi matrix, its leading ``n x n`` block (Golub &
    Welsch, Math. Comp. 23 (1969) 221-230)."""
    b = beta - 1.0  # Jacobi exponents (0, b)
    # k + b and s - 1 at k = 1, and b + 1, equal beta: formed from b they
    # would lose 1.1e-16 / beta relative, so every exponent comes from beta
    k = np.arange(n + 1, dtype=float)
    s = 2.0 * k - 1.0 + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = b * b / (s * (s + 2.0))
        off = np.sqrt(4.0 * k * k * (k - 1.0 + beta) ** 2 / (s * s * (s + 1.0) * (2.0 * k - 2.0 + beta)))
    diag[0], off[0] = b / (beta + 1.0), 0.0
    return np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1), diag, off


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, beta_key: float):
    """Gauss rule of the weight ``(1+x)^(beta-1)`` on ``[-1, 1]``, for the
    one caller that needs ``beta < 1``: ``_reference_row``'s
    ``gauss_jacobi`` scheme.

    The nodes are the eigenvalues of the Jacobi matrix (``_jacobi_matrix``),
    refined by one Newton step on the three-term recurrence of the
    orthonormal polynomials ``p_k``.  The weights are the Christoffel
    numbers ``1 / sum_{k<n} p_k(x)^2`` at the refined nodes.  Below ``beta =
    1`` the weight is singular at ``x = -1``, and there squared eigenvector
    components, and the ``1 / (p_{n-1} p_n')`` form, lose digits at the
    nodes next to the singular end, where a rounding of the node moves them
    far: up to 1e-6 relative at n = 512 and beta = 0.001, against about
    1e-11 for the Christoffel numbers.  The Legendre weights of
    ``_jacobi_analysis`` are not singular and take the eigenvectors instead.
    """
    matrix, diag, off = _jacobi_matrix(n, beta_key)
    x = np.linalg.eigvalsh(matrix)

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
    mass = 2.0**beta_key / beta_key  # p_0 = 1 stands for 1/sqrt(mass)
    return _read_only(x, mass / total)


@lru_cache(maxsize=128)
def _jacobi_recurrence(n: int, a: float, b: float) -> tuple:
    """``(slope, shift, back)`` of ``_jacobi_polynomials``' recurrence for
    ``k = 1 ... n - 2``, ``P_(k+1) = (slope x + shift) P_k - back P_(k-1)``,
    as tuples of floats.  ``derivative_of_integral`` reads one ``(n, 0,
    gamma)`` per series map (23 in the benchmark's ``trace-inversion``
    config at its default seed); an entry holds 3 (n - 2) floats, 3 KB at n
    = 32 and 25 KB at n = 256."""
    slope, shift, back = [], [], []
    for k in range(1, n - 1):
        s = 2.0 * k + a + b
        den = 2.0 * (k + 1.0) * (k + a + b + 1.0) * s
        slope.append((s + 1.0) * (s + 2.0) * s / den)
        shift.append((s + 1.0) * (a * a - b * b) / den)
        back.append(2.0 * (k + a) * (k + b) * (s + 2.0) / den)
    return tuple(slope), tuple(shift), tuple(back)


def _jacobi_polynomials(n: int, a: float, b: float, x):
    """``P_k^(a,b)(x)`` for ``k < n``, one row per ``k``, on the three-term
    recurrence (DLMF 18.9.1, coefficients from ``_jacobi_recurrence``); ``x``
    is a float or an array.  ``P_1`` is written out: the recurrence divides
    by zero at ``k = 0`` when ``a + b = 0``."""
    rows = [1.0 + 0.0 * x, 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x]
    for k, (slope, shift, back) in enumerate(zip(*_jacobi_recurrence(n, a, b)), 1):
        rows.append((slope * x + shift) * rows[k] - back * rows[k - 1])
    return np.array(rows)


@lru_cache(maxsize=64)
def _jacobi_analysis(n: int) -> tuple:
    """``(x, analysis)``: the ``n`` Gauss-Legendre nodes, and the map from
    samples there to Legendre coefficients, exact for degree ``n - 1``.
    Both come from one eigendecomposition of the Jacobi matrix of the
    Legendre weight (``_jacobi_matrix`` at ``beta = 1``; Golub & Welsch):
    the nodes are its eigenvalues, and column ``j`` of its eigenvectors
    ``V`` holds ``p_k(x_j) sqrt(w_j)``, so that ``w_j p_k(x_j) = sqrt(2)
    V[k,j] V[0,j]`` whatever each column's sign.  Dividing by ``||P_k||``
    over ``sqrt(2)``, ``sqrt(1/(2k+1))``, gives the map."""
    x, v = np.linalg.eigh(_jacobi_matrix(n, 1.0)[0])
    norm = np.sqrt(2.0 * np.arange(n) + 1.0)[:, None]  # sqrt(2) / ||P_k||
    return _read_only(x, norm * v * v[0])


@lru_cache(maxsize=64)
def _series_maps(n: int, gamma: float) -> tuple:
    """``(connect, ratios)`` of ``derivative_of_integral`` at ``n`` terms and
    order ``gamma``.  ``connect`` takes Legendre coefficients ``a_k`` to the
    coefficients in ``P_l^(0,gamma)`` of ``sum a_k Gamma(k+1)/Gamma(k+gamma+1)
    P_k^(-gamma,gamma)``: by the connection formula between Jacobi
    polynomials of one ``beta`` (DLMF section 18.18), ``connect[l, k] =
    (2l+gamma+1) q_(k-l) G_(k+l)`` for ``l <= k`` and zero below the
    diagonal, a Toeplitz factor ``q_m = (-gamma)_m/m!`` times a Hankel factor
    ``G_s = Gamma(s+1)/Gamma(s+gamma+2)``, each one cumulative product.
    ``ratios`` holds ``(-1)^k Gamma(k+gamma+1)/Gamma(k+1)``."""
    m, s = np.arange(1.0, n), np.arange(1.0, 2 * n - 1)
    q = np.zeros(2 * n - 1)  # q_m at n - 1 + m, zeros before
    q[n - 1:] = np.cumprod(np.append(1.0, (m - 1.0 - gamma) / m))
    big_g = np.cumprod(np.append(1.0 / math.gamma(gamma + 2.0), s / (s + gamma + 1.0)))
    # strided views: row l of the Toeplitz factor starts at q_(-l), of the
    # Hankel factor at G_l; numpy checks that both stay inside their buffers
    step = q.itemsize
    connect = np.ndarray((n, n), float, q, (n - 1) * step, (-step, step)) * np.ndarray(
        (n, n), float, big_g, 0, (step, step))
    connect *= (2.0 * np.arange(n) + gamma + 1.0)[:, None]
    ratios = np.cumprod(np.append(math.gamma(gamma + 1.0), (m + gamma) / m))
    ratios[1::2] *= -1.0  # P_k^(gamma,0)(x) = (-1)^k P_k^(0,gamma)(-x)
    return _read_only(connect, ratios)


def _auto_grading(beta: float) -> float:
    """Grading exponent of the mesh for the singular weight ``v^(beta-1)``."""
    return float(min(max(2.0 / beta, 1.0), GRADING_CAP))


def _rule(p: FracSpec, ts: np.ndarray, q: Quadrature1D):
    """Nodes and real weights of the rule of ``q.scheme``, one row per
    target; the tempered-exponential factor and ``1 / sigma^beta`` are folded
    into the weights so that ``sum(weights * f(nodes))`` approximates the
    integral.  Every row is ``L^beta * sigma^-beta`` times the scheme's
    reference row, ``L`` the range of the singular variable
    (``_singular_range``), times the tempered factor at ``v = L*u``.  Its
    nodes are ``(t^d - L*u)^(1/d)`` for a weight declared in power form,
    and ``inverse(phi(t) - L*u)`` for any other weight."""
    w, beta, sigma = p.weight, p.alpha, p.sigma
    u, row = _reference_row(q.scheme, q.n, beta)
    d = w.exponent
    level = (np.asarray(w.phi(ts), dtype=float) if d is None else ts**d)[:, None]
    big_l = _singular_range(w, ts, level[:, 0] if d is None else None)
    v = np.multiply(big_l[:, None], u)
    tau = np.subtract(level, v, out=v)
    if d is None:
        tau = w.inverse(tau)
    elif d != 1.0:
        np.power(tau, 1.0 / d, out=tau)
    scale = big_l**beta * sigma ** (-beta)
    wts = np.multiply(scale[:, None], row)
    c = (sigma - 1.0) / sigma
    if c != 0.0:
        big_l *= c * _LOG2E
        factor = np.multiply(big_l[:, None], u)
        wts *= np.exp2(factor, out=factor)
    return tau, wts


@lru_cache(maxsize=_ROW_CACHE_SIZE)
def _reference_row(scheme: str, n: int, beta: float) -> tuple:
    """``(u, row)`` of a scheme at ``L = 1`` and ``sigma = 1``: fractions
    ``u`` of the singular variable, running from the singular end, and the
    weights there.  Graded: fractions graded toward both ends and their
    product-trapezoid weights.  Gauss-Jacobi: ``(1 + x)/2`` and ``wj *
    2^-beta / Gamma(beta)`` for the rule ``(x, wj)`` of ``(1 + x)^(beta - 1)``."""
    if scheme == "gauss_jacobi":
        x, wj = _jacobi_rule(n, round(beta, 12))
        return _read_only(0.5 * (1.0 + x), wj * (2.0 ** (-beta) / math.gamma(beta)))
    x = np.arange(n, dtype=float) / (n - 1)
    u = 1.0 - (1.0 - x ** _auto_grading(beta)) ** _ANCHOR_GRADING
    # never sample the anchor itself: fractional integrals of smooth inputs
    # drop to zero in an exponentially thin layer there when the order is
    # tiny, and power-law inputs may blow up; the one-sided limit is the
    # value a composition should see
    u[-1] = 1.0 - 1e-12
    return _read_only(u, _panel_weights(u, beta))


def _panel_weights(v: np.ndarray, beta: float) -> np.ndarray:
    """Node weights of the product-trapezoid rule at the ascending nodes
    ``v`` of the singular variable, already divided by ``Gamma(beta)``."""
    gamma_b1 = math.gamma(beta + 1.0)
    vb = v**beta  # one power per node; each panel uses both of its ends
    vbv = vb * v
    vl, vh = v[:-1], v[1:]
    vb_l, vb_h = vb[:-1], vb[1:]
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
    slope_coef = vbv[1:] - vbv[:-1]  # first moment m1, then the slope
    slope_coef *= beta / ((beta + 1.0) * gamma_b1)
    slope_coef -= vl * c0
    dv = vh - vl
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_coef /= dv
    slope_coef[~(dv > 0)] = 0.0

    wts = np.empty_like(v)
    np.subtract(c0, slope_coef, out=wts[:-1])
    wts[-1] = 0.0
    wts[1:] += slope_coef
    return wts


def tabulate(f: Callable, p: FracSpec, q: Quadrature1D):
    """Surrogate ``t -> I(t)`` of the integral of ``f``, for compositions that
    would otherwise take one full quadrature per node of the outer rule.

    Every rule row is ``L^beta`` (``_singular_range``) times a function
    analytic in the target, so ``g = I / L^beta`` is analytic on the interval
    and a few Chebyshev samples resolve it to rounding (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013).  One
    integral call samples ``g`` at ``N = 32`` first-kind Chebyshev points of
    the interval less ``1e-12`` of its span at the anchor; ``N`` doubles, up
    to ``max(256, n // 4)``, while the last quarter of the Chebyshev
    coefficients exceeds ``1e-13 * max|g|``.  The surrogate is ``L^beta``
    times the barycentric interpolant of ``g`` (Berrut & Trefethen, SIAM Rev.
    46 (2004) 501-517), the integral itself on a sample, and between the
    anchor and ``1e-12`` of the span inside it the value there: the
    one-sided limit that a composition should see.  When the coefficients
    have not decayed at the budget, it returns the direct rule
    (``prop_frac_integral``, with the same clip at the anchor) instead of a
    surrogate less exact than the rule.  At ``sigma = 0`` it is ``f``
    itself.
    """
    if p.sigma == 0.0:
        def identity(t):
            out = np.asarray(f(np.asarray(t, dtype=float))) + 0.0j
            return out if out.ndim else out[()]

        return identity
    w, beta = p.weight, p.alpha
    hair = 1e-12 * (w.hi - w.lo)
    a, b = w.lo + hair, w.hi
    budget, n_cheb = max(256, q.n // 4), 32
    while True:
        theta, xs = _chebyshev_points(a, b, n_cheb)
        samples = prop_frac_integral(f, p, xs, q)
        gs = samples / _singular_range(w, xs) ** beta
        cos_tail = np.cos(np.outer(np.arange(n_cheb - n_cheb // 4, n_cheb), theta))
        # two real products: the first complex one maps 0.3 MB more memory
        tail = np.hypot(cos_tail @ gs.real, cos_tail @ gs.imag)
        if np.max(np.abs(tail)) * 2.0 / n_cheb <= 1e-13 * np.max(np.abs(gs)):
            break
        if n_cheb == budget:
            # not resolved within the budget: the rule itself, not a surrogate
            # less exact than it
            def direct(t):
                return prop_frac_integral(f, p, np.clip(t, a, b), q)

            return direct
        n_cheb = min(2 * n_cheb, budget)
    return _barycentric(theta, xs, gs, a, b, exact=samples,
                        scale=lambda t: _singular_range(w, t) ** beta)


def _chebyshev_points(a: float, b: float, n: int) -> tuple:
    """``(theta, xs)``: the ``n`` first-kind Chebyshev points ``xs`` of ``[a,
    b]``, at the angles ``theta``, from ``b`` down to ``a``."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return theta, 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)


def _barycentric(theta: np.ndarray, xs: np.ndarray, values: np.ndarray, a: float, b: float,
                 exact: Optional[np.ndarray] = None, scale: Optional[Callable] = None) -> Callable:
    """Surrogate ``t -> scale(t) * p(t)`` on ``[a, b]``, targets clipped to
    it: ``p`` the barycentric interpolant through the complex ``values`` at
    the first-kind Chebyshev points ``xs`` of ``[a, b]`` (angles ``theta``,
    ``_chebyshev_points``), with the weights ``(-1)^j sin(theta_j)`` (Berrut &
    Trefethen, SIAM Rev. 46 (2004) 501-517), and ``scale`` one when ``None``.
    On a sample, where ``p`` is not finite, the surrogate is ``exact`` there
    (``values`` when ``None``).  ``p`` is taken in blocks of
    ``_CHUNK_ELEMENTS`` (samples x targets) entries; a target's value may
    change in the last bit with the batch it is evaluated in.  A scalar
    target gives a scalar."""
    bary = np.sin(theta)[:, None]
    bary[1::2] *= -1.0
    terms = np.stack([values.real, values.imag, np.ones(xs.size)])  # numerators and denominator
    chunk = max(1, _CHUNK_ELEMENTS // xs.size)
    exact = values if exact is None else exact

    def surrogate(t):
        t_arr = np.clip(np.asarray(t, dtype=float), a, b)
        ts = t_arr.ravel()
        sums = np.empty((3, ts.size))
        out = np.empty(ts.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, ts.size, chunk):
                sl = slice(start, start + chunk)
                kernel = ts[sl] - xs[:, None]  # samples down, targets across
                np.divide(bary, kernel, out=kernel)
                # vector-matrix products: a matrix product would touch BLAS's
                # work buffer, 0.3 MB more peak memory on trace-inversion
                for term, total in zip(terms, sums[:, sl]):
                    np.dot(term, kernel, out=total)
            np.divide(sums[:2], sums[2], out=out.view(float).reshape(ts.size, 2).T)
        if scale is not None:
            out *= scale(ts)
        hit = np.flatnonzero(~np.isfinite(sums[2]))  # a target on a sample: 1/0
        out[hit] = exact[np.argmin(np.abs(ts[hit] - xs[:, None]), axis=0)]
        out = out.reshape(t_arr.shape)
        return out if out.ndim else out[()]

    return surrogate


def _singular_range(w: ScalarWeightFn, ts: np.ndarray,
                    phi_ts: Optional[np.ndarray] = None) -> np.ndarray:
    """Range ``L`` of the singular variable at each target: ``power_gap``
    from the anchor ``lo`` for a declared power weight (taken without
    cancellation), ``|phi(t) - phi(lo)|`` otherwise, with ``phi(ts)`` from
    ``phi_ts`` when the caller holds it."""
    if w.exponent is None:
        phi_ts = np.asarray(w.phi(ts), dtype=float) if phi_ts is None else phi_ts
        return np.abs(phi_ts - float(w.phi(np.asarray(w.lo))))
    return np.maximum(w.power_gap(ts), 0.0)
