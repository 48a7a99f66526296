"""Named weight, scale-function, and test-field presets for experiments.

Custom plane functions are accepted as arithmetic expression strings over
``x`` and ``y`` (constants, ``+ - * / ^``, ``exp``, ``sin``, ``cos``, and
the imaginary unit ``i``); they are differentiated symbolically so the
resulting :class:`~bcfrac.weighted_cr.PlaneFunction` carries analytic
partials.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .frac_cr_bicomplex import Phi4, RectDomain
from .weighted_cr import PlaneFunction, ProductFunction, WeightPair

#: One token of the expression grammar.  Scanned left to right, each match
#: ends where the next begins, so checking a string takes linear time.
_TOKEN_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|x|y|i|pi|exp|sin|cos|[-+*/^()\s,.]")


def _in_grammar(text: str) -> bool:
    """Whether ``text`` is a sequence of grammar tokens."""
    pos = 0
    while pos < len(text):
        token = _TOKEN_RE.match(text, pos)
        if token is None:
            return False
        pos = token.end()
    return True


def parse_plane_expression(text: str) -> PlaneFunction:
    """Compile an expression in ``x`` and ``y`` into a plane function with
    symbolic partial derivatives."""
    if not _in_grammar(text):
        raise ConfigError(
            f"expression {text!r} uses tokens outside the supported grammar "
            "(numbers, x, y, i, pi, + - * / ^, exp, sin, cos)"
        )
    import sympy as sp
    from sympy.parsing.sympy_parser import parse_expr

    x, y = sp.symbols("x y", real=True)
    local = {"x": x, "y": y, "i": sp.I, "pi": sp.pi,
             "exp": sp.exp, "sin": sp.sin, "cos": sp.cos}
    try:
        expr = parse_expr(text.replace("^", "**"), local_dict=local, evaluate=True)
    except Exception as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from None
    fns = []
    for e in (expr, sp.diff(expr, x), sp.diff(expr, y)):
        raw = sp.lambdify((x, y), e, modules="numpy")
        fns.append(_broadcasting(raw))
    return PlaneFunction(f=fns[0], dx=fns[1], dy=fns[2])


def _broadcasting(raw):
    def wrapped(x, y):
        out = raw(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.broadcast_to(out, np.broadcast(np.asarray(x), np.asarray(y)).shape).copy() \
            if np.ndim(out) == 0 and (np.ndim(x) or np.ndim(y)) else out

    return wrapped


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style constants used by the constant weight preset."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ConfigError(f"cannot parse complex constant {text!r}") from None


def weight_preset(name: str) -> WeightPair:
    """Resolve a weight preset: ``classical``, ``constant:a+bi,c+di``, or
    ``scaled-classical:<expression in x, y>``."""
    if name == "classical":
        return WeightPair.classical()
    if name.startswith("constant:"):
        parts = name[len("constant:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"constant weights need two components, got {name!r}")
        return WeightPair.constant(parse_complex_literal(parts[0]), parse_complex_literal(parts[1]))
    if name.startswith("scaled-classical:"):
        g = parse_plane_expression(name[len("scaled-classical:"):])
        return WeightPair.scaled_classical(g)
    raise ConfigError(f"unknown weight preset {name!r}")


def phi_preset(name: str) -> Phi4:
    """Resolve a scale-function preset: ``linear``, ``fractal:d0,d1,d2,d3``,
    or ``custom:<expr component 1>|<expr component 2>``."""
    if name == "linear":
        return Phi4.linear()
    if name.startswith("fractal:"):
        try:
            deltas = [float(v) for v in name[len("fractal:"):].split(",")]
        except ValueError:
            raise ConfigError(f"bad fractal exponents in {name!r}") from None
        if len(deltas) != 4 or not all(0 < d < 1 for d in deltas):
            raise ConfigError("fractal preset needs four exponents in (0, 1)")
        return Phi4.fractal(*deltas)
    if name.startswith("custom:"):
        parts = name[len("custom:"):].split("|")
        if len(parts) != 2:
            raise ConfigError("custom scale preset needs two expressions separated by '|'")
        return Phi4(parse_plane_expression(parts[0]), parse_plane_expression(parts[1]))
    raise ConfigError(f"unknown scale-function preset {name!r}")


def field_preset(name: str) -> ProductFunction:
    """Deterministic test fields used by the experiment runner."""
    if name == "poly":
        return ProductFunction.from_holomorphic(
            lambda z: z**2 - 0.5 * z + 0.25j,
            lambda z: 2.0 * z - 0.5,
        )
    if name == "exp":
        return ProductFunction.from_holomorphic(lambda z: np.exp(0.5 * z), lambda z: 0.5 * np.exp(0.5 * z))
    if name == "affine":
        return ProductFunction.from_holomorphic(
            lambda z: 0.3 + 0.2j + (1.1 - 0.4j) * z,
            lambda z: (1.1 - 0.4j) * np.ones_like(z),
        )
    if name == "conjugate":
        return ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
    if name == "one":
        return ProductFunction.constant(1.0)
    raise ConfigError(f"unknown field preset {name!r}; "
                      "known: poly, exp, affine, conjugate, one")


UNIT_DOMAIN = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
POSITIVE_DOMAIN = (0.5, 1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5)

#: Ready-made experiment bundles mirroring the degenerate and fractal
#: regimes of the operator family; each entry is a list of experiment
#: dictionaries in the configuration-file schema.
EXPERIMENT_PRESETS = {
    "classical": [
        dict(name="classical-gauss", identity="gauss-weighted", domain=UNIT_DOMAIN,
             weights="classical", phi="linear", alpha=[0.5] * 4, sigma=[1, 0, 1, 0],
             field="poly", m=32, k=32, n=256, tolerance=1e-8, levels=1),
        dict(name="classical-reconstruction", identity="borel-pompeiu", domain=UNIT_DOMAIN,
             weights="classical", phi="linear", alpha=[0.5] * 4, sigma=[1, 0, 1, 0],
             field="conjugate", m=64, k=64, n=256, tolerance=1e-6, levels=1),
    ],
    "bg-reduction": [
        dict(name="bg-gauss", identity="frac-gauss", domain=UNIT_DOMAIN,
             weights="classical", phi="linear", alpha=[0.5] * 4, sigma=[1, 0, 1, 0],
             field="poly", m=32, k=32, n=512, tolerance=1e-6, levels=1),
        dict(name="bg-reconstruction", identity="frac-borel-pompeiu", domain=UNIT_DOMAIN,
             weights="classical", phi="linear", alpha=[0.5] * 4, sigma=[1, 0, 1, 0],
             field="poly", m=32, k=32, n=256, tolerance=5e-2, levels=1),
    ],
    "fractal": [
        dict(name="fractal-gauss", identity="frac-gauss", domain=POSITIVE_DOMAIN,
             weights="classical", phi="fractal:0.5,0.6,0.7,0.8",
             alpha=[1 - 1e-6] * 4, sigma=[1, 0, 1, 0],
             field="poly", m=32, k=32, n=256, tolerance=1e-4, levels=1),
        dict(name="fractal-inversion", identity="trace-inversion", domain=POSITIVE_DOMAIN,
             weights="classical", phi="fractal:0.5,0.6,0.7,0.8",
             alpha=[1 - 1e-6] * 4, sigma=[1, 0, 1, 0],
             field="poly", m=16, k=16, n=512, tolerance=1e-4, levels=1),
    ],
    "proportional-fractal": [
        dict(name="prop-fractal-inversion", identity="trace-inversion", domain=POSITIVE_DOMAIN,
             weights="classical", phi="fractal:0.5,0.6,0.7,0.8",
             alpha=[1 - 1e-6] * 4, sigma=[0.7, 0, 0.7, 0],
             field="poly", m=16, k=16, n=512, tolerance=1e-4, levels=1),
    ],
    "fractional-fractal": [
        dict(name="frac-fractal-inversion", identity="trace-inversion", domain=POSITIVE_DOMAIN,
             weights="classical", phi="fractal:0.5,0.6,0.7,0.8",
             alpha=[0.5, 0.6, 0.45, 0.55], sigma=[0.7, 0, 0.7, 0],
             field="poly", m=16, k=16, n=512, tolerance=1e-2, levels=2),
    ],
}


def rect_from_bounds(bounds) -> RectDomain:
    if len(bounds) != 8:
        raise ConfigError("domain needs eight bounds: a1,b1,c1,d1,a2,b2,c2,d2")
    return RectDomain(*[float(b) for b in bounds])
