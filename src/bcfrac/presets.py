"""Named weight, scale-function, and test-field presets for experiments.

Custom plane functions are accepted as arithmetic expression strings over
``x`` and ``y`` (constants, ``+ - * / ^``, ``exp``, ``sin``, ``cos``, and
the imaginary unit ``i``).  A recursive-descent parser builds an expression
tree, the tree is differentiated by rule, and the value and both partials
are compiled to numpy closures, so the resulting
:class:`~bcfrac.weighted_cr.PlaneFunction` carries analytic partials and no
input string is ever evaluated as code.
"""

from __future__ import annotations

import cmath
import math
import operator
import re

import numpy as np

from .errors import ConfigError
from .frac_cr_bicomplex import Phi4, RectDomain
from .weighted_cr import PlaneFunction, ProductFunction, WeightPair

#: One token of the expression grammar, matched longest first as Python's
#: tokenizer does.
_TOKEN_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|x|y|i|pi|exp|sin|cos|[-+*/^()\s,.]")

#: Longest accepted expression, in tokens.  Parsing, differentiation and the
#: compiled closures recurse once per tree level; trees built from this many
#: tokens stay well inside Python's recursion limit.
_MAX_TOKENS = 256


def _real_or_complex(real_fn, complex_fn):
    return lambda v: complex_fn(v) if isinstance(v, complex) else real_fn(v)


# An expression tree is a tuple: ("const", value), ("x",), ("y",), or an
# operator followed by its operand trees.  Constant operands fold with
# Python's scalar arithmetic, so ``(-8)^(1/3)`` is complex as in Python; the
# compiled closures apply the numpy forms to arrays.  ``log`` only appears in
# derivatives of a power with a variable exponent.
_SCALAR = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": operator.pow, "neg": operator.neg,
    "exp": _real_or_complex(math.exp, cmath.exp),
    "sin": _real_or_complex(math.sin, cmath.sin),
    "cos": _real_or_complex(math.cos, cmath.cos),
    "log": lambda v: cmath.log(v) if isinstance(v, complex) or v < 0 else math.log(v),
}
_ARRAY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": operator.pow, "neg": operator.neg,
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "log": np.log,
}
_ZERO, _ONE, _TWO = ("const", 0.0), ("const", 1.0), ("const", 2.0)


def _is(node, value) -> bool:
    return node[0] == "const" and node[1] == value


def _make(op, *args):
    """The tree of ``op`` applied to ``args``.  As a computer-algebra system
    builds an expression, it folds constants and drops the terms ``0 + a``,
    ``a - 0``, ``1 * a``, ``a / 1``, ``a ^ 1`` and ``--a``; ``0 * a``,
    ``0 / a`` and ``a ^ 0`` become constants.  Folding raises what Python's arithmetic
    raises (ZeroDivisionError, OverflowError, ValueError)."""
    if all(arg[0] == "const" for arg in args):
        return ("const", _SCALAR[op](*(arg[1] for arg in args)))
    if op == "neg":
        (a,) = args
        return a[1] if a[0] == "neg" else ("neg", a)
    if len(args) == 1:
        return (op, *args)
    a, b = args
    if op == "+":
        if _is(a, 0):
            return b
        if _is(b, 0):
            return a
    elif op == "-":
        if _is(b, 0):
            return a
        if _is(a, 0):
            return _make("neg", b)
    elif op == "*":
        if _is(a, 0) or _is(b, 0):
            return _ZERO
        if _is(a, 1):
            return b
        if _is(b, 1):
            return a
    elif op == "/":
        if _is(a, 0):
            return _ZERO
        if _is(b, 1):
            return a
    elif op == "^":
        if _is(b, 0):
            return _ONE
        if _is(b, 1):
            return a
    return (op, a, b)


def _derivative(node, var: str):
    """Partial derivative of a tree with respect to ``"x"`` or ``"y"``."""
    op = node[0]
    if op == "const":
        return _ZERO
    if op in ("x", "y"):
        return _ONE if op == var else _ZERO
    da = _derivative(node[1], var)
    if op == "neg":
        return _make("neg", da)
    if op == "exp":
        return _make("*", node, da)
    if op == "sin":
        return _make("*", _make("cos", node[1]), da)
    if op == "cos":
        return _make("*", _make("neg", _make("sin", node[1])), da)
    a, b = node[1], node[2]
    db = _derivative(b, var)
    if op in ("+", "-"):
        return _make(op, da, db)
    if op == "*":
        return _make("+", _make("*", da, b), _make("*", a, db))
    if op == "/":
        if _is(db, 0):
            return _make("/", da, b)
        return _make("/", _make("-", _make("*", da, b), _make("*", a, db)), _make("^", b, _TWO))
    # power: b * a^(b - 1) * da for a constant exponent, else
    # a^b * (db * log(a) + b * da / a)
    if b[0] == "const":
        return _make("*", _make("*", b, _make("^", a, _make("-", b, _ONE))), da)
    return _make("*", node, _make("+", _make("*", db, _make("log", a)),
                                  _make("/", _make("*", b, da), a)))


def _compile(node):
    """A closure evaluating the tree on broadcastable ``(x, y)`` arrays."""
    op = node[0]
    if op == "const":
        value = np.asarray(node[1])[()]  # a numpy scalar: 1j / x at x = 0 is inf, not an exception
        return lambda x, y: value
    if op == "x":
        return lambda x, y: x
    if op == "y":
        return lambda x, y: y
    fn = _ARRAY[op]
    if len(node) == 2:
        inner = _compile(node[1])
        return lambda x, y: fn(inner(x, y))
    left, right = _compile(node[1]), _compile(node[2])
    return lambda x, y: fn(left(x, y), right(x, y))


def _plane_callable(node):
    """Compile a tree to ``f(x, y)`` returning the broadcast shape of its
    arguments, constants and single-variable trees included."""
    fn = _compile(node)

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = fn(x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        return out if np.shape(out) == shape else np.broadcast_to(out, shape).copy()

    return evaluate


class _Parser:
    """Recursive descent over the grammar tokens, with Python's precedence
    and associativity (``^`` and ``**`` both mean power)::

        sum     := product (("+" | "-") product)*
        product := unary (("*" | "/") unary)*
        unary   := ("+" | "-") unary | power
        power   := atom (("^" | "**") unary)?
        atom    := number | "x" | "y" | "i" | "pi"
                 | ("exp" | "sin" | "cos") "(" sum ")" | "(" sum ")"
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize()
        self.k = 0

    def _error(self, what: str, pos: int) -> ConfigError:
        return ConfigError(f"expression {self.text!r}: {what} at position {pos}")

    def _tokenize(self) -> list:
        """``(token, position)`` pairs without whitespace; ``**`` and a
        number written ``.5`` (scanned as ``.`` then ``5``) are joined."""
        tokens, end = [], 0
        while end < len(self.text):
            match = _TOKEN_RE.match(self.text, end)
            if match is None:  # such as "#", or the "e" of 2.2.e1, which splits only as 2. 2.e1
                raise self._error(f"unexpected {self.text[end]!r} outside the supported grammar "
                                  "(numbers, x, y, i, pi, + - * / ^, exp, sin, cos)", end)
            tok, pos, end = match.group(), match.start(), match.end()
            if tok.isspace():
                continue
            if tokens and tokens[-1][1] + len(tokens[-1][0]) == pos:
                prev = tokens[-1][0]
                if prev == "*" and tok == "*" or prev == "." and tok[0].isdigit():
                    tokens[-1] = (prev + tok, tokens[-1][1])
                    continue
            tokens.append((tok, pos))
            if len(tokens) > _MAX_TOKENS:  # refused before the rest is scanned
                raise self._error(f"more than {_MAX_TOKENS} tokens", pos)
        return tokens

    def _peek(self):
        return self.tokens[self.k][0] if self.k < len(self.tokens) else None

    def _take(self) -> tuple:
        if self.k == len(self.tokens):
            raise self._error("unexpected end", len(self.text))
        self.k += 1
        return self.tokens[self.k - 1]

    def _expect(self, want: str) -> None:
        tok, pos = self._take()
        if tok != want:
            raise self._error(f"expected {want!r}, found {tok!r}", pos)

    def _apply(self, op: str, pos: int, *args):
        try:
            return _make(op, *args)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise self._error(f"{op!r} has no finite value ({exc})", pos) from None

    def parse(self):
        tree = self._sum()
        if self.k < len(self.tokens):
            tok, pos = self.tokens[self.k]
            raise self._error(f"unexpected {tok!r}", pos)
        return tree

    def _sum(self):
        tree = self._product()
        while self._peek() in ("+", "-"):
            op, pos = self._take()
            tree = self._apply(op, pos, tree, self._product())
        return tree

    def _product(self):
        tree = self._unary()
        while self._peek() in ("*", "/"):
            op, pos = self._take()
            tree = self._apply(op, pos, tree, self._unary())
        return tree

    def _unary(self):
        if self._peek() in ("+", "-"):
            op, pos = self._take()
            operand = self._unary()
            return operand if op == "+" else self._apply("neg", pos, operand)
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek() in ("^", "**"):
            _, pos = self._take()
            return self._apply("^", pos, base, self._unary())
        return base

    def _atom(self):
        tok, pos = self._take()
        if tok[0] == "." or tok[0].isdigit():
            try:
                return ("const", float(tok))
            except ValueError:  # a lone "." or ".5." joined from "." and "5."
                raise self._error(f"malformed number {tok!r}", pos) from None
        if tok in ("x", "y"):
            return (tok,)
        if tok == "i":
            return ("const", 1j)
        if tok == "pi":
            return ("const", math.pi)
        if tok in ("exp", "sin", "cos"):
            self._expect("(")
            arg = self._sum()
            self._expect(")")
            return self._apply(tok, pos, arg)
        if tok == "(":
            inner = self._sum()
            self._expect(")")
            return inner
        raise self._error(f"unexpected {tok!r}", pos)


def parse_plane_expression(text: str) -> PlaneFunction:
    """Compile an expression in ``x`` and ``y`` into a plane function with
    analytic partial derivatives."""
    tree = _Parser(text).parse()
    try:
        dx, dy = _derivative(tree, "x"), _derivative(tree, "y")
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise ConfigError(f"expression {text!r} has no finite derivative ({exc})") from None
    return PlaneFunction(f=_plane_callable(tree), dx=_plane_callable(dx), dy=_plane_callable(dy))


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style constants used by the constant weight preset."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise ConfigError(f"cannot parse complex constant {text!r}") from None
    if not cmath.isfinite(value):  # complex() reads "nan" and rounds 1e400 to inf
        raise ConfigError(f"complex constant {text!r} is not finite")
    return value


def weight_preset(name: str, rect: RectDomain) -> WeightPair:
    """Resolve a weight preset: ``classical``, ``constant:a+bi,c+di``, or
    ``scaled-classical:<expression in x, y>``.  The pair ``(1, i*g)`` is
    orthogonal only for real ``g``, so ``g`` must be real and finite on
    ``rect.grid`` of both components.  A constant pair whose ``theta`` and
    ``phi_w`` both vanish is refused: both sides of every weighted identity
    then vanish, and its residual checks nothing.  (The other presets have
    ``theta = 1``.)"""
    if name == "classical":
        return WeightPair.classical()
    if name.startswith("constant:"):
        parts = name[len("constant:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"constant weights need two components, got {name!r}")
        theta, phi_w = (parse_complex_literal(part) for part in parts)
        if theta == 0 and phi_w == 0:
            raise ConfigError(f"theta and phi_w of {name!r} both vanish, so the weighted "
                              "identities would compare zero with zero")
        return WeightPair.constant(theta, phi_w)
    if name.startswith("scaled-classical:"):
        g = parse_plane_expression(name[len("scaled-classical:"):])
        for l in (1, 2):
            with np.errstate(all="ignore"):
                values = g.f(*rect.grid(l))
            if not (np.all(np.isfinite(values)) and np.all(np.imag(values) == 0)):
                raise ConfigError(f"scaled-classical factor {name[len('scaled-classical:'):]!r} "
                                  "must be real and finite on the domain")
        return WeightPair.scaled_classical(g)
    raise ConfigError(f"unknown weight preset {name!r}")


def phi_preset(name: str) -> Phi4:
    """Resolve a scale-function preset: ``linear``, ``fractal:d0,d1,d2,d3``,
    or ``custom:<expr component 1>|<expr component 2>``."""
    if name == "linear":
        return Phi4.fractal(1, 1, 1, 1)
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
    return RectDomain(*bounds)
