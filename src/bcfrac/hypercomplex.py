"""Bicomplex and hyperbolic number arithmetic in the idempotent basis.

A bicomplex number is stored as its two idempotent components ``(z1, z2)``,
so that the represented value is ``z1*E + z2*E'`` where ``E`` and ``E'`` are
the two idempotent zero divisors (``E + E' = 1``, ``E*E' = 0``).  The
operators act per component: ``+``, ``-``, ``*`` (a scalar factor on either
side), ``star``, ``mod_k`` and ``invert``.  The modulus, a
:class:`HyperbolicNumber`, has only ``as_bicomplex`` and ``max``.  The
cartesian form ``a + b*j`` exists only at the conversion boundary
(:func:`bc_from_cartesian` / :meth:`BicomplexNumber.to_cartesian`).

Components may be Python complex scalars or numpy complex arrays; all
operations broadcast componentwise either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ZeroDivisorError, ZeroError

#: Absolute tolerance below which a component counts as zero when classifying
#: zero divisors and refusing inverses.  Quadrature outputs are inexact, so
#: exact comparison with 0 would misclassify.
ZERO_TOL = 1e-12

ComplexLike = Union[complex, float, np.ndarray]


@dataclass(frozen=True)
class BicomplexNumber:
    """Idempotent representation ``z1*E + z2*E'`` of a bicomplex number."""

    z1: ComplexLike
    z2: ComplexLike

    def __add__(self, other: "BicomplexNumber") -> "BicomplexNumber":
        other = _coerce(other)
        return BicomplexNumber(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: "BicomplexNumber") -> "BicomplexNumber":
        other = _coerce(other)
        return BicomplexNumber(self.z1 - other.z1, self.z2 - other.z2)

    def __mul__(self, other: "BicomplexNumber") -> "BicomplexNumber":
        other = _coerce(other)
        return BicomplexNumber(self.z1 * other.z1, self.z2 * other.z2)

    __rmul__ = __mul__

    def star(self) -> "BicomplexNumber":
        """Componentwise complex conjugation ``Z*``."""
        return BicomplexNumber(np.conjugate(self.z1), np.conjugate(self.z2))

    def mod_k(self) -> "HyperbolicNumber":
        """Hyperbolic modulus ``|Z|_k = |z1|*E + |z2|*E'``."""
        return HyperbolicNumber(abs(self.z1), abs(self.z2))

    def invert(self) -> "BicomplexNumber":
        """Componentwise reciprocal; defined only away from the zero cone."""
        small1, small2 = abs(self.z1) <= ZERO_TOL, abs(self.z2) <= ZERO_TOL
        if small1 and small2:
            raise ZeroError("cannot invert bicomplex zero")
        if small1 or small2:
            raise ZeroDivisorError(
                f"zero divisor is not invertible: ({self.z1}, {self.z2})"
            )
        return BicomplexNumber(1.0 / self.z1, 1.0 / self.z2)

    def to_cartesian(self) -> tuple:
        """Return ``(a, b)`` with ``Z = a + b*j``."""
        a = (self.z1 + self.z2) / 2.0
        b = 0.5j * (self.z1 - self.z2)
        return a, b


@dataclass(frozen=True)
class HyperbolicNumber:
    """Hyperbolic number ``l1*E + l2*E'`` with real components."""

    l1: float
    l2: float

    def as_bicomplex(self) -> BicomplexNumber:
        return BicomplexNumber(complex(self.l1), complex(self.l2))

    def max(self) -> float:
        """Largest component, handy as a scalar residual size."""
        return float(np.maximum(self.l1, self.l2))


#: Multiplicative unit and the two idempotents.
ONE = BicomplexNumber(1.0 + 0.0j, 1.0 + 0.0j)
E = BicomplexNumber(1.0 + 0.0j, 0.0j)
E_DAG = BicomplexNumber(0.0j, 1.0 + 0.0j)


def _coerce(value) -> BicomplexNumber:
    if isinstance(value, BicomplexNumber):
        return value
    if isinstance(value, (int, float, complex)):
        return BicomplexNumber(complex(value), complex(value))
    raise TypeError(f"cannot interpret {value!r} as a bicomplex number")


def bc_from_cartesian(a: complex, b: complex) -> BicomplexNumber:
    """Convert ``a + b*j`` to idempotent components ``(a - i*b, a + i*b)``."""
    return BicomplexNumber(a - 1j * b, a + 1j * b)
