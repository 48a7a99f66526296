import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcfrac import (
    BicomplexNumber,
    HyperbolicNumber,
    ZeroDivisorError,
    ZeroError,
    bc_from_cartesian,
)
from bcfrac.hypercomplex import E, E_DAG, ONE, ZERO_TOL

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def close(x: BicomplexNumber, y: BicomplexNumber, tol=1e-12):
    return abs(x.z1 - y.z1) <= tol and abs(x.z2 - y.z2) <= tol


class TestConversion:
    def test_real_unit(self):
        assert bc_from_cartesian(1, 0) == BicomplexNumber(1 + 0j, 1 + 0j)

    def test_j_unit(self):
        # j = -i*E + i*E'; checked by squaring to -1 componentwise
        j = bc_from_cartesian(0, 1)
        assert j == BicomplexNumber(-1j, 1j)
        assert j * j == BicomplexNumber(-1 + 0j, -1 + 0j)

    def test_generic_point(self):
        got = bc_from_cartesian(2 + 1j, 3 - 1j)
        assert close(got, BicomplexNumber(1 - 2j, 3 + 4j), tol=0)

    def test_round_trip(self):
        a, b = 0.3 - 0.7j, -1.2 + 0.25j
        back = bc_from_cartesian(a, b).to_cartesian()
        assert abs(back[0] - a) < 1e-15 and abs(back[1] - b) < 1e-15


class TestMultiplication:
    def test_idempotents_annihilate(self):
        assert E * E_DAG == BicomplexNumber(0j, 0j)

    def test_idempotents_square(self):
        assert E * E == E
        assert E_DAG * E_DAG == E_DAG

    def test_basis_sums(self):
        assert E + E_DAG == ONE
        k = E - E_DAG
        assert k * k == ONE  # the hyperbolic unit squares to one

    def test_componentwise(self):
        got = BicomplexNumber(2, 3) * BicomplexNumber(5, 7)
        assert got == BicomplexNumber(10, 21)


class TestConjugationAndModulus:
    def test_star(self):
        assert BicomplexNumber(1j, -1j).star() == BicomplexNumber(-1j, 1j)
        assert BicomplexNumber(3, 4).star() == BicomplexNumber(3, 4)

    def test_z_zstar_is_squared_modulus(self):
        z = BicomplexNumber(1 + 1j, 2 + 0j)
        prod = z * z.star()
        assert close(prod, BicomplexNumber(2 + 0j, 4 + 0j), tol=0)

    def test_mod_k(self):
        assert BicomplexNumber(3, 4).mod_k() == HyperbolicNumber(3, 4)
        assert BicomplexNumber(3 + 4j, 0).mod_k() == HyperbolicNumber(5, 0)

    @given(finite_complex, finite_complex)
    @settings(max_examples=60, deadline=None)
    def test_modulus_squared_identity(self, z1, z2):
        z = BicomplexNumber(z1, z2)
        lhs = z * z.star()
        m = z.mod_k()
        assert abs(lhs.z1 - m.l1**2) <= 1e-9 * (1 + m.l1**2)
        assert abs(lhs.z2 - m.l2**2) <= 1e-9 * (1 + m.l2**2)


class TestInversion:
    def test_componentwise_reciprocal(self):
        assert BicomplexNumber(2, 4).invert() == BicomplexNumber(0.5, 0.25)
        got = BicomplexNumber(1j, -1j).invert()
        assert close(got, BicomplexNumber(-1j, 1j), tol=0)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisorError):
            BicomplexNumber(1, 0).invert()

    def test_zero_rejected(self):
        with pytest.raises(ZeroError):
            BicomplexNumber(0j, 0j).invert()

    def test_components_at_most_zero_tol_count_as_zero(self):
        assert BicomplexNumber(1.0, 1e-9).invert() == BicomplexNumber(1.0, 1.0 / 1e-9)
        for small in (ZERO_TOL, -ZERO_TOL, 1e-13j):
            nearly = BicomplexNumber(1.0, small)
            with pytest.raises(ZeroDivisorError):
                nearly.invert()


small_int_complex = st.builds(
    complex, st.integers(-1000, 1000), st.integers(-1000, 1000)
)


class TestRingAxioms:
    """The idempotent components multiply independently, so each component
    of a product carries the rounding of the complex products actually
    formed; the tolerances scale with their magnitudes, because a sum such
    as ``x*(y+z)`` may cancel far below its terms."""

    @given(*[finite_complex] * 6)
    @example(1.0, 9.19, 0.0, 989755j, 0.0, -989868j)  # x*(y+z) ~ 1e3, x*y ~ 9e6
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, a1, a2, b1, b2, c1, c2):
        x, y, z = BicomplexNumber(a1, a2), BicomplexNumber(b1, b2), BicomplexNumber(c1, c2)
        lhs = (x * y) * z
        rhs = x * (y * z)
        d_lhs = x * (y + z)
        d_rhs = x * y + x * z
        for part in ("z1", "z2"):
            xv, yv, zv = getattr(x, part), getattr(y, part), getattr(z, part)
            scale = abs(xv) * abs(yv) * abs(zv)
            assert abs(getattr(lhs, part) - getattr(rhs, part)) <= 1e-14 * (1 + scale)
            scale = abs(xv) * (abs(yv) + abs(zv))
            assert abs(getattr(d_lhs, part) - getattr(d_rhs, part)) <= 1e-14 * (1 + scale)

    @given(*[small_int_complex] * 6)
    @settings(max_examples=60, deadline=None)
    def test_integer_values_hold_exactly(self, a1, a2, b1, b2, c1, c2):
        # every intermediate is an integer below 2**53, so nothing rounds
        x, y, z = BicomplexNumber(a1, a2), BicomplexNumber(b1, b2), BicomplexNumber(c1, c2)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

