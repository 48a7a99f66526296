import numpy as np
import pytest

from bcfrac import (
    BicomplexNumber,
    CauchyKernel,
    EmptyProbesError,
    PlaneFunction,
    ProductFunction,
    UnsupportedWeightsError,
    WeightPair,
    apply_cr_weighted,
    boundary_measure,
    cauchy_kernel,
    check_orthogonality,
    inner_c,
    weight_divergence,
)
from bcfrac.errors import NotInvertibleError

PROBES = [0.3 + 0.4j, 1 + 2j, -1 - 0.5j, 0.01 - 3j]
Z0 = BicomplexNumber(0.3 + 0.4j, 1 + 2j)


def test_inner_c_examples():
    assert inner_c(1, 1j) == 0
    assert inner_c(3 + 4j, 3 + 4j) == 25
    assert inner_c(1 + 1j, 1 - 1j) == 0


def test_inner_c_real_and_symmetric():
    rng = np.random.default_rng(0)
    z, w = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.isrealobj(inner_c(z, w))
    assert inner_c(z, w) == inner_c(w, z)


class TestOrthogonality:
    def test_classical(self):
        rep = check_orthogonality(WeightPair.classical(), PROBES)
        assert rep.max_inner == 0 and rep.criteria_gap == 0

    def test_constant_orthogonal_pair(self):
        rep = check_orthogonality(WeightPair.constant(1 + 1j, 1 - 1j), PROBES)
        assert rep.max_inner == 0

    def test_failing_pair_is_flagged(self):
        rep = check_orthogonality(WeightPair.constant(1, 1), PROBES)
        assert rep.max_inner == pytest.approx(1.0)
        assert not rep.passed()

    def test_two_criteria_agree_on_random_orthogonal_pairs(self):
        # construction: second weight = i * (real scale) * first weight
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = complex(*rng.normal(size=2))
            g = PlaneFunction(
                f=lambda x, y: 1.0 + x**2 + 0.5 * y**2,
                dx=lambda x, y: 2.0 * x,
                dy=lambda x, y: 1.0 * y,
            )
            th = PlaneFunction.constant(c)
            wp = WeightPair.orthogonal_from(th, th, g, g)
            rep = check_orthogonality(wp, PROBES)
            assert rep.max_inner <= 1e-12
            assert rep.criteria_gap <= 1e-12

    def test_empty_probes(self):
        with pytest.raises(EmptyProbesError):
            check_orthogonality(WeightPair.classical(), [])


class TestApplyCr:
    def test_annihilates_holomorphic(self):
        wp = WeightPair.classical()
        F = ProductFunction.from_holomorphic(lambda z: z, lambda z: np.ones_like(z))
        out = apply_cr_weighted(wp, F, Z0)
        assert abs(out.z1) == 0 and abs(out.z2) == 0

    def test_annihilates_random_polynomials(self):
        wp = WeightPair.classical()
        rng = np.random.default_rng(11)
        for _ in range(4):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            F = ProductFunction.from_holomorphic(
                lambda z, c=coeffs: c[0] + c[1] * z + c[2] * z**2 + c[3] * z**3,
                lambda z, c=coeffs: c[1] + 2 * c[2] * z + 3 * c[3] * z**2,
            )
            out = apply_cr_weighted(wp, F, Z0)
            assert max(abs(out.z1), abs(out.z2)) <= 1e-12

    def test_conjugate_gives_two(self):
        wp = WeightPair.classical()
        F = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
        out = apply_cr_weighted(wp, F, Z0)
        assert abs(out.z1 - 2) < 1e-14 and abs(out.z2 - 2) < 1e-14

    def test_constant_weights_on_x_squared(self):
        wp = WeightPair.constant(1 + 1j, 1 - 1j)
        pf = PlaneFunction(
            f=lambda x, y: x**2 + 0j, dx=lambda x, y: 2.0 * x + 0j, dy=lambda x, y: 0j * x
        )
        out = apply_cr_weighted(wp, ProductFunction(pf, pf), Z0)
        assert abs(out.z1 - 2 * 0.3 * (1 + 1j)) < 1e-14
        assert abs(out.z2 - 2 * 1.0 * (1 + 1j)) < 1e-14


class TestDivergence:
    def test_constant_weights_vanish(self):
        A, B = weight_divergence(WeightPair.constant(2 - 1j, 1 + 2j), Z0)
        assert abs(A.z1) == abs(A.z2) == abs(B.z1) == abs(B.z2) == 0

    def test_linear_real_part(self):
        theta_x = PlaneFunction(
            f=lambda x, y: x + 0j, dx=lambda x, y: np.ones_like(x) + 0j, dy=lambda x, y: 0j * x
        )
        wp = WeightPair(theta_x, PlaneFunction.constant(1),
                        PlaneFunction.constant(1j), PlaneFunction.constant(1j))
        A, B = weight_divergence(wp, Z0)
        assert A.z1 == 1 and A.z2 == 0 and B.z1 == 0 and B.z2 == 0

    def test_linear_imaginary_part_feeds_b(self):
        theta_ix = PlaneFunction(
            f=lambda x, y: 1j * x, dx=lambda x, y: 1j * np.ones_like(x), dy=lambda x, y: 0j * x
        )
        wp = WeightPair(theta_ix, PlaneFunction.constant(1),
                        PlaneFunction.constant(1j), PlaneFunction.constant(1j))
        A, B = weight_divergence(wp, Z0)
        assert B.z1 == 1 and B.z2 == 0 and A.z1 == 0


class TestBoundaryMeasure:
    def test_classical_horizontal_step(self):
        out = boundary_measure(WeightPair.classical(), Z0, (0.1, 0.0), (0.1, 0.0))
        assert abs(out.z1 + 0.1j) < 1e-15 and abs(out.z2 + 0.1j) < 1e-15

    def test_classical_recovers_contour_element(self):
        dx, dy = 0.02, -0.03
        out = boundary_measure(WeightPair.classical(), Z0, (dx, dy), (dx, dy))
        assert abs(out.z1 - (-1j) * (dx + 1j * dy)) < 1e-15

    def test_scaled_weights_linear_in_tangent(self):
        wp = WeightPair.constant(2, 2j)
        out = boundary_measure(wp, Z0, (0.1, 0.2), (0.1, 0.2))
        assert abs(out.z1 - 2 * (0.2 - 0.1j)) < 1e-15
        out2 = boundary_measure(wp, Z0, (0.2, 0.4), (0.2, 0.4))
        assert abs(out2.z1 - 2 * out.z1) < 1e-15


class TestCauchyKernel:
    def test_classical_values(self):
        wp = WeightPair.classical()
        got = cauchy_kernel(wp, BicomplexNumber(1, 1) + Z0, Z0)
        assert abs(got.z1 - 1 / (2j * np.pi)) < 1e-15
        got = cauchy_kernel(wp, BicomplexNumber(1j, 2) + Z0, Z0)
        assert abs(got.z1 - 1 / (2j * np.pi) / 1j) < 1e-15
        assert abs(got.z2 - 1 / (2j * np.pi) / 2) < 1e-15

    def test_zero_divisor_offset_rejected(self):
        with pytest.raises(NotInvertibleError):
            cauchy_kernel(WeightPair.classical(), BicomplexNumber(1, 0) + Z0, Z0)

    def test_nonconstant_weights_rejected(self):
        g = PlaneFunction(f=lambda x, y: 1.0 + x**2, dx=lambda x, y: 2.0 * x,
                          dy=lambda x, y: 0.0 * x)
        with pytest.raises(UnsupportedWeightsError):
            CauchyKernel(WeightPair.scaled_classical(g))

    def test_orientation_reversing_rejected(self):
        with pytest.raises(UnsupportedWeightsError):
            CauchyKernel(WeightPair.constant(1 + 1j, 1 - 1j))

    def test_normalization_is_minus_i(self):
        for wp in (WeightPair.classical(), WeightPair.constant(1, 2j),
                   WeightPair.constant(2 + 1j, 1j * (2 + 1j))):
            c = CauchyKernel(wp).normalization()
            assert abs(c.z1 + 1j) < 1e-10 and abs(c.z2 + 1j) < 1e-10

    def test_straightening_map_identity(self):
        # the substitution turns the weighted operator into a multiple of
        # the anti-holomorphic derivative with factor equal to its Jacobian
        th, ph = 1.0 + 0j, 2j
        a, b = th - 1j * ph, -(th + 1j * ph)
        jac = abs(a) ** 2 - abs(b) ** 2
        kappa = th * (np.conjugate(a) + np.conjugate(b)) \
            - 1j * ph * (np.conjugate(a) - np.conjugate(b))
        assert abs(jac - kappa) < 1e-13


KERNEL_PAIRS = {
    "classical": WeightPair.classical(),
    "constant-pair": WeightPair.constant(1.0933 + 0.2109j, -0.5926 + 1.3771j),
}


def _dense_sums(kernel, l, sources, charges, targets):
    """Reference: the dense complex kernel matrix times the charges."""
    a, b = kernel._maps[l - 1]
    d = sources[None, :] - targets[:, None]
    return ((-1j / np.pi) / (a * d + b * np.conjugate(d))) @ charges


def _kernel_case(columns):
    rng = np.random.default_rng(5)
    g = (np.arange(16) + 0.5) / 16
    sources = (g[:, None] + 1j * g[None, :]).ravel()
    targets = np.array([0.3 + 0.7j, 0.51 + 0.02j, 0.97 + 0.5j, 0.1 + 0.1j, 0.66 + 0.41j])
    charges = rng.normal(size=(sources.size, columns)) + 1j * rng.normal(size=(sources.size, columns))
    return sources, charges, targets


class TestKernelSums:
    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_dense_complex_formula(self, pair, columns, l):
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        sources, charges, targets = _kernel_case(columns)
        got = kernel.sums(l, sources, charges, targets)
        want = _dense_sums(kernel, l, sources, charges, targets)
        assert got.shape == (targets.size, columns)
        scale = np.abs(kernel.component(l)(sources[None, :], targets[:, None])) @ np.abs(charges)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_one_charge_vector_gives_one_value_per_target(self):
        kernel = CauchyKernel(KERNEL_PAIRS["constant-pair"])
        sources, charges, targets = _kernel_case(1)
        got = kernel.sums(1, sources, charges[:, 0], targets)
        assert got.shape == targets.shape
        assert np.array_equal(got, kernel.sums(1, sources, charges, targets)[:, 0])

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    def test_coincident_source_adds_exactly_zero(self, pair):
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        sources, _, _ = _kernel_case(1)
        targets = sources[[7, 100]]
        charges = np.zeros(sources.size, dtype=complex)
        charges[7] = 1.0 + 2.0j
        got = kernel.sums(1, sources, charges, targets)
        assert got[0] == 0.0
        want = kernel.component(1)(sources[7], targets[1]) * charges[7]
        assert abs(got[1] - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_block_size_changes_a_result_only_at_rounding(self, monkeypatch, rows):
        # one BLAS product per block: OpenBLAS picks its kernel, and with it
        # the summation order, by the block's shape, so blocks agree to
        # rounding rather than bit for bit; a fixed block size repeats exactly
        from bcfrac import fracops1d

        kernel = CauchyKernel(KERNEL_PAIRS["constant-pair"])
        sources, charges, targets = _kernel_case(2)
        want = _dense_sums(kernel, 2, sources, charges, targets)
        scale = np.abs(kernel.component(2)(sources[None, :], targets[:, None])) @ np.abs(charges)
        budget = (targets.size if rows is None else rows) * sources.size
        monkeypatch.setattr(fracops1d, "_CHUNK_ELEMENTS", budget)
        got = kernel.sums(2, sources, charges, targets)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(got, kernel.sums(2, sources, charges, targets))

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    def test_component_is_the_straightened_cauchy_kernel(self, pair):
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        v = np.array([0.2 + 0.9j, 1.5 - 0.3j])
        z = np.array([0.7 + 0.1j, -0.4 + 0.6j])
        for l in (1, 2):
            want = (-1j / np.pi) / (kernel.smap(l, v) - kernel.smap(l, z))
            assert np.array_equal(kernel.component(l)(v, z), want)


def test_plane_function_partial_validation():
    good = PlaneFunction(
        f=lambda x, y: np.sin(x) * np.exp(1j * y),
        dx=lambda x, y: np.cos(x) * np.exp(1j * y),
        dy=lambda x, y: 1j * np.sin(x) * np.exp(1j * y),
    )
    assert good.validate_partials([(0.3, 0.4), (1.0, -0.5)]) < 1e-6
    bad = PlaneFunction(
        f=lambda x, y: np.sin(x), dx=lambda x, y: np.cos(x) + 0.1, dy=lambda x, y: 0.0 * x
    )
    from bcfrac import DomainError
    with pytest.raises(DomainError):
        bad.validate_partials([(0.3, 0.4)])
