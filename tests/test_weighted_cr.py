import tracemalloc

import numpy as np
import pytest

from bcfrac import (
    BicomplexNumber,
    CauchyKernel,
    PlaneFunction,
    ProductFunction,
    UnsupportedWeightsError,
    WeightPair,
    apply_cr_weighted,
    boundary_measure,
    weight_divergence,
)
from bcfrac import weighted_cr
from bcfrac.quadrature_verify import _boundary_nodes

Z0 = BicomplexNumber(0.3 + 0.4j, 1 + 2j)


def cr_at(wp, F, Z):
    """The weighted CR operator of ``F`` in both component planes at ``Z``."""
    out = []
    for l, z in ((1, Z.z1), (2, Z.z2)):
        fl = F.component(l)
        out.append(apply_cr_weighted(wp, l, z.real, z.imag, fl.dx(z.real, z.imag),
                                     fl.dy(z.real, z.imag)))
    return out


def divergence_at(wp, Z):
    return [weight_divergence(wp, l, z.real, z.imag) for l, z in ((1, Z.z1), (2, Z.z2))]


def measure_at(wp, Z, step):
    """The weighted contour element for the tangent step ``(dx, dy)`` in both
    component planes at ``Z``."""
    dx, dy = step
    return [boundary_measure(wp, l, z, dx, dy) for l, z in ((1, Z.z1), (2, Z.z2))]


class TestApplyCr:
    def test_annihilates_holomorphic(self):
        wp = WeightPair.classical()
        F = ProductFunction.from_holomorphic(lambda z: z, lambda z: np.ones_like(z))
        out = cr_at(wp, F, Z0)
        assert abs(out[0]) == 0 and abs(out[1]) == 0

    def test_annihilates_random_polynomials(self):
        wp = WeightPair.classical()
        rng = np.random.default_rng(11)
        for _ in range(4):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            F = ProductFunction.from_holomorphic(
                lambda z, c=coeffs: c[0] + c[1] * z + c[2] * z**2 + c[3] * z**3,
                lambda z, c=coeffs: c[1] + 2 * c[2] * z + 3 * c[3] * z**2,
            )
            out = cr_at(wp, F, Z0)
            assert max(abs(out[0]), abs(out[1])) <= 1e-12

    def test_conjugate_gives_two(self):
        wp = WeightPair.classical()
        F = ProductFunction.from_antiholomorphic(lambda z: z, lambda z: np.ones_like(z))
        out = cr_at(wp, F, Z0)
        assert abs(out[0] - 2) < 1e-14 and abs(out[1] - 2) < 1e-14

    def test_constant_weights_on_x_squared(self):
        wp = WeightPair.constant(1 + 1j, 1 - 1j)
        pf = PlaneFunction(
            f=lambda x, y: x**2 + 0j, dx=lambda x, y: 2.0 * x + 0j, dy=lambda x, y: 0j * x
        )
        out = cr_at(wp, ProductFunction(pf, pf), Z0)
        assert abs(out[0] - 2 * 0.3 * (1 + 1j)) < 1e-14
        assert abs(out[1] - 2 * 1.0 * (1 + 1j)) < 1e-14


class TestDivergence:
    def test_constant_weights_vanish(self):
        d1, d2 = divergence_at(WeightPair.constant(2 - 1j, 1 + 2j), Z0)
        assert abs(d1.real) == abs(d2.real) == abs(d1.imag) == abs(d2.imag) == 0

    def test_linear_real_part(self):
        theta_x = PlaneFunction(
            f=lambda x, y: x + 0j, dx=lambda x, y: np.ones_like(x) + 0j, dy=lambda x, y: 0j * x
        )
        wp = WeightPair(theta_x, PlaneFunction.constant(1),
                        PlaneFunction.constant(1j), PlaneFunction.constant(1j))
        d1, d2 = divergence_at(wp, Z0)
        assert d1.real == 1 and d2.real == 0 and d1.imag == 0 and d2.imag == 0

    def test_linear_imaginary_part_feeds_b(self):
        # B, the imaginary part of the divergence
        theta_ix = PlaneFunction(
            f=lambda x, y: 1j * x, dx=lambda x, y: 1j * np.ones_like(x), dy=lambda x, y: 0j * x
        )
        wp = WeightPair(theta_ix, PlaneFunction.constant(1),
                        PlaneFunction.constant(1j), PlaneFunction.constant(1j))
        d1, d2 = divergence_at(wp, Z0)
        assert d1.imag == 1 and d2.imag == 0 and d1.real == 0


class TestBoundaryMeasure:
    def test_classical_horizontal_step(self):
        out = measure_at(WeightPair.classical(), Z0, (0.1, 0.0))
        assert abs(out[0] + 0.1j) < 1e-15 and abs(out[1] + 0.1j) < 1e-15

    def test_classical_recovers_contour_element(self):
        dx, dy = 0.02, -0.03
        out = measure_at(WeightPair.classical(), Z0, (dx, dy))
        assert abs(out[0] - (-1j) * (dx + 1j * dy)) < 1e-15

    def test_scaled_weights_linear_in_tangent(self):
        wp = WeightPair.constant(2, 2j)
        out = measure_at(wp, Z0, (0.1, 0.2))
        assert abs(out[0] - 2 * (0.2 - 0.1j)) < 1e-15
        out2 = measure_at(wp, Z0, (0.2, 0.4))
        assert abs(out2[0] - 2 * out[0]) < 1e-15


def test_points_array_matches_per_point_calls():
    # every residual calls the helpers on arrays of quadrature nodes; each
    # entry must equal the helper at that point alone, bit for bit
    g = PlaneFunction(f=lambda x, y: 1.0 + x**2 + 0.5 * y**2 + 0j,
                      dx=lambda x, y: 2.0 * x + 0j, dy=lambda x, y: 1.0 * y + 0j)
    theta = PlaneFunction(f=lambda x, y: (1 + 0.5j) * x + y,
                          dx=lambda x, y: (1 + 0.5j) * np.ones_like(x),
                          dy=lambda x, y: np.ones_like(y) + 0j)
    wp = WeightPair(theta, theta, 1j * g, 1j * g)
    rng = np.random.default_rng(3)
    x, y, a, b = rng.normal(size=(4, 7))
    wx, wy = rng.normal(size=(2, 7))
    z = x + 1j * y
    for l in (1, 2):
        batched = (apply_cr_weighted(wp, l, x, y, a, b), weight_divergence(wp, l, x, y),
                   boundary_measure(wp, l, z, wx, wy))
        for i in range(x.size):
            single = (apply_cr_weighted(wp, l, x[i], y[i], a[i], b[i]),
                      weight_divergence(wp, l, x[i], y[i]),
                      boundary_measure(wp, l, z[i], wx[i], wy[i]))
            for got, want in zip(batched, single):
                assert got[i] == want


class TestCauchyKernel:
    def test_classical_values(self):
        kernel = CauchyKernel(WeightPair.classical())
        for l, z in ((1, Z0.z1), (2, Z0.z2)):
            for offset in (1, 1j, 2):
                got = kernel.component(l)(z + offset, z)
                assert abs(got - 1 / (2j * np.pi * offset)) < 1e-15

    def test_nonconstant_weights_rejected(self):
        g = PlaneFunction(f=lambda x, y: 1.0 + x**2, dx=lambda x, y: 2.0 * x,
                          dy=lambda x, y: 0.0 * x)
        with pytest.raises(UnsupportedWeightsError):
            CauchyKernel(WeightPair.scaled_classical(g))

    def test_orientation_reversing_rejected(self):
        with pytest.raises(UnsupportedWeightsError):
            CauchyKernel(WeightPair.constant(1 + 1j, 1 - 1j))

    def test_normalization_is_minus_i(self):
        # the kernel's contour integral around its pole against the weighted
        # measure theta dy - phi_w dx, by the trapezoid rule on the unit circle
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        v = np.exp(1j * theta)
        for wp in (WeightPair.classical(), WeightPair.constant(1, 2j),
                   WeightPair.constant(2 + 1j, 1j * (2 + 1j))):
            kernel = CauchyKernel(wp)
            for l, (th, ph) in ((1, kernel.pairs[0]), (2, kernel.pairs[1])):
                measure = (th * np.cos(theta) + ph * np.sin(theta)) * (2.0 * np.pi / theta.size)
                c = np.sum(kernel.component(l)(v, 0j) * measure)
                assert abs(c + 1j) < 1e-10

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

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    def test_coincidence_is_decided_in_straightened_coordinates(self, pair, monkeypatch):
        # targets 1e-14 and 1e-12 from a source after the map s: the first is
        # inside the 1e-13 coincidence radius and adds zero, the second is
        # outside and adds its full term; with two targets per block, both
        # sit in the second block, so the search must place them there
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        sources, _, _ = _kernel_case(1)
        a, b = kernel._maps[0]
        det = abs(a) ** 2 - abs(b) ** 2

        def near(v, delta):
            """The point whose image lies ``delta`` from the image of ``v``."""
            return v + (np.conjugate(a) * delta - b * np.conjugate(delta)) / det

        targets = np.array([sources[100], sources[7], near(sources[7], 1e-14 * np.exp(0.7j)),
                            near(sources[7], 1e-12 * np.exp(2.1j))])
        gaps = np.abs(kernel.smap(1, targets[2:]) - kernel.smap(1, sources[7]))
        assert gaps[0] < 1e-13 < gaps[1]
        charges = np.zeros(sources.size, dtype=complex)
        charges[7] = 1.0 + 2.0j
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", 2 * sources.size)
        got = kernel.sums(1, sources, charges, targets)
        assert got[1] == 0.0 and got[2] == 0.0
        # the dense term on the same straightened points: a difference of
        # 1e-12 keeps only about four digits of separately mapped points
        s_src, s_tgt = kernel.smap(1, sources), kernel.smap(1, targets)
        want = (-1j / np.pi) / (s_src[7] - s_tgt[3]) * charges[7]
        assert abs(got[3] - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_block_size_changes_a_result_only_at_rounding(self, monkeypatch, rows):
        # one BLAS product per block: OpenBLAS picks its kernel, and with it
        # the summation order, by the block's shape, so blocks agree to
        # rounding rather than bit for bit; a fixed block size repeats exactly
        kernel = CauchyKernel(KERNEL_PAIRS["constant-pair"])
        sources, charges, targets = _kernel_case(2)
        want = _dense_sums(kernel, 2, sources, charges, targets)
        scale = np.abs(kernel.component(2)(sources[None, :], targets[:, None])) @ np.abs(charges)
        budget = (targets.size if rows is None else rows) * sources.size
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", budget)
        got = kernel.sums(2, sources, charges, targets)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert np.array_equal(got, kernel.sums(2, sources, charges, targets))

    @pytest.mark.parametrize("method", ["sums", "boundary_sums"])
    def test_blocks_bound_the_memory_and_each_leaves_out_its_own_pairs(self, monkeypatch, method):
        # two target rows per block: a call's peak stays within a few blocks,
        # not targets x sources, and the targets on a source, in the second
        # and in the last block, leave out its term (``boundary_sums`` its
        # panel's 4-point term) in their own block
        kernel = CauchyKernel(KERNEL_PAIRS["constant-pair"])
        sources, _, _ = _boundary_nodes((0.0, 1.0, 0.0, 1.0), 64)  # 1024 sources
        rng = np.random.default_rng(7)
        targets = 0.3 + 0.4 * (rng.random(128) + 1j * rng.random(128))
        targets[[2, 127]] = sources[[100, 900]]
        charges = np.zeros(sources.size, dtype=complex)
        charges[[100, 900]] = 1.0 + 2.0j
        call = getattr(kernel, method)
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", targets.size * sources.size)
        one_block = call(1, sources, charges, targets)
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", 2 * sources.size)
        call(1, sources, charges, targets)  # first-call allocations
        tracemalloc.start()
        try:
            got = call(1, sources, charges, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (2 * sources.size * 16)  # bytes; targets x sources is 64 blocks
        assert np.max(np.abs(got - one_block)) <= 1e-13 * np.max(np.abs(one_block))
        if method == "sums":
            far = np.delete(np.arange(targets.size), [2, 127])
            want = np.empty_like(got)
            want[far] = _dense_sums(kernel, 1, sources, charges, targets[far])
            want[[2, 127]] = (_dense_sums(kernel, 1, sources[[900]], charges[[900]], targets[[2]])[0],
                              _dense_sums(kernel, 1, sources[[100]], charges[[100]], targets[[127]])[0])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    def test_component_is_the_straightened_cauchy_kernel(self, pair):
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        v = np.array([0.2 + 0.9j, 1.5 - 0.3j])
        z = np.array([0.7 + 0.1j, -0.4 + 0.6j])
        for l in (1, 2):
            want = (-1j / np.pi) / (kernel.smap(l, v) - kernel.smap(l, z))
            assert np.array_equal(kernel.component(l)(v, z), want)


def _cauchy_formula_error(pair: str, k: int) -> float:
    """Max error of the close-evaluated boundary sums against Cauchy's
    formula on the unit square with ``k`` panels per edge.  The density
    ``exp(w/2) + w^2``, ``w = s(v)/a`` for the straightening map ``s(v) = a*v
    + b*conj(v)``, is holomorphic in straightened coordinates, so its kernel
    sum against the weighted measure is ``-i`` times its value at the
    target.  Targets sit 1e-12 ... 1e-2 from the left edge, from the bottom
    edge, and 1e-6 above the bottom edge next to the lower left corner."""
    kernel = CauchyKernel(KERNEL_PAIRS[pair])
    a = kernel._maps[0][0]

    def density(v):
        w = kernel.smap(1, v) / a
        return np.exp(w / 2) + w**2

    z, wx, wy = _boundary_nodes((0.0, 1.0, 0.0, 1.0), k)
    charges = density(z) * boundary_measure(kernel.wp, 1, z, wx, wy)
    d = np.array([1e-12, 1e-8, 1e-4, 1e-2])
    targets = np.concatenate([d + 0.55j, 0.37 + 1j * d, d + 1e-6j])
    return np.max(np.abs(1j * kernel.boundary_sums(1, z, charges, targets) - density(targets)))


class TestCloseEvaluation:
    #: Max error at ``weighted_cr._CLOSE_RADIUS`` = 8 (measured 2.2e-8, 1.2e-9,
    #: 7.2e-11, 1.7e-11), by panels per edge; the plain sums are off by 2.7 to 7.3.
    BOUND = {8: 3e-8, 16: 2e-9, 32: 1e-10, 64: 3e-11}

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    @pytest.mark.parametrize("k", sorted(BOUND))
    def test_matches_cauchys_formula_near_the_contour(self, pair, k):
        assert _cauchy_formula_error(pair, k) <= self.BOUND[k]

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    def test_far_targets_get_the_plain_sums_bit_for_bit(self, pair):
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        z, wx, wy = _boundary_nodes((0.0, 1.0, 0.0, 1.0), 32)
        charges = np.exp(z) * boundary_measure(kernel.wp, 1, z, wx, wy)
        targets = np.array([0.5 + 0.5j, 1e-3 + 0.55j, 0.45 + 0.55j, 0.37 + 1e-8j])
        got = kernel.boundary_sums(1, z, charges, targets)
        plain = kernel.sums(1, z, charges, targets)
        assert np.array_equal(got[[0, 2]], plain[[0, 2]])
        assert np.all(got[[1, 3]] != plain[[1, 3]])


def _close_reference(kernel, k, s_tgt):
    """Brute force: ``zeta`` of every target against every panel of
    ``_boundary_nodes((0, 1, 0, 1), k)``, from the panels' end points mapped
    to straightened coordinates, and the pairs with ``|zeta| <
    _CLOSE_RADIUS``, ordered by target, then panel."""
    ends = np.linspace(0.0, 1.0, k + 1)
    back = ends[::-1]
    start = np.concatenate([ends[:-1] + 0j, 1 + 1j * ends[:-1], back[:-1] + 1j, 1j * back[:-1]])
    stop = np.concatenate([ends[1:] + 0j, 1 + 1j * ends[1:], back[1:] + 1j, 1j * back[1:]])
    s0, s1 = kernel.smap(1, start), kernel.smap(1, stop)
    half = 0.5 * (s1 - s0)
    zeta = (s_tgt[:, None] - 0.5 * (s0 + s1)) / half
    dist = np.abs(zeta)
    assert not np.any(np.abs(dist - weighted_cr._CLOSE_RADIUS) < 1e-9)  # no tie at rounding
    hit_t, hit_p = np.nonzero(dist < weighted_cr._CLOSE_RADIUS)
    return hit_t, hit_p, zeta[hit_t, hit_p], half[hit_p]


class TestClosePanels:
    K = 8  # panels per edge

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_every_close_pair_in_target_order(self, pair, rows, monkeypatch):
        # targets inside, outside and on the contour, a contour node and a
        # corner among them, in blocks of ``rows`` targets
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        z, _, _ = _boundary_nodes((0.0, 1.0, 0.0, 1.0), self.K)
        rng = np.random.default_rng(11)
        targets = -0.5 + 2.0 * (rng.random(13) + 1j * rng.random(13))
        targets[[4, 9]] = z[37], 0j
        s_src, s_tgt = kernel.smap(1, z), kernel.smap(1, targets)
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", rows * z.size)
        got = weighted_cr._close_panels(s_src, s_tgt)
        want = _close_reference(kernel, self.K, s_tgt)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.allclose(got[2], want[2], rtol=0, atol=1e-12)
        assert np.allclose(got[3], want[3], rtol=1e-14, atol=0)
        assert set(want[0]) >= {4, 9} and len(set(want[0])) < targets.size
        node_hits = want[2][want[0] == 4]
        assert np.min(np.abs(node_hits.imag)) < 1e-12  # the node's own panel, on its axis
        corner_hits = want[2][want[0] == 9]
        assert np.sum(np.isclose(np.abs(corner_hits), 1.0, rtol=0, atol=1e-12)) == 2

    @pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_the_prefilter_keeps_the_all_pairs_test(self, pair, rows, monkeypatch):
        # the all-pairs form divides every (target, panel) difference by the
        # panel's half-length and tests |zeta| < R: the prefilter must keep
        # its hits, their order and the bits of their zeta, also for targets
        # within 1e-12 of the radius, and a few ulp of it, on either side
        kernel = CauchyKernel(KERNEL_PAIRS[pair])
        z, _, _ = _boundary_nodes((0.0, 1.0, 0.0, 1.0), self.K)
        s_src = kernel.smap(1, z)
        mid = 0.5 * (s_src[0::4] + s_src[3::4])
        half = (s_src[3::4] - s_src[0::4]) / (weighted_cr._GL4_NODES[3] - weighted_cr._GL4_NODES[0])
        rng = np.random.default_rng(17)
        panels = rng.integers(mid.size, size=60)
        shift = np.concatenate([rng.uniform(-1e-12, 1e-12, 40), rng.uniform(-4e-16, 4e-16, 20)])
        edge = mid[panels] + half[panels] * (weighted_cr._CLOSE_RADIUS * (1.0 + shift)
                                             * np.exp(2j * np.pi * rng.random(60)))
        spread = kernel.smap(1, -0.5 + 2.0 * (rng.random(40) + 1j * rng.random(40)))
        order = rng.permutation(100)
        targets = np.concatenate([edge, spread])[order]
        zeta = (targets[:, None] - mid) / half
        want_t, want_p = np.nonzero(zeta.real * zeta.real + zeta.imag * zeta.imag
                                    < weighted_cr._CLOSE_RADIUS**2)
        monkeypatch.setattr(weighted_cr, "_KERNEL_BLOCK_ELEMENTS", rows * z.size)
        got = weighted_cr._close_panels(s_src, targets)
        assert np.array_equal(got[0], want_t) and np.array_equal(got[1], want_p)
        assert np.array_equal(got[2].view(np.uint64), zeta[want_t, want_p].view(np.uint64))
        assert np.array_equal(got[3].view(np.uint64), half[want_p].view(np.uint64))
        # the targets on the radius fall on both sides of it
        own = zeta[np.argsort(order)[:60], panels]
        assert 0 < np.sum(own.real * own.real + own.imag * own.imag < weighted_cr._CLOSE_RADIUS**2) < 60

    def test_no_targets(self):
        kernel = CauchyKernel(KERNEL_PAIRS["constant-pair"])
        z, _, _ = _boundary_nodes((0.0, 1.0, 0.0, 1.0), self.K)
        got = weighted_cr._close_panels(kernel.smap(1, z), np.empty(0, dtype=complex))
        assert [(a.shape, a.dtype.kind) for a in got] == [((0,), "i")] * 2 + [((0,), "c")] * 2


def test_panel_rule_nodes_are_the_close_evaluation_nodes():
    # close evaluation assumes the contour's panels carry the nodes of
    # ``_GL4_NODES``: those of the 4-point rule ``_boundary_nodes`` lays out
    from bcfrac.quadrature_verify import _gl_reference

    np.testing.assert_array_max_ulp(2.0 * _gl_reference(4)[0] - 1.0, weighted_cr._GL4_NODES,
                                    maxulp=2)
