"""Bernstein operators, ladder rungs, the plateau cutoff and the approximant ladder."""

import math
from itertools import product as iter_product

import numpy as np
import pytest
import sympy as sp

from kamtori import (
    BSplineProfile,
    CompositeHamiltonian,
    FourierMap,
    HamiltonianModel,
    RoughTerm,
    TorusEmbedding,
)
from kamtori.hamiltonian import Box
from kamtori.smoothing import (
    BernsteinApproximant,
    PlateauBump,
    SeparableFunction,
    SeparableRung,
    bernstein_1d,
    bernstein_derivative,
    bernstein_nd,
    bernstein_tensor,
    build_smoothing_sequence,
    cl_bound,
    cl_gap,
    cl_norm,
    cutoff_extend,
    rung_nd,
    unit_box,
)
from kamtori.smoothing import _vallee_poussin_half

from conftest import rung_derivative


def brute_bernstein(samples, x):
    """Defining sum evaluated term by term with exact binomials."""
    k = len(samples) - 1
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for p, s in enumerate(samples):
        out += math.comb(k, p) * s * x**p * (1 - x) ** (k - p)
    return out


def symbolic_poly(samples):
    """The same Bernstein polynomial with exact rational coefficients."""
    k = len(samples) - 1
    x = sp.Symbol("x")
    expr = sum(
        sp.binomial(k, p) * sp.Rational(float(samples[p])) * x**p * (1 - x) ** (k - p)
        for p in range(k + 1)
    )
    return sp.Poly(expr, x), x


class TestBernstein1d:
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_affine_reproduced_exactly(self, k):
        f = lambda x: 2.0 * x[..., 0] - 0.3
        b = bernstein_1d(f, k)
        x = np.linspace(0, 1, 101)
        assert np.max(np.abs(b(x) - (2.0 * x - 0.3))) < 1e-13

    def test_square_closed_form(self):
        f = lambda x: x[..., 0] ** 2
        b = bernstein_1d(f, 10)
        x = np.linspace(0, 1, 100)
        want = x**2 + x * (1 - x) / 10
        assert np.max(np.abs(b(x) - want)) < 1e-12
        nodes = np.arange(11) / 10
        assert np.max(np.abs(b(x) - brute_bernstein(nodes**2, x))) < 1e-12

    def test_constant(self):
        b = bernstein_1d(lambda x: np.full(x.shape[:-1], 4.25), 6)
        x = np.linspace(0, 1, 19)
        assert np.max(np.abs(b(x) - 4.25)) < 1e-14

    def test_range_stays_within_samples(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(13)
        b = bernstein_1d(samples, 12)
        vals = b(np.linspace(0, 1, 501))
        assert np.min(vals) >= samples.min() - 1e-12
        assert np.max(vals) <= samples.max() + 1e-12

    def test_endpoint_interpolation_exact(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(9)
        b = bernstein_1d(samples, 8)
        assert b(np.array([[0.0]]))[0] == samples[0]
        assert b(np.array([[1.0]]))[0] == samples[-1]

    def test_degree_and_sample_count_errors(self):
        with pytest.raises(ValueError, match=">= 1"):
            bernstein_1d(lambda x: x[..., 0], 0)
        with pytest.raises(ValueError, match="samples"):
            bernstein_1d(np.zeros(4), 8)


class TestBinomialWeights:
    def test_log_binom_matches_gammaln(self, monkeypatch):
        from scipy.special import gammaln

        import kamtori.smoothing as smoothing

        # a private cache, emptied per degree: the check keeps no tables
        monkeypatch.setattr(smoothing, "_LOG_BINOM", {})
        lf = gammaln(np.arange(4097) + 1.0)
        eps = np.finfo(float).eps
        for d in range(1, 4097):
            want = lf[d] - lf[: d + 1] - lf[d::-1]
            got = smoothing._log_binom(d)
            # both cancel log d! against log i! + log (d-i)!: a few ulp of log d!
            assert np.max(np.abs(got - want)) <= 8 * eps * max(1.0, lf[d]), d
            smoothing._LOG_BINOM.clear()

    @pytest.mark.parametrize("degree", [1024, 2048, 4096])
    def test_basis_rows_sum_to_one(self, degree):
        from kamtori.smoothing import _basis

        t = np.concatenate([[0.0, 1.0, 1e-9, 1.0 - 1e-9],
                            np.random.default_rng(degree).random(500)])
        rows = _basis(degree, t)
        assert np.all(rows >= 0.0)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-11


class TestLemma2Derivative:
    def test_affine_derivative_is_constant(self):
        b = bernstein_1d(lambda x: 2.0 * x[..., 0] - 0.3, 7)
        d = bernstein_derivative(b, 1)
        assert np.max(np.abs(d(np.linspace(0, 1, 11)) - 2.0)) < 1e-13

    def test_square_derivative_symbolic(self):
        nodes = np.arange(11) / 10
        b = bernstein_1d(nodes**2, 10)
        d = bernstein_derivative(b, 1)
        x = np.linspace(0, 1, 50)
        # d/dx of x^2 + x(1-x)/10
        want = 2 * x + (1 - 2 * x) / 10
        assert np.max(np.abs(d(x) - want)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_symbolic_differentiation(self, q):
        # the finite-difference form and exact-rational differentiation of
        # the same polynomial must agree to 1e-11 on smooth sample data
        rng = np.random.default_rng(29)
        for _ in range(3):
            coeffs = rng.uniform(-1, 1, 5)
            amp = rng.uniform(-0.3, 0.3)

            def f(u):
                return sum(c * u**m for m, c in enumerate(coeffs)) + amp * np.sin(
                    2 * np.pi * u
                )

            for k in (8, 64):
                samples = f(np.arange(k + 1) / k)
                poly, x = symbolic_poly(samples)
                dq = poly.diff((x, q))
                ours = bernstein_derivative(bernstein_1d(samples, k), q)
                pts = np.arange(12) / 11
                got = ours(pts)
                for i in range(12):
                    ref = float(dq.eval(sp.Rational(i, 11)))
                    assert abs(got[i] - ref) < 1e-11

    def test_top_order_is_constant(self):
        rng = np.random.default_rng(31)
        samples = rng.standard_normal(6)
        k = 5
        b = bernstein_1d(samples, k)
        d = bernstein_derivative(b, k)
        vals = d(np.linspace(0, 1, 9))
        poly, x = symbolic_poly(samples)
        ref = float(poly.diff((x, k)).eval(sp.Rational(1, 2)))
        assert np.max(np.abs(vals - vals[0])) < 1e-9 * max(1.0, abs(ref))
        assert vals[0] == pytest.approx(ref, rel=1e-11)

    def test_order_above_degree_rejected(self):
        b = bernstein_1d(np.zeros(4), 3)
        with pytest.raises(ValueError, match="exceeds"):
            bernstein_derivative(b, 4)


def affine_target():
    """1 + 2 x - y as a sum of three products."""
    return SeparableFunction([
        (None, None),
        (lambda x: 2.0 * x, None),
        (None, lambda y: -y),
    ])


def x2y_target():
    """x^2 y as one product."""
    return SeparableFunction([(lambda x: x**2, lambda y: y)])


def factored_derivative(b, alpha, z):
    """D^alpha of a rung at points z, from its axis_values tables."""
    pts = z.reshape(-1, z.shape[-1])
    out = np.ones((b.rank, pts.shape[0]))
    for axis, q in enumerate(alpha):
        out = out * b.axis_values(axis, pts[:, axis], q)[q]
    return out.sum(axis=0).reshape(z.shape[:-1])


def unit_grid(points, dim=2):
    axes = (np.linspace(0, 1, points),) * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


class TestBernsteinNd:
    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_affine_exact(self, k):
        f = affine_target()
        b = bernstein_nd(f, k, unit_box(2))
        assert b.degrees == (k, k)
        g = unit_grid(17)
        assert np.max(np.abs(b(g) - (1.0 + 2.0 * g[:, 0] - g[:, 1]))) < 1e-12

    def test_c0_error_halves_with_degree(self):
        f = x2y_target()
        g = unit_grid(41)
        errs = []
        for k in (8, 16, 32, 64):
            b = bernstein_nd(f, k, unit_box(2))
            errs.append(float(np.max(np.abs(b(g) - f(g)))))
        for a, b_ in zip(errs, errs[1:]):
            assert 2 / 1.5 <= a / b_ <= 2 * 1.5

    def test_c3_error_decreases_with_degree(self):
        f = x2y_target()
        exact = {
            (0, 0): f,
            (1, 0): lambda z: 2 * z[..., 0] * z[..., 1],
            (0, 1): lambda z: z[..., 0] ** 2,
            (2, 0): lambda z: 2 * z[..., 1],
            (1, 1): lambda z: 2 * z[..., 0],
            (0, 2): lambda z: np.zeros(z.shape[:-1]),
            (3, 0): lambda z: np.zeros(z.shape[:-1]),
            (2, 1): lambda z: np.full(z.shape[:-1], 2.0),
            (1, 2): lambda z: np.zeros(z.shape[:-1]),
            (0, 3): lambda z: np.zeros(z.shape[:-1]),
        }
        g = unit_grid(21)
        gaps = []
        for k in (8, 16, 32):
            b = bernstein_nd(f, k, unit_box(2))
            worst = 0.0
            for alpha, df in exact.items():
                vals = b.derivative(alpha)(g) - df(g)
                worst = max(worst, float(np.max(np.abs(vals))))
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            bernstein_nd(x2y_target(), 2, unit_box(2))

    def test_corner_interpolation(self):
        f = lambda z: np.cos(z[..., 0]) + z[..., 1] ** 3
        b = bernstein_tensor(f, (5, 7), unit_box(2))
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(b(corners), f(corners))


class TestClNorms:
    def test_cubic_norm(self):
        f = lambda z: z[..., 0] ** 3
        # derivatives 1, 3x^2, 6x, 6: the C^3 norm on [0,1] is 6
        got = cl_norm(f, unit_box(1), 3, 33)
        assert got == pytest.approx(6.0, rel=1e-3)

    def test_gap_of_identical_approximants_is_zero(self):
        b = bernstein_1d(lambda x: x[..., 0] ** 2, 8)
        assert cl_gap(b, b, unit_box(1), 3, 17) == 0.0

    def test_c3_rate_on_smooth_function(self):
        f = lambda x: np.sin(2 * np.pi * x[..., 0])
        gaps = []
        for k in (8, 16, 32, 64):
            b = bernstein_1d(f, k)
            gaps.append(cl_gap(b, f, unit_box(1), 3, 33))
        slopes = [np.log2(a / b_) for a, b_ in zip(gaps, gaps[1:])]
        assert 0.8 <= float(np.mean(slopes)) <= 1.2


def stencil(f, z, v, q, h):
    """Central difference of order q of f at z along v with step h."""
    offs, weights, scale = {
        1: ([-1, 1], [-0.5, 0.5], h),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0], h**2),
        3: ([-2, -1, 1, 2], [-1.0, 2.0, -2.0, 1.0], 2 * h**3),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0], h**4),
    }[q]
    return sum(w * f(z + o * h * v) for o, w in zip(offs, weights)) / scale


class TestPlateauBump:
    def test_smoothstep_shape(self):
        s = PlateauBump.smoothstep
        assert s(np.array(0.0)) == 0.0
        assert s(np.array(1.0)) == 1.0
        assert s(np.array(0.5)) == pytest.approx(0.5)
        t = np.linspace(0, 1, 301)
        v = s(t)
        assert np.all(np.diff(v) >= 0)
        assert np.max(np.abs(s(t) + s(1 - t) - 1.0)) < 1e-14

    @pytest.mark.parametrize("q,h", [(1, 1e-6), (2, 1e-5), (3, 1e-4), (4, 1e-3)])
    def test_derivative_bounds_match_profile_sups(self, q, h):
        t = np.linspace(5 * h, 1 - 5 * h, 4001)
        measured = float(np.max(np.abs(stencil(PlateauBump.smoothstep, t, 1.0, q, h))))
        bump = PlateauBump(np.zeros((1, 1)), r=2.0 / 3.0, periodic=np.array([False]))
        # radius 2/3 makes the chart scale 1.5 r = 1, exposing the raw sup
        frozen = bump.derivative_bound(q)
        assert measured == pytest.approx(frozen, rel=2e-2)

    def test_regions(self):
        anchors = np.array([[0.0, 0.0]])
        bump = PlateauBump(anchors, r=0.2, periodic=np.array([False, False]))
        z = lambda d: np.array([[0.0, d]])
        assert bump(z(0.1))[0] == 1.0
        assert bump(z(0.19))[0] == 1.0
        assert bump(z(0.55))[0] == 0.0
        mid = bump(z(0.35))[0]
        assert 0.0 < mid < 1.0
        d = np.linspace(0.2, 0.5, 40)
        vals = bump(np.stack([np.zeros(40), d], axis=-1))
        assert np.all(np.diff(vals) <= 0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError, match="positive"):
            PlateauBump(np.zeros((1, 2)), r=0.0, periodic=np.array([False, False]))


@pytest.fixture(scope="module")
def rough_system():
    prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
    h = CompositeHamiltonian(
        HamiltonianModel.free_rotator(1), [RoughTerm(0, prof, 1e-2)]
    )
    K0 = TorusEmbedding.circle(0.4, trunc_order=64)
    return h, K0


class TestCutoff:
    def test_identity_on_image(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        pts = K0.grid_samples().reshape(-1, 2)[::8]
        assert np.max(np.abs(hx(pts) - h.jet_batch(pts)[0])) < 1e-14
        assert np.all(hx.phi(pts) == 1.0)

    def test_vanishes_far_from_image(self, rough_system):
        h, K0 = rough_system
        r = 0.8
        hx = cutoff_extend(h, K0, r=r)
        far = np.array([[0.3, 0.4 + 2.6 * r]])
        assert hx.cut_values(far)[0] == 0.0
        assert hx(far)[0] == h.analytic.jet_batch(far)[0]

    def test_transition_is_strict_and_rate_limited(self, rough_system):
        h, K0 = rough_system
        r = 0.8
        hx = cutoff_extend(h, K0, r=r)
        d = np.linspace(1.05 * r, 2.45 * r, 60)
        pts = np.stack([np.full(60, 0.3), 0.4 + d], axis=-1)
        phi = hx.phi(pts)
        assert np.all((phi > 0.0) & (phi < 1.0))
        step = 1e-6
        hi = hx.phi(pts + [0.0, step])
        lo = hx.phi(pts - [0.0, step])
        slope = np.max(np.abs(hi - lo) / (2 * step))
        assert slope <= hx.bump.derivative_bound(1) * 1.05

    def test_domain_margin_enforced(self):
        box_h = HamiltonianModel(
            1,
            [((0,), (2,), 0.5)],
            box=__import__("kamtori").Box(
                np.array([0.0, -0.1]), np.array([1.0, 0.1]), np.array([True, False])
            ),
        )
        K0 = TorusEmbedding.circle(0.0, trunc_order=8)
        with pytest.raises(ValueError, match="too close"):
            cutoff_extend(box_h, K0, r=0.2)

    def test_box_is_the_cutoff_box(self, rough_system):
        # the box set before SumModel.__init__ survives it
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        lo, hi = hx.bump.anchors
        assert np.array_equal(hx.box.lo, [0.0, lo[0] - 3 * 0.8])
        assert np.array_equal(hx.box.hi, [1.0, hi[0] + 3 * 0.8])
        assert hx.box.periodic.tolist() == [True, False]

    def test_invalid_radius(self, rough_system):
        h, K0 = rough_system
        with pytest.raises(ValueError, match="positive"):
            cutoff_extend(h, K0, r=-1.0)

    def test_hull_from_the_sampling_grid_only(self, rough_system):
        h, K0 = rough_system
        with pytest.raises(TypeError, match="grid_size"):
            cutoff_extend(h, K0, r=0.8, grid_size=45)


def wavy_torus(amps, trunc_order=16):
    """Graph torus y_i = y0_i + a_i sin(2 pi (x_1 + ... + x_i)) over T^n."""
    n = len(amps)
    y0 = np.array([0.4, -0.3, 0.1][:n])
    modes = {(0,) * n: np.concatenate([np.zeros(n), y0]).astype(complex)}
    for i, a in enumerate(amps):
        k = (1,) * (i + 1) + (0,) * (n - i - 1)
        modes[k] = np.zeros(2 * n, dtype=complex)
        modes[k][n + i] = -0.5j * a
    winding = np.vstack([np.eye(n), np.zeros((n, n))])
    return TorusEmbedding(winding, FourierMap(n, (2 * n,), modes, trunc_order))


def action_gaps(K0, z):
    """Distance of each action of z to the [min, max] of K0's samples."""
    n = K0.dim_domain
    ys = K0.grid_samples().reshape(-1, 2 * n)[:, n:]
    y = z[..., n:]
    return np.maximum(np.maximum(ys.min(axis=0) - y, y - ys.max(axis=0)), 0.0)


@pytest.fixture(scope="module")
def rough_2dof():
    prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
    return CompositeHamiltonian(
        HamiltonianModel.free_rotator(2),
        [RoughTerm(0, prof, 1e-2), RoughTerm(1, prof, 2e-2)],
    )


class TestActionHullCutoff:
    """The cutoff on tori whose action samples are not constant."""

    @pytest.mark.parametrize("a", [1e-4, 1e-2])
    def test_second_difference_does_not_grow_on_wavy_torus(self, rough_system, a):
        # a cutoff built from the distance to the sample cloud is only
        # Lipschitz here: its second differences grow like 1/h
        h, _ = rough_system
        r = 0.1
        K0 = wavy_torus([a])
        hx = cutoff_extend(h, K0, r=r)
        peaks = []
        for step in (1e-2, 1e-3, 1e-4):
            x = np.arange(step / 3, 1.0, step / 2)
            sup = 0.0
            for d in (1.2 * r, 1.6 * r, 2.1 * r):
                z = np.stack([x, np.full_like(x, 0.4 + a + d)], axis=-1)
                for v in ([1.0, 0.0], [1.0, 1.0], [1.0, -1.0]):
                    d2 = stencil(hx.phi, z, np.array(v), 2, step)
                    sup = max(sup, float(np.max(np.abs(d2))))
            peaks.append(sup)
        assert peaks[-1] <= 1.1 * peaks[0]
        assert max(peaks) <= hx.bump.derivative_bound(2) * 1.01

    def test_plateau_and_support_are_those_of_the_hull(self, rough_2dof):
        r = 0.1
        K0 = wavy_torus([1e-2, 3e-2])
        hx = cutoff_extend(rough_2dof, K0, r=r)
        samples = K0.grid_samples().reshape(-1, 4)
        assert np.all(hx.phi(samples) == 1.0)
        assert np.all(hx.cut_values(samples) == hx.rough_values(samples))
        rng = np.random.default_rng(3)
        z = np.concatenate(
            [rng.uniform(0, 1, (4000, 2)), rng.uniform(-0.7, 0.8, (4000, 2))], axis=1
        )
        g = action_gaps(K0, z)
        phi, cut = hx.phi(z), hx.cut_values(z)
        inner = np.all(g <= r, axis=-1)
        outer = np.any(g >= 2.5 * r, axis=-1)
        assert inner.sum() > 50 and outer.sum() > 50
        assert np.all(phi[inner] == 1.0)
        assert np.all(phi[outer] == 0.0)
        assert np.all(cut[outer] == 0.0)
        assert np.all(hx.rough_values(z[outer]) != 0.0)
        # strictly inside the transition (away from where s rounds to 0 or 1)
        band = np.all(g <= 2.4 * r, axis=-1) & np.any(g >= 1.1 * r, axis=-1)
        assert band.sum() > 50
        assert np.all((phi[band] > 0.0) & (phi[band] < 1.0))

    @pytest.mark.parametrize("q,c", [(1, 1e-6), (2, 1e-5), (3, 1e-4), (4, 1e-3)])
    def test_directional_derivatives_within_leibniz_bound(self, rough_2dof, q, c):
        r = 0.1
        K0 = wavy_torus([1e-2, 3e-2])
        hx = cutoff_extend(rough_2dof, K0, r=r)
        lo, hi = hx.bump.anchors
        rng = np.random.default_rng(q)
        # both actions in the transition band, where the mixed terms live
        side = rng.choice([-1.0, 1.0], (3000, 2))
        depth = rng.uniform(r, 2.5 * r, (3000, 2))
        y = np.where(side > 0, hi + depth, lo - depth)
        z = np.concatenate([rng.uniform(0, 1, (3000, 2)), y], axis=1)
        v = rng.uniform(-1, 1, (3000, 4))
        v /= np.max(np.abs(v), axis=-1, keepdims=True)
        measured = float(np.max(np.abs(stencil(hx.phi, z, v, q, c * 1.5 * r))))
        bound = hx.bump.derivative_bound(q)
        assert measured <= bound
        # and it is not vacuous: the sampled sup reaches 35-67 % of it
        assert measured >= 0.25 * bound

    def test_one_action_axis_reproduces_profile_table(self):
        one = PlateauBump(np.zeros((1, 2)), r=0.3, periodic=np.array([True, False]))
        two = PlateauBump(
            np.zeros((1, 4)), r=0.3, periodic=np.array([True, True, False, False])
        )
        sups = (1.0, 2.0, 9.842, 110.567, 2280.398)
        for q in range(5):
            assert one.derivative_bound(q) == pytest.approx(sups[q] / 0.45**q)
        assert two.derivative_bound(1) == pytest.approx(2 * 2.0 / 0.45)
        assert two.derivative_bound(2) == pytest.approx((2 * 9.842 + 2 * 2.0**2) / 0.45**2)


def box_points(box, count, seed):
    """Uniform random points of a box (periodic axes over the whole chart)."""
    rng = np.random.default_rng(seed)
    return box.lo + box.widths() * rng.uniform(0, 1, (count, box.dim))


class DenseValleePoussin:
    """The tensor-product V_N of a function on a box, from one fftn of its
    samples on the full lattice of 8N points per axis: the dense oracle of
    rung_nd, which never forms this lattice."""

    def __init__(self, f, N, box):
        P = 8 * N
        axes = [box.lo[i] + box.widths()[i] * np.arange(P) / P for i in range(box.dim)]
        spec = np.fft.fftn(f(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)))
        k = np.fft.fftfreq(P, 1.0 / P)
        keep = np.abs(k) < 2 * N
        self.k, self.box = k[keep], box
        self.spec = spec[np.ix_(*[keep] * box.dim)] / P**box.dim
        weight = np.minimum(1.0, 2.0 - np.abs(self.k) / N)
        for i in range(box.dim):
            self.spec = self.spec * weight.reshape([-1 if j == i else 1 for j in range(box.dim)])

    def _waves(self, alpha, u, i):
        w = self.box.widths()[i]
        t = (np.asarray(u, dtype=float) - self.box.lo[i]) / w
        return np.exp(2j * np.pi * np.outer(t, self.k)) * (2j * np.pi * self.k / w) ** alpha[i]

    def at(self, alpha, z):
        """D^alpha at points z (..., dim), contracted from the last axis."""
        pts = z.reshape(-1, self.box.dim)
        waves = [self._waves(alpha, pts[:, i], i) for i in range(self.box.dim)]
        out = self.spec @ waves[-1].T
        for w in waves[-2::-1]:
            out = np.einsum("...kp,pk->...p", out, w)
        return out.real.reshape(z.shape[:-1])

    def on_grid(self, alpha, axes):
        """D^alpha on the outer-product grid of axes."""
        out = self.spec
        for i, u in enumerate(axes):
            out = np.tensordot(out, self._waves(alpha, u, i), axes=([0], [1]))
        return out.real


class TestSeparableOracles:
    """The factored ladder against the dense tensor-product operators."""

    @pytest.fixture(scope="class")
    def cut_2dof(self, rough_2dof):
        return cutoff_extend(rough_2dof, wavy_torus([1e-2, 3e-2]), r=0.1)

    @pytest.fixture(scope="class")
    def dense(self, cut_2dof):
        return {N: DenseValleePoussin(cut_2dof.cut_values, N, cut_2dof.box) for N in (3, 4)}

    def test_separable_target_is_the_cut_part(self, rough_system, cut_2dof):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        z = box_points(hx.box, 2000, 1)
        assert np.array_equal(hx.separable()(z), hx.cut_values(z))
        z = box_points(cut_2dof.box, 2000, 2)
        want = cut_2dof.cut_values(z)
        assert cut_2dof.separable().rank == 2
        assert np.max(np.abs(cut_2dof.separable()(z) - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [8, 64])
    def test_n1_rung_is_the_outer_product_of_samples(self, rough_system, k):
        # the dense Bernstein operator of a rank-1 product samples it on
        # the lattice: the outer product of its 1-D samples
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        b = bernstein_nd(hx.separable(), k, hx.box)
        lattice = bernstein_tensor(hx.cut_values, (k, k), hx.box).coefficients
        assert np.array_equal(b.coefficients, lattice)
        # the rows are the 1-D samples: the rough part on the plateau, phi
        nodes = [hx.box.lo[i] + hx.box.widths()[i] * np.arange(k + 1) / k for i in (0, 1)]
        on_plateau = np.stack([nodes[0], np.full(k + 1, 0.4)], axis=-1)
        along_y = np.stack([np.zeros(k + 1), nodes[1]], axis=-1)
        assert np.array_equal(np.multiply.outer(hx.cut_values(on_plateau), hx.phi(along_y)),
                              lattice)

    def test_n2_rung_matches_tensor_operator(self, cut_2dof, dense):
        hx = cut_2dof
        rung = rung_nd(hx.separable(), 4, hx.box)
        assert rung.rank == 2
        z = box_points(hx.box, 300, 3)
        # angles outside the chart, and actions outside the box, repeat
        z[:100, :2] += [1.0, -2.0]
        z[100:150, 2:] += hx.box.widths()[2:]
        tensor = {alpha: dense[4].at(alpha, z)
                  for alpha in iter_product(range(4), repeat=4) if sum(alpha) <= 3}
        for alpha, want in tensor.items():
            got = factored_derivative(rung, alpha, z)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        val, grad, hess = rung.jet_batch(z)
        eye = np.eye(4, dtype=int)
        assert np.max(np.abs(val - tensor[(0,) * 4])) <= 1e-15
        for a in range(4):
            want = tensor[tuple(eye[a])]
            assert np.max(np.abs(grad[:, a] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            for c in range(4):
                want = tensor[tuple(eye[a] + eye[c])]
                assert np.max(np.abs(hess[:, a, c] - want)) <= 1e-12 * max(
                    1.0, np.max(np.abs(want))
                )

    def test_factored_gaps_equal_dense_cl_gap_at_n2(self, cut_2dof, dense):
        hx = cut_2dof
        target = hx.separable()
        r3, r4 = (rung_nd(target, N, hx.box) for N in (3, 4))
        # cl_bound bounds the tail from above; the dense reference reads it
        # on the grid
        ref = cl_gap(r3, target, hx.box, 3, 9)
        assert ref <= max(cl_bound([r3, target], hx.box)[0]) <= 10 * ref
        # exact path: the rung gap against the dense spectra, on cl_gap's grid
        d3, d4 = dense[3], dense[4]
        box = hx.box
        axes = [box.lo[i] + box.widths()[i] * np.arange(9) / 9 if box.periodic[i]
                else np.linspace(box.lo[i], box.hi[i], 9) for i in range(4)]
        for order in (3, 0):
            want = max(float(np.max(np.abs(d3.on_grid(alpha, axes) - d4.on_grid(alpha, axes))))
                       for alpha in iter_product(range(order + 1), repeat=4)
                       if sum(alpha) <= order)
            assert cl_gap(r3, r4, hx.box, order, 9) == pytest.approx(want, rel=1e-9)


class TestBasisFromTable:
    """A SeparableRung holds a complex half spectrum on every axis."""

    def test_real_table_rejected(self):
        box = Box(np.zeros(2), np.ones(2), np.array([True, False]))
        with pytest.raises(ValueError, match="axis 1 has a real table"):
            SeparableRung(box, (np.ones((1, 8), complex), np.ones((1, 5))))

    def test_each_builder_names_its_axes_bases(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        b = bernstein_nd(hx.separable(), 8, hx.box)
        rung = rung_nd(hx.separable(), 8, hx.box)
        # bernstein_nd is the dense operator, rung_nd the factored V_N
        assert type(b) is BernsteinApproximant and b.degrees == (8, 8)
        assert type(rung) is SeparableRung
        assert [(f.dtype, f.shape) for f in rung.factors] == [(np.complex128, (1, 16))] * 2
        # a tail pairs a rung with its target
        sups, method = cl_bound([rung, hx.separable()], hx.box)
        assert method == "sampled"
        ref = cl_gap(rung, hx.separable(), hx.box, 3, 129)
        assert ref <= max(sups) <= 10 * ref


def trig_polynomial(N, lo, width, seed):
    """A random real trigonometric polynomial of degree N on the period
    [lo, lo + width] and its closed-form derivative of order q."""
    a, b = np.random.default_rng(seed).normal(size=(2, N + 1))
    k = np.arange(N + 1)

    def derivative(u, q=0):
        w = 2 * np.pi * k / width
        phase = np.outer(np.asarray(u, dtype=float) - lo, w) + q * np.pi / 2
        return (np.cos(phase) * a + np.sin(phase) * b) @ w**q

    return derivative


def vanishing_trig_polynomial(N, lo, width, seed):
    """(1 - cos 2 pi t) p(t), t = (u - lo) / width, with p a random real
    trigonometric polynomial of degree N - 1 (trig_polynomial): degree N,
    and 0 at both ends of [lo, lo + width]; with its derivative of order q."""
    p = trig_polynomial(N - 1, lo, width, seed)
    w = 2 * np.pi / width

    def one_minus_cos(u, j):
        return float(j == 0) - w**j * np.cos(w * (np.asarray(u, dtype=float) - lo) + j * np.pi / 2)

    def derivative(u, q=0):
        return sum(math.comb(q, j) * one_minus_cos(u, j) * p(u, q - j) for j in range(q + 1))

    return derivative


class TestValleePoussinRung:
    """Ladder rungs: V_N of each factor on every axis."""

    @pytest.fixture(scope="class")
    def rungs(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        seq = build_smoothing_sequence(
            hx, l=4, sigma=1.1, count=3, e0_norm=0.2, start_degree=8, max_degree=128
        )
        return seq.history["rungs"]

    def test_each_axis_takes_the_basis_of_its_kind(self, rungs):
        for rung in rungs:
            N = rung.degrees[0]
            assert rung.degrees == (N, N)
            assert [f.shape for f in rung.factors] == [(1, 2 * N)] * 2
            assert all(np.iscomplexobj(f) for f in rung.factors)
            u = np.linspace(-0.5, 1.5, 7)
            for axis in range(2):
                assert rung.axis_values(axis, u, 3).dtype == np.float64

    def test_every_derivative_is_continuous_across_the_seam(self, rungs):
        # D^q at either side of an axis's seam (x = 0 == 1 on the angle, the
        # box ends on the action) differs by at most the distance, 2 delta,
        # times sup |D^(q+1)| (a factor that is not periodic jumps there)
        for rung in rungs:
            for axis in range(2):
                lo, hi = rung.box.lo[axis], rung.box.hi[axis]
                delta = 1e-7 * (hi - lo)
                sides = rung.axis_values(axis, np.array([lo + delta, hi - delta]), 3)
                grid = np.linspace(lo, hi, 4001)
                sups = np.max(np.abs(rung.axis_values(axis, grid, 4)), axis=2)
                for q in range(4):
                    jump = np.abs(sides[q, :, 0] - sides[q, :, 1])
                    assert np.all(jump <= 2 * delta * sups[q + 1] * 1.5 + 1e-12 * sups[q]), q

    def test_angle_amplitudes_vanish_beyond_2N(self, rungs):
        for rung in rungs:
            N = rung.degrees[0]
            P = 16 * N
            values = rung.axis_values(0, np.arange(P) / P, 0)[0]
            amps = np.abs(np.fft.rfft(values, axis=1)) / P
            assert np.max(amps[:, 2 * N:]) <= 1e-14 * np.max(amps)

    @pytest.mark.parametrize("N", [4, 16])
    def test_reproduces_a_trigonometric_polynomial_of_degree_N(self, N):
        # on a periodic axis of width 1.5 and on an action axis of width 2,
        # where the factor is a trigonometric polynomial of the box width's
        # period that vanishes at both ends
        p = trig_polynomial(N, 0.25, 1.5, seed=N)
        a = vanishing_trig_polynomial(N, -1.0, 2.0, seed=N + 1)
        box = Box(np.array([0.25, -1.0]), np.array([1.75, 1.0]), np.array([True, False]))
        rung = rung_nd(SeparableFunction([(p, a)]), N, box)
        rng = np.random.default_rng(N)
        u = rng.uniform(-2.0, 4.0, 300)
        y = rng.uniform(-1.0, 1.0, 300)
        for axis, g, v in ((0, p, u), (1, a, y)):
            table = rung.axis_values(axis, v, 3)[:, 0]
            for q in range(4):
                want = g(v, q)
                assert np.max(np.abs(table[q] - want)) <= 1e-12 * np.max(np.abs(want)), (axis, q)
        val, grad, hess = rung.jet_batch(np.stack([u, y], axis=-1))
        scale = np.max(np.abs(p(u, 2))) * np.max(np.abs(a(y, 2)))
        assert np.max(np.abs(val - p(u) * a(y))) <= 1e-12 * scale
        assert np.max(np.abs(grad[:, 0] - p(u, 1) * a(y))) <= 1e-12 * scale
        assert np.max(np.abs(grad[:, 1] - p(u) * a(y, 1))) <= 1e-12 * scale
        assert np.max(np.abs(hess[:, 0, 0] - p(u, 2) * a(y))) <= 1e-12 * scale
        assert np.max(np.abs(hess[:, 0, 1] - p(u, 1) * a(y, 1))) <= 1e-12 * scale
        assert np.max(np.abs(hess[:, 1, 1] - p(u) * a(y, 2))) <= 1e-12 * scale

    def test_action_factor_that_does_not_vanish_at_the_box_ends_rejected(self):
        p = trig_polynomial(4, 0.25, 1.5, seed=4)
        box = Box(np.array([0.25, -1.0]), np.array([1.75, 1.0]), np.array([True, False]))
        with pytest.raises(ValueError, match="action axis 1: a factor does not vanish"):
            rung_nd(SeparableFunction([(p, lambda y: 1.0 + 2.0 * y)]), 4, box)


class TestRungTableOracles:
    """Each order's axis table against V_N evaluated mode by mode, on an
    angle and an action axis."""

    @pytest.fixture(scope="class", params=[4, 256, 2048])
    def rung(self, request):
        N = request.param
        prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], 5)
        box = Box(np.array([0.25, -0.7]), np.array([1.75, 1.9]), np.array([True, False]))
        t = np.arange(8 * N) / (8 * N)
        half = _vallee_poussin_half(np.stack([prof(t), np.cos(2 * np.pi * t) ** 3]), N)
        bump = PlateauBump.smoothstep(np.sin(np.pi * t) ** 2 * 4.0)
        action = _vallee_poussin_half(np.stack([bump, np.sin(2 * np.pi * t) * bump]), N)
        return SeparableRung(box, (half, action))

    def test_vallee_poussin_tables_match_a_sum_over_modes(self, rung):
        for axis in range(2):
            lo, width = rung.box.lo[axis], rung.box.widths()[axis]
            u = np.random.default_rng(5 + axis).uniform(lo - width, lo + 2 * width, 200)
            tables = rung.axis_values(axis, u, 3)
            half = rung.factors[axis]
            for q in range(4):
                want = np.zeros_like(tables[q])
                for k in range(half.shape[1]):
                    wave = np.exp(2j * np.pi * k * (u - lo) / width)
                    want += (half[:, k : k + 1] * (2j * np.pi * k / width) ** q * wave).real
                assert np.max(np.abs(tables[q] - want)) <= 1e-11 * np.max(np.abs(want)), (axis, q)


class TestSmoothingSequence:
    def test_analytic_input_gives_constant_sequence(self):
        h = HamiltonianModel.pendulum(1e-3)
        seq = build_smoothing_sequence(h, l=4, sigma=1.1, count=3, e0_norm=1e-3)
        assert seq.approximants == [h, h, h]
        assert seq.gaps_c3 == [0.0, 0.0]
        assert seq.a_const == 0.0
        assert seq.history["analytic"]

    def test_cutoff_without_rough_part_is_analytic(self):
        h = HamiltonianModel.free_rotator(1)
        K0 = TorusEmbedding.circle(0.4, trunc_order=16)
        hx = cutoff_extend(h, K0, r=0.5)
        seq = build_smoothing_sequence(hx, l=4, sigma=1.1, count=2, e0_norm=1e-6)
        assert seq.approximants[0] is h
        assert seq.gaps_c3 == [0.0]

    def test_ladder_reanchors_and_bounds_gaps(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        seq = build_smoothing_sequence(
            hx, l=4, sigma=1.1, count=2, e0_norm=0.2, start_degree=8, max_degree=128
        )
        assert seq.degrees == [8, 16]
        assert seq.anchor_index == 0
        assert len(seq.gaps_c3) == 1
        assert seq.gaps_c3[0] <= 0.2
        assert seq.a_const == seq.gaps_c3[0]
        for k, g in enumerate(seq.gaps_c3):
            assert g <= seq.bound(k) * (1 + 1e-12)
        # one bound gives both gaps of a rung pair, each at least the dense
        # cl_gap of its own order and not vacuous
        b = seq.history["rungs"]
        for gap, order in ((seq.gaps_c3[0], 3), (seq.gaps_c0[0], 0)):
            ref = cl_gap(b[0], b[1], hx.box, order, 129)
            assert ref <= gap <= 10 * ref
        assert seq.methods == {"gaps": "coefficient_bound", "tails": "sampled"}

    def test_ladder_reanchors_past_gaps_above_e0(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        seq = build_smoothing_sequence(
            hx, l=4, sigma=1.1, count=2, e0_norm=0.11, start_degree=8, max_degree=128
        )
        ladder_gaps = seq.history["ladder_gaps_c3"]
        assert seq.history["ladder_degrees"][:3] == [8, 16, 32]
        assert ladder_gaps[0] > 0.11 >= ladder_gaps[1]
        assert seq.anchor_index == 1
        assert seq.degrees == [16, 32]
        assert seq.gaps_c3 == [ladder_gaps[1]]

    def test_prefix_stability_when_count_grows(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        kw = dict(l=4, sigma=1.1, e0_norm=0.2, start_degree=8, max_degree=128)
        seq2 = build_smoothing_sequence(hx, count=2, **kw)
        seq3 = build_smoothing_sequence(hx, count=3, **kw)
        assert seq3.degrees[:2] == seq2.degrees
        assert seq3.gaps_c3[0] == seq2.gaps_c3[0]
        assert len(seq3.degrees) == 3

    def test_action_coordinate_gaps_fall_at_every_doubling(self):
        # H = y^2/2 + 1e-3 B(y): the rough term on the action coordinate,
        # where the cut-off factor vanishes near both box ends
        prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
        h = CompositeHamiltonian(HamiltonianModel.free_rotator(1), [RoughTerm(1, prof, 1e-3)])
        hx = cutoff_extend(h, TorusEmbedding.circle(0.4, trunc_order=64), r=0.8)
        rungs = [rung_nd(hx.separable(), N, hx.box) for N in (8, 16, 32, 64, 128, 256)]
        gaps = [max(cl_bound([a, b], hx.box)[0]) for a, b in zip(rungs, rungs[1:])]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-4

    def test_unachievable_bound_raises(self, rough_system):
        h, K0 = rough_system
        hx = cutoff_extend(h, K0, r=0.8)
        with pytest.raises(ValueError, match="unachievable"):
            build_smoothing_sequence(
                hx, l=4, sigma=1.1, count=2, e0_norm=1e-6, start_degree=8,
                max_degree=16,
            )

    def test_parameter_validation(self):
        h = HamiltonianModel.pendulum(1e-3)
        with pytest.raises(ValueError, match="l"):
            build_smoothing_sequence(h, l=3, sigma=1.1, count=2, e0_norm=1.0)
        with pytest.raises(ValueError, match="count"):
            build_smoothing_sequence(h, l=4, sigma=1.1, count=0, e0_norm=1.0)


class TestFactorBounds:
    """cl_bound: C^l gaps, tails and norms as sums of products of per-axis
    factor sups.  Each is at least a dense cl_gap/cl_norm reference (129
    points per axis at n = 1, 33 at n = 2) and at most 10 times it."""

    @pytest.mark.parametrize("q", range(5))
    def test_smoothstep_tables_equal_sympy(self, q):
        import mpmath

        t = sp.symbols("t")
        g = sp.exp(-1 / t)
        s = g / (g + g.subs(t, 1 - t))
        exact = sp.lambdify(t, sp.diff(s, t, q), "mpmath")
        ts = np.concatenate([np.linspace(0.004, 0.996, 125), [1e-4, 0.9999]])
        with mpmath.workdps(40):
            want = np.array([float(exact(mpmath.mpf(x))) for x in ts])
        got = PlateauBump.smoothstep_jet(ts, 4)[q]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # outside (0, 1) the step is flat
        flat = PlateauBump.smoothstep_jet(np.array([-0.5, 0.0, 1.0, 1.5]), 4)
        assert np.array_equal(flat[0], [0.0, 0.0, 1.0, 1.0])
        assert not np.any(flat[1:])

    def test_bump_factor_tables_equal_sympy(self):
        bump = PlateauBump(np.array([[0.1], [0.3]]), r=0.2, periodic=np.array([False]))
        y = sp.symbols("y")
        g = lambda t: sp.exp(-1 / t)
        s = lambda t: g(t) / (g(t) + g(1 - t))
        below = s((2.5 * 0.2 - (0.1 - y)) / (1.5 * 0.2))
        above = s((2.5 * 0.2 - (y - 0.3)) / (1.5 * 0.2))
        ys = np.concatenate([np.linspace(-0.39, -0.11, 15), np.linspace(0.51, 0.79, 15)])
        table = bump.axis_jet(0, ys, 3)
        assert np.array_equal(table[0], bump.axis_factor(0, ys))
        for q in range(4):
            sides = [sp.lambdify(y, sp.diff(e, y, q)) for e in (below, above)]
            want = np.array([sides[int(v > 0.1)](v) for v in ys])
            assert np.max(np.abs(table[q] - want)) <= 1e-12 * np.max(np.abs(want)), q
        # on the plateau and beyond the support every derivative is 0
        assert not np.any(bump.axis_jet(0, np.array([0.0, 0.2, 0.4, -0.5, 0.9]), 3)[1:])

    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_cut_target_tables_match_its_values(self, coordinate):
        # the rough factor's jet (profile derivatives, and Leibniz with the
        # bump's on an action axis): order 0 is the values, and each order
        # is the central difference of the one below
        prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
        h = CompositeHamiltonian(HamiltonianModel.free_rotator(1),
                                 [RoughTerm(coordinate, prof, 1e-3)])
        hx = cutoff_extend(h, TorusEmbedding.circle(0.4, trunc_order=16), r=0.5)
        target = hx.separable()
        assert target.derivative_tables
        step = 1e-5
        for axis in [a for a in range(2) if len(target.support(a))]:
            u = np.linspace(hx.box.lo[axis] + 0.01, hx.box.hi[axis] - 0.01, 401)
            table = target.axis_values(axis, u, 3)[:, 0]
            assert np.array_equal(table[0], target.axis_values(axis, u, 0)[0, 0])
            up, down = (target.axis_values(axis, u + s, 2)[:, 0] for s in (step, -step))
            for q in (1, 2, 3):
                want = (up[q - 1] - down[q - 1]) / (2 * step)
                scale = np.max(np.abs(table[q]))
                assert np.max(np.abs(table[q] - want)) <= 1e-5 * scale, (axis, q)

    @pytest.fixture(scope="class")
    def cli_model(self):
        """rough_cascade_cli's model at amplitude 1e-4, cut off around K0."""
        prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
        h = CompositeHamiltonian(HamiltonianModel.free_rotator(1), [RoughTerm(0, prof, 1e-4)])
        hx = cutoff_extend(h, TorusEmbedding.circle(0.4, trunc_order=64), r=0.8)
        return hx, [rung_nd(hx.separable(), N, hx.box) for N in (8, 16, 32, 64)]

    def test_n1_gaps_bound_the_dense_reference(self, cli_model):
        hx, rungs = cli_model
        for a, b in zip(rungs, rungs[1:]):
            sups, method = cl_bound([a, b], hx.box)
            assert method == "coefficient_bound"
            for q in (0, 3):
                ref = cl_gap(a, b, hx.box, q, 129)
                assert ref <= (sups[0] if q == 0 else max(sups)) <= 10 * ref

    def test_n1_tails_bound_the_dense_reference(self, cli_model):
        # includes N = 64, whose tail a 33-point grid under-reads by about a
        # fifth
        hx, rungs = cli_model
        for rung in rungs:
            sups, method = cl_bound([rung, hx.separable()], hx.box)
            assert method == "sampled"
            ref = cl_gap(rung, hx.separable(), hx.box, 3, 129)
            assert ref <= max(sups) <= 10 * ref, rung.degrees

    def test_n2_gaps_and_tails_bound_the_dense_reference(self, rough_2dof):
        hx = cutoff_extend(rough_2dof, wavy_torus([1e-2, 3e-2]), r=0.1)
        target = hx.separable()
        rungs = [rung_nd(target, N, hx.box) for N in (8, 16)]
        pairs = [(rungs[0], rungs[1])] + [(rung, target) for rung in rungs]
        for f, g in pairs:
            ref = cl_gap(f, g, hx.box, 3, 33)
            assert ref <= max(cl_bound([f, g], hx.box)[0]) <= 10 * ref

    def test_factor_sups_bound_the_tables(self, cli_model):
        # closed forms, l^1 spectra and refined Bernstein hulls against the
        # max of each factor's tables on a fine grid of a sub-interval
        hx, rungs = cli_model
        analytic = HamiltonianModel(1, [((0,), (3,), 0.5), ((2,), (1,), 3e-3 - 1e-3j)])
        for model in (analytic, rungs[0], rungs[-1]):
            for axis in range(2):
                lo, hi = hx.box.lo[axis] + 0.3, hx.box.hi[axis] - 0.2
                sups = model.axis_sups(axis, lo, hi, 3)
                table = model.axis_values(axis, np.linspace(lo, hi, 20001), 3)
                sampled = np.max(np.abs(table), axis=-1)
                assert np.all(sampled <= sups * (1 + 1e-12))
                assert np.all(sups <= 2 * sampled + 1e-12), (model, axis)

    def test_unpaired_ranks_rejected(self, rough_2dof):
        hx = cutoff_extend(rough_2dof, wavy_torus([1e-2, 3e-2]), r=0.1)
        rung = rung_nd(hx.separable(), 8, hx.box)
        with pytest.raises(ValueError, match="ranks 2 and 1 differ"):
            cl_bound([rung, SeparableFunction([(np.cos, None, None, None)])], hx.box)
