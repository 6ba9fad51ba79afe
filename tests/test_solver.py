"""Invariance defect, adapted-frame data and the quasi-Newton iteration."""

import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest

import kamtori.solver as solver_module
from kamtori import (
    FourierMap,
    FrequencyVector,
    HamiltonianModel,
    Iterate,
    TorusEmbedding,
    invariance_error,
    newton_step,
    nondegeneracy,
    solve_torus,
)
from kamtori.fourier import _grid_major, sampling_size
from kamtori.hamiltonian import jet_grid
from kamtori.solver import (
    COND_DK_LIMIT, SVD_EXACT, AdaptedFrame, _gram_cond, _inverse,
    _grown_order, _tail_shells, _torsion_inverse,
)

from conftest import GOLDEN, dense_hessian


# the frame kernels are component-major: (rows, cols, *grid) and
# (rows, *grid); these move the component axes to and from the back
def comp(x, rank=2):
    return np.moveaxis(x, tuple(range(-rank, 0)), tuple(range(rank)))


def grid(x, rank=2):
    return np.moveaxis(x, tuple(range(rank)), tuple(range(-rank, 0)))


@pytest.fixture(scope="module")
def golden_freq():
    return FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=256)


@pytest.fixture(scope="module")
def solved_pendulum(golden_freq):
    h = HamiltonianModel.pendulum(1e-3)
    K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
    res = solve_torus(h, K0, golden_freq, tol=1e-11)
    assert res.converged
    return h, res


class TestInvarianceError:
    def test_rotator_circle_is_exact(self):
        h = HamiltonianModel.free_rotator(1)
        K = TorusEmbedding.circle(0.37, trunc_order=16)
        err = invariance_error(h, K, np.array([0.37]))
        assert err.norm_grid == 0.0

    def test_pendulum_unperturbed_guess_closed_form(self):
        # only the y-component carries the -dH/dx defect: 2 pi eps sin(2 pi x)
        eps = 0.01
        h = HamiltonianModel.pendulum(eps)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        err = invariance_error(h, K, np.array([GOLDEN]))
        theta = np.linspace(0, 1, 200, endpoint=False)[:, None]
        vals = err.e(theta)
        want_y = 2 * np.pi * eps * np.sin(2 * np.pi * theta[:, 0])
        assert np.max(np.abs(vals[:, 0])) < 1e-12
        assert np.max(np.abs(vals[:, 1] - want_y)) < 1e-12
        # M = 64 is sampled on sampling_size(64) = 135 = 3^3 5 points
        grid = np.arange(135) / 135
        oracle = 2 * np.pi * eps * np.max(np.abs(np.sin(2 * np.pi * grid)))
        assert err.norm_grid == pytest.approx(oracle, abs=1e-12)
        assert err.norm_grid == pytest.approx(2 * np.pi * eps, rel=1e-4)

    def test_constant_shift_of_h_is_invisible(self):
        eps = 0.01
        base = [((0,), (2,), 0.5), ((1,), (0,), eps / 2)]
        h1 = HamiltonianModel(1, base)
        h2 = HamiltonianModel(1, base + [((0,), (0,), 5.0)])
        K = TorusEmbedding.circle(GOLDEN, trunc_order=32)
        e1 = invariance_error(h1, K, np.array([GOLDEN]))
        e2 = invariance_error(h2, K, np.array([GOLDEN]))
        theta = np.linspace(0, 1, 64, endpoint=False)[:, None]
        assert np.max(np.abs(e1.e(theta) - e2.e(theta))) < 1e-15
        assert e1.norm_grid == e2.norm_grid


class TestNondegeneracy:
    def test_flat_circle_frame(self):
        h = HamiltonianModel.free_rotator(1)
        K = TorusEmbedding.circle(0.4, trunc_order=8)
        nd = nondegeneracy(h, K)
        theta = np.linspace(0, 1, 33, endpoint=False)[:, None]
        assert np.max(np.abs(nd.n_map(theta) - 1.0)) < 1e-12

    def test_rotator_torsion_is_minus_one(self):
        # A = [[0,1],[0,0]], AJ - JA = [[-1,0],[0,1]], sandwich gives S = -1
        h = HamiltonianModel.free_rotator(1)
        K = TorusEmbedding.circle(0.4, trunc_order=8)
        nd = nondegeneracy(h, K)
        assert nd.avg_s == pytest.approx(np.array([[-1.0]]), abs=1e-12)
        assert nd.avg_s_inv == pytest.approx(np.array([[-1.0]]), abs=1e-12)
        theta = np.linspace(0, 1, 17, endpoint=False)[:, None]
        s_map = FourierMap.from_samples(_grid_major(nd.s, 2), 1, 8)
        assert np.max(np.abs(s_map(theta) + 1.0)) < 1e-12

    def test_frame_identities_on_grid(self, solved_pendulum):
        h, res = solved_pendulum
        K = res.torus
        nd = nondegeneracy(h, K)
        gs = K.periodic.grid_size
        theta = (np.arange(gs) / gs)[:, None]
        n_vals = nd.n_map(theta)
        dk = K.dk()(theta)
        gram = np.einsum("...ji,...jk->...ik", dk, dk)
        assert np.max(np.abs(n_vals @ gram - np.eye(1))) < 1e-10
        assert np.max(np.abs(nd.avg_s @ nd.avg_s_inv - np.eye(1))) < 1e-10

    def test_average_torsion_rotation_invariant(self, solved_pendulum):
        h, res = solved_pendulum
        K = res.torus
        theta0 = 0.3
        gs = K.periodic.grid_size
        grid = (np.arange(gs) / gs)[:, None]
        vals = K.periodic(grid + theta0) + K.winding[:, 0] * theta0
        rotated = TorusEmbedding(K.winding, FourierMap.from_samples(vals, 1))
        a = nondegeneracy(h, K).avg_s
        b = nondegeneracy(h, rotated).avg_s
        assert np.max(np.abs(a - b)) < 1e-10


class TestFrameData:
    """What nondegeneracy keeps of the frame: N analyzed once on its
    distinct entries, |<S>^-1|_2 from the SVD of <S>, and DK's map."""

    CASES = {1: [(1, 0, 0.3)], 2: [(2, 1, 0.7), (0, 0, 0.3)],
             3: [(3, 1, 0.6), (4, 2, -0.5), (5, 0, 0.4), (0, 0, 0.3)]}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_map_is_the_analysis_of_n(self, monkeypatch, n):
        K = sheared_torus(n, self.CASES[n])
        analyzed = []

        def counted(samples, *args, **kwargs):
            analyzed.append(samples.size)
            return from_samples(samples, *args, **kwargs)

        from_samples = FourierMap.from_samples
        monkeypatch.setattr(FourierMap, "from_samples", staticmethod(counted))
        nd = nondegeneracy(HamiltonianModel.free_rotator(n), K)
        monkeypatch.undo()
        gs = sampling_size(K.trunc_order)
        # one analysis, of the n(n+1)/2 entries on and above the diagonal
        assert analyzed == [gs**n * n * (n + 1) // 2]
        full = FourierMap.from_samples(grid(nd.frame.n_mat), n, K.trunc_order)
        assert nd.n_map.range_shape == (n, n)
        assert np.array_equal(nd.n_map.half, np.swapaxes(nd.n_map.half, -1, -2))
        scale = np.max(np.abs(full.half))
        assert np.max(np.abs(nd.n_map.half - full.half)) <= 1e-15 * scale
        if n <= 2:  # the closed-form N is exactly symmetric
            assert np.array_equal(nd.n_map.half, full.half)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_s_inv_is_the_two_norm_of_the_inverse(self, n):
        h = coupled_rotator(1e-3) if n == 2 else HamiltonianModel.free_rotator(n)
        nd = nondegeneracy(h, sheared_torus(n, self.CASES[n]))
        want = np.linalg.norm(np.linalg.inv(nd.avg_s), 2)
        assert nd.norm_s_inv == pytest.approx(want, rel=1e-13)
        assert np.max(np.abs(nd.avg_s @ nd.avg_s_inv - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_avg_s_is_the_grid_mean(self, n):
        h = coupled_rotator(1e-3) if n == 2 else HamiltonianModel.free_rotator(n)
        nd = nondegeneracy(h, sheared_torus(n, self.CASES[n]))
        want = nd.s.mean(axis=tuple(range(2, nd.s.ndim)))
        assert want.tobytes() == nd.avg_s.tobytes()

    def test_norms_take_dk_from_the_frame(self, monkeypatch, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        value = Iterate.evaluate(h, TorusEmbedding.circle(GOLDEN, trunc_order=32),
                                 golden_freq)
        calls = []
        dk = TorusEmbedding.dk
        monkeypatch.setattr(TorusEmbedding, "dk",
                            lambda K: calls.append(K) or dk(K))
        nd = value.frame
        norms = [value.frame.norms(rho) for rho in (0.01, 0.02, 0.05)]
        assert len(calls) == 1
        assert norms == [(nd.dk_map.strip_norm(rho).value, nd.n_map.strip_norm(rho).value)
                         for rho in (0.01, 0.02, 0.05)]


class TestTwistBlocks:
    """The twist from the Hessian's entries against DK^T (H - J^T H J) DK
    formed densely, on a model with H_xy != 0."""

    # coupled_2dof's model plus c e^{2 pi i x1} y1 and its conjugate
    MODEL = HamiltonianModel(2, [((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
                                 ((1, 0), (0, 0), 5e-4), ((0, 1), (0, 0), 5e-4),
                                 ((1, -1), (0, 0), 5e-4), ((1, 0), (1, 0), 0.05)])

    def test_twist_matches_the_dense_quadratic_form(self):
        h = self.MODEL
        # y rows that vary, so that the x-y blocks meet DK's y rows
        K = sheared_torus(2, [(2, 1, 0.7), (3, 0, -0.4), (0, 0, 0.3)])
        z = K.grid_samples()
        entries = jet_grid(h, z)[1]
        assert (0, 2) in entries and (1, 3) not in entries  # H_x1y1 only
        hess = dense_hessian(entries, z)
        j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        q = hess - j.T @ hess @ j
        dk = K.dk().synthesize(sampling_size(K.trunc_order))
        form = lambda q: np.einsum("...ji,...jk,...kl->...il", dk, q, dk)  # noqa: E731
        want = form(q)
        scale = np.max(np.abs(want))
        got = grid(solver_module._twist(entries, comp(dk)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        # S = N T N on the same grid, through nondegeneracy
        n_mat = np.linalg.inv(np.einsum("...ji,...jk->...ik", dk, dk))
        s = grid(nondegeneracy(h, K, hess=entries).s)
        assert np.max(np.abs(s - n_mat @ want @ n_mat)) <= 1e-13 * np.max(np.abs(s))
        # the x-y blocks' share is far above that tolerance
        q[..., :2, 2:] = q[..., 2:, :2] = 0.0
        assert np.max(np.abs(form(q) - want)) > 1e-3 * scale


def lapack_torsion(avg_s):
    """|<S>^-1|_2 and <S>^-1 by one SVD and one inverse, for every n: the
    reference for _torsion_inverse's 1 x 1 path."""
    svals = np.linalg.svd(avg_s, compute_uv=False)
    if svals[-1] < 1e-12 * max(1.0, svals[0]):
        raise ValueError(f"averaged torsion <S> is singular: smallest singular "
                         f"value {svals[-1]:.3e}")
    return float(1.0 / svals[-1]), np.linalg.inv(avg_s)


class TestTorsionInverse:
    """A 1 x 1 <S> takes no inverse from LAPACK, and no SVD where |s| lies
    in SVD_EXACT, yet gives LAPACK's numbers and errors bit for bit; a
    2 x 2 <S> takes closed forms within a few ulps of LAPACK's; n >= 3
    stays on LAPACK."""

    @staticmethod
    def same(got, want):
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    def test_one_by_one_is_lapack_bit_for_bit(self):
        rng = np.random.default_rng(27)
        # |s| from the 1e-12 rule up past SVD_EXACT, where LAPACK scales
        mags = np.concatenate([10.0 ** rng.uniform(-12, 300, 3000),
                               [1e-12, 1.0, SVD_EXACT[1], 2.0**459]])
        edges = np.concatenate([np.nextafter(mags, 0.0), np.nextafter(mags, np.inf)])
        values = np.concatenate([mags, edges[edges >= 1e-12]])
        for s in np.concatenate([values, -values]):
            avg_s = np.array([[s]])
            self.same(_torsion_inverse(avg_s), lapack_torsion(avg_s))

    @pytest.mark.parametrize("s", [0.0, -0.0, 5e-324, 2.0**-459, SVD_EXACT[0],
                                   np.nextafter(SVD_EXACT[0], 0.0), 1e-13,
                                   np.nextafter(1e-12, 0.0), -np.nextafter(1e-12, 0.0)])
    def test_singular_one_by_one_raises_as_lapack(self, s):
        with pytest.raises(ValueError) as want:
            lapack_torsion(np.array([[s]]))
        with pytest.raises(ValueError, match="averaged torsion <S> is singular") as got:
            _torsion_inverse(np.array([[s]]))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_two_by_two_matches_lapack(self, monkeypatch, scale):
        rng = np.random.default_rng(29)
        mats = rng.standard_normal((500, 2, 2)) * scale
        mats[0] = [[0.0, 2.0 * scale], [-3.0 * scale, 0.0]]  # a zero diagonal
        mats[1] = [[scale, scale], [-scale, scale]]  # a scaled rotation
        wants = []
        for avg_s in mats:
            svals = np.linalg.svd(avg_s, compute_uv=False)
            try:
                wants.append((svals[0] / svals[1], lapack_torsion(avg_s)))
            except ValueError as exc:  # only the 1e-150 matrices are singular
                assert scale == 1e-150
                wants.append((None, str(exc)))
        monkeypatch.setattr(np.linalg, "svd", None)  # no LAPACK SVD on this path
        monkeypatch.setattr(np.linalg, "inv", None)
        for avg_s, (cond, want) in zip(mats, wants):
            if cond is None:
                with pytest.raises(ValueError, match="averaged torsion <S> is singular") as got:
                    _torsion_inverse(avg_s)
                reported = float(str(got.value).rsplit(" ", 1)[1])
                assert reported == pytest.approx(float(want.rsplit(" ", 1)[1]), rel=2e-3)
                continue
            norm, inverse = _torsion_inverse(avg_s)
            # a few ulps of the inverse's scale, times cond for the determinant
            tol = 8 * np.finfo(float).eps * cond
            assert abs(norm - want[0]) <= tol * want[0]
            assert np.max(np.abs(inverse - want[1])) <= tol * np.max(np.abs(want[1]))

    def test_two_by_two_gate_reads_both_singular_values(self):
        # sigma_min against 1e-12 sigma_max = 1e-9, on either side by 1 %,
        # in a rotated frame so that no entry is zero
        c, s_ = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s_], [s_, c]])
        for small, singular in ((0.99e-9, True), (1.01e-9, False)):
            avg_s = rot @ np.diag([1e3, small]) @ rot.T
            if singular:
                with pytest.raises(ValueError, match="singular: smallest singular value 9.9"):
                    _torsion_inverse(avg_s)
            else:
                assert _torsion_inverse(avg_s)[0] == pytest.approx(1 / small, rel=1e-3)

    @pytest.mark.parametrize("avg_s", [[[0.0, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]],
                                       [[0.0, -0.0], [5e-324, 2.0]], [[1.0, 2.0], [2.0, 4.0]]],
                             ids=["zero", "diagonal", "subnormal", "rank-one"])
    def test_singular_two_by_two_raises_as_lapack(self, avg_s):
        avg_s = np.array(avg_s)
        with pytest.raises(ValueError) as want:
            lapack_torsion(avg_s)
        with pytest.raises(solver_module.HypothesisError) as got:
            _torsion_inverse(avg_s)
        assert got.value.status == "torsion_singular"
        prefix = "averaged torsion <S> is singular: smallest singular value "
        assert str(got.value).startswith(prefix) and str(want.value).startswith(prefix)
        if avg_s[0, 1] == 0:  # LAPACK's sigma_min is exact here, and so is the closed form
            assert str(got.value) == str(want.value)
        else:  # both are round-off of sigma_max
            assert float(str(got.value).rsplit(" ", 1)[1]) <= 1e-15 * 5.0

    def test_two_by_two_outside_the_closed_form_stays_on_lapack(self):
        with pytest.raises(np.linalg.LinAlgError):
            _torsion_inverse(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        # entries from 2^1000 up, where sigma_max may pass the float range
        huge = np.array([[2.0**1000, 1.0], [-3.0, 2.0**1001]])
        self.same(_torsion_inverse(huge), lapack_torsion(huge))

    @pytest.mark.parametrize("n", [3, 4])
    def test_larger_torsion_stays_on_lapack(self, n):
        avg_s = np.random.default_rng(n).standard_normal((n, n))
        self.same(_torsion_inverse(avg_s), lapack_torsion(avg_s))
        singular = np.outer(np.arange(1.0, n + 1), np.ones(n))
        with pytest.raises(ValueError) as want:
            lapack_torsion(singular)
        with pytest.raises(ValueError) as got:
            _torsion_inverse(singular)
        assert str(got.value) == str(want.value)


def sheared_torus(n, shears, trunc_order=8):
    """Flat torus over T^n plus amp sin(2 pi theta_axis) / (2 pi) added to
    component row of K, for each (row, axis, amp) in shears."""
    K = TorusEmbedding.circle(np.full(n, 0.4), trunc_order=trunc_order)
    modes = {}
    for row, axis, amp in shears:
        k = tuple(int(j == axis) for j in range(n))
        modes.setdefault(k, np.zeros(2 * n, dtype=complex))[row] += (
            -1j * amp / (4 * np.pi)
        )
    return TorusEmbedding(K.winding, K.periodic + FourierMap(n, (2 * n,), modes,
                                                             trunc_order))


def dense_frame(dk):
    """M = [DK | J DK N] as one 2n x 2n matrix per grid point (reference)."""
    eye, zero = np.eye(dk.shape[-1]), np.zeros((dk.shape[-1],) * 2)
    j = np.block([[zero, eye], [-eye, zero]])
    gram = np.einsum("...ji,...jk->...ik", dk, dk)
    return np.concatenate(
        [dk, np.einsum("ij,...jk,...kl->...il", j, dk, np.linalg.inv(gram))],
        axis=-1,
    )


class TestBlockFrame:
    """The n x n block operators against the dense 2n x 2n frame."""

    # y1 = y0 + a sin(2 pi theta2)/(2 pi) with a fold in x1 (n = 2), and
    # rotators over T^3 and T^4 (the closed-form and the LAPACK inverses)
    # with shears that make C = I + L N L N non-scalar
    CASES = {
        "n2_shear": (2, [(2, 1, 0.7), (0, 0, 0.3)]),
        "n3_shear": (3, [(3, 1, 0.6), (4, 2, -0.5), (5, 0, 0.4), (0, 0, 0.3),
                         (1, 2, 0.2)]),
        "n4_shear": (4, [(4, 1, 0.6), (5, 2, -0.5), (6, 3, 0.4), (7, 0, 0.3),
                         (0, 0, 0.3), (1, 3, 0.2)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_operators_match_dense_frame(self, case):
        n, shears = self.CASES[case]
        dk = sheared_torus(n, shears).dk().synthesize()
        frame = AdaptedFrame.build(comp(dk))
        m = dense_frame(dk)
        xi = np.random.default_rng(3).standard_normal(dk.shape[:-2] + (2 * n,))
        assert np.max(np.abs(frame.lag)) > 0.1  # not Lagrangian: L != 0
        c = np.linalg.inv(grid(frame.c_inv))
        if n >= 3:
            assert np.max(np.abs(c - c[..., :1, :1] * np.eye(n))) > 1e-2
        got = (grid(frame.apply(comp(xi[..., :n], 1), comp(xi[..., n:], 1)), 1),
               grid(np.concatenate(frame.solve(comp(xi, 1))), 1),
               frame.abs_det)
        want = (np.einsum("...ij,...j->...i", m, xi),
                np.linalg.solve(m, xi[..., None])[..., 0], np.abs(np.linalg.det(m)))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lagrangian_frame_takes_c_as_identity(self, n):
        # shears of the x rows only: DK = [I + Dx; 0], so L = 0 exactly
        # while N varies; M^-1 still matches the dense frame
        shears = [(0, 0, 0.6), (1, n - 1, -0.3), (n - 1, 0, 0.2)][:n]
        dk = sheared_torus(n, shears).dk().synthesize()
        frame = AdaptedFrame.build(comp(dk))
        assert not frame.lag.any()
        assert frame.b is None and frame.c_inv is None
        assert np.all(frame.abs_det == 1.0)
        n_mat = grid(frame.n_mat)
        assert np.max(np.abs(n_mat - n_mat[:1, :1])) > 0.1  # N varies
        m = dense_frame(dk)
        xi = np.random.default_rng(4).standard_normal(dk.shape[:-2] + (2 * n,))
        got = grid(np.concatenate(frame.solve(comp(xi, 1))), 1)
        want = np.linalg.solve(m, xi[..., None])[..., 0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(np.abs(np.linalg.det(m)) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_inverse_matches_linalg(self, n):
        rng = np.random.default_rng(20 + n)
        a = rng.standard_normal((5, 7, n, n))
        a[0, 0] = np.roll(np.eye(n), 1, axis=0)  # a zero diagonal
        inv, abs_det = _inverse(comp(a))
        want = np.linalg.inv(a)
        assert np.max(np.abs(grid(inv) - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(abs_det / np.abs(np.linalg.det(a)) - 1.0)) <= 1e-12


class TestLagrangianDefect:
    def test_flat_circle_is_zero(self):
        K = TorusEmbedding.circle([0.3, 0.7], trunc_order=8)
        assert nondegeneracy(coupled_rotator(1e-3), K).lagrangian_defect == 0.0

    @pytest.mark.parametrize("case", ["pendulum", "circle", "sheared"])
    def test_defect_and_min_det_are_the_grid_reductions(self, solved_pendulum, case):
        # where L is exactly zero they are set to 0 and 1 without reducing
        if case == "pendulum":
            h, res = solved_pendulum
            nd = nondegeneracy(h, res.torus)
        else:
            K = (TorusEmbedding.circle([0.3, 0.7], trunc_order=8) if case == "circle"
                 else sheared_torus(2, [(2, 1, 0.25)]))
            nd = nondegeneracy(coupled_rotator(1e-3), K)
        assert (nd.frame.c_inv is None) is (case != "sheared")
        assert nd.lagrangian_defect == float(np.max(np.abs(nd.frame.lag)))
        assert nd.frame_min_det == float(np.min(nd.frame.abs_det))

    @pytest.mark.parametrize("a", [0.25, -0.05])
    def test_sheared_embedding_closed_form(self, a):
        # DK = [I; Dy] gives L = Dy - Dy^T, whose one entry a cos(2 pi theta2)
        # peaks at the grid point theta2 = 0
        K = sheared_torus(2, [(2, 1, a)])
        nd = nondegeneracy(coupled_rotator(1e-3), K)
        assert nd.lagrangian_defect == pytest.approx(abs(a), rel=1e-13)

    def test_solved_torus_is_lagrangian(self):
        omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])
        freq = FrequencyVector.estimated(omega, sigma=1.1, horizon=64)
        h = coupled_rotator(1e-3)
        res = solve_torus(h, TorusEmbedding.circle(omega, trunc_order=16), freq)
        assert res.converged
        steps = [row for row in res.trace if "lagrangian_defect" in row]
        assert len(steps) == res.iterations
        assert nondegeneracy(h, res.torus).lagrangian_defect <= 1e-9


def folded_torus(fold):
    """x1 = theta1 + fold sin(2 pi theta1) / (2 pi) over T^2 at M = 16:
    d x1 / d theta1 = 1 + fold cos(2 pi theta1), so gram = diag((dx1)^2, 1)."""
    K = TorusEmbedding.circle([0.0, 0.0], trunc_order=16)
    bump = np.zeros(4, dtype=complex)
    bump[0] = -1j * fold / (4 * np.pi)
    wave = FourierMap(2, (4,), {(1, 0): bump}, 16)
    return TorusEmbedding(K.winding, K.periodic + wave)


class TestFrameConditioning:
    def test_frame_cond_is_the_two_norm_condition_number(self):
        K = folded_torus(0.5)
        cond = nondegeneracy(coupled_rotator(1e-3), K).frame.cond
        dk = K.dk().synthesize()
        gram = np.swapaxes(dk, -1, -2) @ dk
        assert cond == pytest.approx(np.max(np.linalg.cond(gram)), rel=1e-12)
        theta = np.arange(33) / 33
        assert cond == pytest.approx(
            np.max(1 / (1 + 0.5 * np.cos(2 * np.pi * theta)) ** 2), rel=1e-12
        )

    def test_nearly_folded_frame_rejected(self):
        # dx1/dtheta1 = 1e-5 at theta1 = 16/33: cond(DK^T DK) = 1e10
        fold = (1e-5 - 1) / np.cos(2 * np.pi * 16 / 33)
        with pytest.raises(ValueError, match=r"DK rank-deficient on grid: "
                           r"cond\(DK\^T DK\) = 1\.0\d\de\+10"):
            nondegeneracy(coupled_rotator(1e-3), folded_torus(fold))

    def test_fold_rejected_before_any_division(self):
        # x1 = theta1 - sin(2 pi theta1)/(2 pi): dx1/dtheta1 = 0 at theta1 = 0,
        # so G is singular there and inverting it would divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"DK rank-deficient on grid: "
                               r"cond\(DK\^T DK\) = inf"):
                nondegeneracy(coupled_rotator(1e-3), folded_torus(-1.0))


def random_grams(rng, n, count, smallest):
    """Gram matrices a^T a of count random (2n, n) matrices a, the first
    column scaled by 10**u with u uniform in [smallest, 0]: (count, n, n)."""
    a = rng.standard_normal((count, 2 * n, n))
    a[:, :, 0] *= 10.0 ** rng.uniform(smallest, 0.0, (count, 1))
    return np.einsum("pji,pjk->pik", a, a)


class TestGramSpectrum:
    """Closed-form cond(G) for n <= 3 against np.linalg.cond, one matrix
    at a time."""

    @pytest.mark.parametrize("entries", [
        [1.0, 2.0, 1e-300], [5e-324, 1e300], [1.0, 0.0, 2.0], [1.0, -1.0],
        [-0.0], [1.0, np.nan], [1.0, np.inf], [np.inf, 0.0]])
    def test_one_by_one_is_the_grid_ratio(self, entries):
        # 1 where 0 < g < inf without a ratio array; else the ratio as before
        g = np.array(entries, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = float(np.max(np.where(g > 0, g / g, np.inf)))
        got = _gram_cond(g[None, None])
        assert got == want or (np.isnan(got) and np.isnan(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_linalg_cond(self, n):
        grams = random_grams(np.random.default_rng(n), n, 300, -2.0)
        want = np.linalg.cond(grams)
        keep = want <= 1e4
        assert keep.sum() > 250 and (n == 1 or want[keep].max() > 1e3)
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams[keep]])
        assert np.max(np.abs(got / want[keep] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_gate_decision_near_singular(self, n):
        # cond(G) from O(1) to about 1e12, straddling the gate at 1e8
        grams = random_grams(np.random.default_rng(10 + n), n, 200, -6.0)
        want = np.linalg.cond(grams)
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams])
        rejected = want > COND_DK_LIMIT
        assert 20 < rejected.sum() < 180 and np.any(want > 1e10)
        assert np.array_equal(got > COND_DK_LIMIT, rejected)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-4

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e4])
    def test_nearly_repeated_eigenvalues_read_one(self, monkeypatch, c):
        # cI plus a symmetric perturbation of 1e-14 relative, general or of
        # rank one (a double eigenvalue): the arccos argument of the n = 3
        # closed form leaves [-1, 1] in round-off, in about 1 case in 250
        # and 1 in 3 respectively; clipped, it needs no eigvalsh
        def unused(*args):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", unused)
        rng = np.random.default_rng(7)
        e = rng.standard_normal((600, 3, 3))
        v = rng.standard_normal((600, 3))
        grams = c * (np.eye(3) + 1e-14 * np.concatenate(
            [e + np.swapaxes(e, 1, 2), v[:, :, None] * v[:, None, :]]))
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - 1.0)) <= 1e-12
        flat = _gram_cond(comp(np.eye(3)[None, None] * c))
        assert flat == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def rotated(rng, eigenvalues):
        """Q diag(eigenvalues) Q^T for random rotations Q: (count, 3, 3)."""
        q = np.linalg.qr(rng.standard_normal((len(eigenvalues), 3, 3)))[0]
        return np.einsum("pij,pj,pkj->pik", q, eigenvalues, q)

    @pytest.mark.parametrize("double", ["top", "bottom"])
    def test_double_eigenvalue_costs_at_most_root_eps(self, double):
        # at a double eigenvalue the arccos argument is +-1 up to round-off,
        # where arccos turns an error e into sqrt(e): lambda_max and
        # lambda_max lambda_mid stay within a few sqrt(eps) ~ 1.5e-8
        rng = np.random.default_rng(8)
        d = rng.uniform(1.1, 1e3, 300)
        one = np.ones(300)
        lam = np.stack([one, d, d] if double == "top" else [one, one, d], 1)
        grams = self.rotated(rng, lam)
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams])
        assert np.max(np.abs(got / np.linalg.cond(grams) - 1.0)) <= 1e-7

    def test_gate_decision_at_a_double_small_eigenvalue(self):
        # eigenvalues (s, s, 1), s from 1e-6 to 1e-10: cond straddles the
        # gate, and the smallest is det G over lambda_max lambda_mid
        rng = np.random.default_rng(9)
        s = 10.0 ** rng.uniform(-10.0, -6.0, 200)
        grams = self.rotated(rng, np.stack([s, s, np.ones(200)], 1))
        want = np.linalg.cond(grams)
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams])
        rejected = want > COND_DK_LIMIT
        assert 20 < rejected.sum() < 180
        assert np.array_equal(got > COND_DK_LIMIT, rejected)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-4

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_singular_gram_rejected(self, rank):
        # det G and adj G are round-off where G has rank <= 1: such points
        # must still read a cond above the gate
        rng = np.random.default_rng(10 + rank)
        a = rng.standard_normal((50, 6, 3))
        a[:, :, rank:] = 0.0
        a = a @ np.linalg.qr(rng.standard_normal((50, 3, 3)))[0]
        grams = np.swapaxes(a, 1, 2) @ a
        got = np.array([_gram_cond(comp(g[None, None])) for g in grams])
        assert np.all(got > COND_DK_LIMIT)


class TestNewtonStep:
    def test_zero_error_is_fixed_point(self, golden_freq):
        h = HamiltonianModel.free_rotator(1)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        K_next, diag = newton_step(h, K, golden_freq)
        assert diag.correction_sup == 0.0
        assert K_next.periodic.allclose(K.periodic, 0.0)

    def test_pendulum_quadratic_contraction(self, golden_freq):
        eps = 1e-3
        h = HamiltonianModel.pendulum(eps)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        e0 = invariance_error(h, K, golden_freq).norm_grid
        value = Iterate.evaluate(h, K, golden_freq)
        K1, _ = newton_step(h, K, golden_freq, value)
        e1 = invariance_error(h, K1, golden_freq).norm_grid
        assert value.error.norm_grid == pytest.approx(e0)
        assert e1 <= 1e3 * e0**2
        assert np.allclose(value.frame.avg_s, [[-1.0]], atol=1e-10)
        # a step without a value evaluates the same one
        alone, _ = newton_step(h, K, golden_freq)
        assert np.array_equal(alone.periodic.half, K1.periodic.half)

    def test_first_step_matches_lindstedt(self, golden_freq):
        # first-order in eps: x(theta) = theta - eps sin(2 pi theta)/(2 pi w^2)
        eps = 1e-3
        h = HamiltonianModel.pendulum(eps)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        K1, _ = newton_step(h, K, golden_freq)
        theta = np.linspace(0, 1, 200, endpoint=False)[:, None]
        u = K1.periodic(theta)[:, 0] - K.periodic(theta)[:, 0]
        want = -eps / (2 * np.pi * GOLDEN**2) * np.sin(2 * np.pi * theta[:, 0])
        assert np.max(np.abs(u - want)) < 5 * eps**2


def status_from_rows(trace: list, tol: float) -> tuple[str, float]:
    """A solve's status and returned error, recomputed from its trace rows
    by the stopping rules alone: tol, two iterates in a row without
    progress below best - round_off, and the last row otherwise, where a
    blocked refinement of the last iterate reads truncation_capped."""
    best, stalls = np.inf, 0
    for row in trace:
        err = row["error"]
        stalls = 0 if err < best - row["round_off"] else stalls + 1
        best = min(best, err)
        if err <= tol:
            return "converged", err
    if trace[-1].get("refine_blocked"):
        return "truncation_capped", best
    if best < trace[0]["error"]:
        return "floored", best
    return ("diverged" if stalls >= 2 else "max_iter"), best


def order_from_decay(decay, m: int, cap: int, tol: float) -> int:
    """The order a refinement from m takes, from the peaks [[o1, a1],
    [o2, a2]] a row records as refine_decay.  With the per-order decay
    r = (a2 / a1)^(1 / (o2 - o1)), the order solves
    2 a2 r^(M' + 1 - o2) / (1 - r) = tol for M' in closed form, rounds up,
    clamps to [M + 1, min(2M, cap)] (min(2M, cap) where a2 >= a1) and
    takes the largest order of its grid within cap."""
    (o1, a1), (o2, a2) = decay
    top = new = min(2 * m, cap)
    if a2 < a1:
        new = m + 1  # a2 = 0: nothing is left past M
        if a2 > 0:
            log_r = np.log(a2 / a1) / (o2 - o1)
            need = o2 - 1 + np.log(tol * (1 - np.exp(log_r)) / (2 * a2)) / log_r
            new = int(min(max(np.ceil(need), m + 1), top))
    return min((sampling_size(new) - 1) // 2, cap)


def refinements_from_rows(trace: list, m0: int, cap: int, tol: float) -> list:
    """Each row's refinement, (blocked, order its step kept), recomputed
    from the rows alone.  Growth is wanted where tail_max is above
    round_off and tail_beyond exceeds tol, and blocked at M = cap; a row
    that grows records refine_decay, and no other row does, and its new
    order follows from it (order_from_decay).  The last row takes no
    step: its order is None."""
    order, out = m0, []
    for row in trace:
        wanted = row["tail_max"] > row["round_off"] and row["tail_beyond"] > tol
        blocked = wanted and order >= cap
        assert ("refine_decay" in row) == (wanted and not blocked)
        if wanted and not blocked:
            order = order_from_decay(row["refine_decay"], order, cap, tol)
        out.append((blocked, order if "correction" in row else None))
    return out


def assert_rows_recompute(res, m0: int, cap: int, tol: float) -> None:
    """Every row's refinement, order, grid and jets as its tail predicts."""
    got = [(row.get("refine_blocked", False), row.get("trunc_order"))
           for row in res.trace]
    assert got == refinements_from_rows(res.trace, m0, cap, tol)
    order = m0
    for row in res.trace:
        new = row.get("trunc_order", order)  # the last row keeps the order
        assert row["jets"] == (2 if new != order else 1)
        assert row["grid"] == sampling_size(new)
        order = new
    assert status_from_rows(res.trace, tol) == (res.status, res.error)


class TestSolveTorus:
    @pytest.mark.parametrize("eps, knobs, status", [
        (1e-3, {"tol": 1e-11}, "converged"),
        (1e-3, {"max_iter": 1}, "floored"),
        (1e-3, {"tol": 1e-17}, "floored"),
        (0.05, {}, "diverged"),
        (0.5, {"max_iter": 1}, "max_iter"),
        # at the cap a tail of round-off blocks nothing: still a floor
        (1e-3, {"tol": 1e-17, "max_trunc_order": 64}, "floored"),
    ])
    def test_every_evaluated_iterate_has_a_row(self, golden_freq, eps, knobs, status):
        # no row here is refined, so each records the defect the rules read
        h = HamiltonianModel.pendulum(eps)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        res = solve_torus(h, K0, golden_freq, **knobs)
        assert res.status == status
        assert [row["iter"] for row in res.trace] == list(range(res.iterations + 1))
        assert all(row["jets"] == 1 for row in res.trace)
        assert status_from_rows(res.trace, knobs.get("tol", 1e-12)) == (status, res.error)
        # the last row is the last iterate evaluated, not a stepped one
        assert "correction" not in res.trace[-1]
        assert all("correction" in row for row in res.trace[:-1])

    def test_capped_refinement_is_named(self):
        # the coupled rotator from the M = 8 circle under a cap of 8: each
        # iterate from the second step on has a tail above round-off whose
        # predicted mass past M exceeds tol, so the solve stalls near 6.0e-9
        # where it would otherwise refine
        freq = FrequencyVector.estimated(COUPLED_OMEGA, sigma=1.1, horizon=256)
        res = solve_torus(coupled_rotator(1e-3),
                          TorusEmbedding.circle(COUPLED_OMEGA, trunc_order=8),
                          freq, tol=1e-12, max_trunc_order=8)
        assert res.status == "truncation_capped" and not res.converged
        assert res.torus.trunc_order == 8
        assert res.error == pytest.approx(6.0e-9, rel=0.01)
        last = res.trace[-1]
        assert last["tail_max"] > last["round_off"] and last["tail_beyond"] > 1e-12
        assert [row.get("refine_blocked", False) for row in res.trace] == [
            False, False] + [True] * (res.iterations - 1)
        assert status_from_rows(res.trace, 1e-12) == (res.status, res.error)
        # a cap of 16 admits the growth from 8 to 10 at the second step and
        # from 10 to 16 at the third, and blocks the next, yet the solve
        # converges at 16: a converged solve is never capped
        wider = solve_torus(coupled_rotator(1e-3),
                            TorusEmbedding.circle(COUPLED_OMEGA, trunc_order=8),
                            freq, tol=1e-12, max_trunc_order=16)
        assert wider.converged and wider.torus.trunc_order == 16
        assert [row["trunc_order"] for row in wider.trace[:4]] == [8, 8, 10, 16]
        assert not any(row.get("refine_blocked") for row in wider.trace[:4])
        assert any(row.get("refine_blocked") for row in wider.trace)
        assert status_from_rows(wider.trace, 1e-12) == (wider.status, wider.error)

    def test_growth_reaches_a_cap_that_doubling_overshoots(self):
        # under a cap of 12 the order grows from 8 to 10 and then, where the
        # spectrum asks for more than 12, to the cap 12, on its grid of 25;
        # only growth wanted there is blocked
        freq = FrequencyVector.estimated(COUPLED_OMEGA, sigma=1.1, horizon=256)
        res = solve_torus(coupled_rotator(1e-3),
                          TorusEmbedding.circle(COUPLED_OMEGA, trunc_order=8),
                          freq, tol=1e-12, max_trunc_order=12)
        assert res.status == "truncation_capped"
        assert res.torus.trunc_order == 12
        assert [row["trunc_order"] for row in res.trace[:4]] == [8, 8, 10, 12]
        assert order_from_decay(res.trace[3]["refine_decay"], 10, 512, 1e-12) > 12
        assert [row["grid"] for row in res.trace[3:]] == [25] * (res.iterations - 2)
        assert [row.get("refine_blocked", False) for row in res.trace] == [
            False] * 4 + [True] * (res.iterations - 3)
        assert_rows_recompute(res, 8, 12, 1e-12)

    def test_exact_guess_converges_in_zero_steps(self, golden_freq):
        h = HamiltonianModel.free_rotator(1)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        res = solve_torus(h, K, golden_freq, tol=1e-13)
        assert res.converged
        assert res.iterations == 0
        assert res.error <= 1e-13

    def test_pendulum_converges_quickly(self, solved_pendulum):
        _, res = solved_pendulum
        assert res.converged
        assert res.iterations <= 5
        assert res.error <= 1e-11

    def test_trace_shows_quadratic_decay(self, solved_pendulum):
        _, res = solved_pendulum
        errs = [t["error"] for t in res.trace]
        assert len(errs) >= 3
        for a, b in zip(errs, errs[1:]):
            if b > 1e-13:
                assert b <= 1e3 * a**2

    def test_continuation_in_epsilon(self, solved_pendulum, golden_freq):
        _, res = solved_pendulum
        h2 = HamiltonianModel.pendulum(2e-3)
        res2 = solve_torus(h2, res.torus, golden_freq, tol=1e-11)
        assert res2.converged
        assert res2.iterations <= 4

    def test_plateau_stops_after_two_steps_without_progress(self, golden_freq):
        # a constant force c in -dH/dx is no Hamiltonian field: the defect's
        # normal average cannot be corrected, so it plateaus near c and then
        # moves only in its last bits, with no two consecutive increases
        res = solve_torus(ConstantForce(HamiltonianModel.pendulum(1e-3), 3e-7),
                          TorusEmbedding.circle(GOLDEN, trunc_order=32),
                          golden_freq, tol=1e-14, max_iter=12, max_trunc_order=32)
        errors = [row["error"] for row in res.trace]
        assert res.status == "floored"
        assert res.iterations <= 6
        assert errors[-1] == pytest.approx(3e-7, rel=0.01)
        assert res.error == min(errors)

    def test_creep_below_round_off_is_no_progress(self, monkeypatch, golden_freq):
        # from the third iterate on the defect falls by 1e-20 per step, far
        # below the round-off estimate 16 eps sup|J grad H| of about 2e-15
        creep = iter([1e-3, 1e-6] + [2e-10 - i * 1e-20 for i in range(20)])
        measured = solver_module.invariance_error

        def scripted(*args, **kwargs):
            err = measured(*args, **kwargs)
            return dataclasses.replace(err, norm_grid=next(creep))

        monkeypatch.setattr(solver_module, "invariance_error", scripted)
        res = solve_torus(HamiltonianModel.pendulum(1e-3),
                          TorusEmbedding.circle(GOLDEN, trunc_order=64),
                          golden_freq, tol=1e-14, max_iter=12, max_trunc_order=64)
        assert res.status == "floored"
        assert res.iterations == 4
        assert res.error == 2e-10 - 2e-20

    def test_unreachable_tolerance_returns_best(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        initial = invariance_error(h, K, golden_freq).norm_grid
        res = solve_torus(h, K, golden_freq, tol=1e-30, max_iter=4)
        assert not res.converged
        assert res.status in ("floored", "max_iter")
        assert res.error < initial

    @pytest.mark.parametrize("case, status, message", [
        # H = omega y + 1e-3 cos 2 pi x from y0 = 0: no twist, <S> = 0
        ("twistless", "torsion_singular",
         "averaged torsion <S> is singular: smallest singular value "),
        # a torus of winding 0 has DK = 0
        ("flat", "dk_rank_deficient", "DK rank-deficient on grid: cond(DK^T DK) = inf"),
    ])
    def test_failed_hypothesis_ends_with_its_status(self, golden_freq, case, status,
                                                   message):
        K0 = TorusEmbedding.circle(np.array([0.0]), trunc_order=16)
        h = HamiltonianModel(1, [((0,), (1,), GOLDEN), ((1,), (0,), 5e-4)])
        if case == "flat":  # the point x = 0, y = omega, which moves
            h = HamiltonianModel.pendulum(1e-3)
            K0 = TorusEmbedding(np.zeros((2, 1)),
                                TorusEmbedding.circle(GOLDEN, trunc_order=16).periodic)
        start = Iterate.evaluate(h, K0, golden_freq)
        res = solve_torus(h, K0, golden_freq, start=start)
        assert status in solver_module.HYPOTHESIS_STATUSES
        assert (res.status, res.iterations, res.value) == (status, 0, start)
        assert res.error == start.error.norm_grid > 1e-4
        [row] = res.trace
        assert row["hypothesis_failed"].startswith(message)
        assert status_from_rows(res.trace, 1e-12)[1] == res.error

    def test_resonant_divisor_ends_with_its_status(self):
        # omega = (1, 1 + 2^-49) is certified up to |k|_1 = 8, yet the
        # divisor of the (1, -1) mode that H couples lies below the guard,
        # so the first step's normal equation has no solution
        omega = np.array([1.0, 1.0 + 2.0**-49])
        freq = FrequencyVector.estimated(omega, 2.1, 8)
        h = HamiltonianModel(2, [((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5),
                                 ((1, -1), (0, 0), 1e-3)])
        K0 = TorusEmbedding.circle(omega, trunc_order=2)
        start = Iterate.evaluate(h, K0, freq)
        res = solve_torus(h, K0, freq, start=start)
        assert "resonant_divisor" in solver_module.HYPOTHESIS_STATUSES
        assert (res.status, res.iterations, res.value) == ("resonant_divisor", 0, start)
        assert res.error == start.error.norm_grid
        [row] = res.trace
        assert row["hypothesis_failed"] == ("resonant mode k = (1, -1): |k.omega| = "
                                            "1.776e-15 below 1e-14, equation is not "
                                            "solvable")
        assert status_from_rows(res.trace, 1e-12)[1] == res.error


def coupled_rotator(eps):
    """|y|^2/2 + eps (cos 2pi x1 + cos 2pi x2 + cos 2pi (x1 - x2))."""
    c = eps / 2.0
    terms = [
        ((0, 0), (2, 0), 0.5),
        ((0, 0), (0, 2), 0.5),
        ((1, 0), (0, 0), c),
        ((0, 1), (0, 0), c),
        ((1, -1), (0, 0), c),
    ]
    return HamiltonianModel(2, terms)


COUPLED_OMEGA = np.array([GOLDEN, np.sqrt(2.0) - 1.0])


def solve_coupled(eps, tol):
    """(H, frequency, result) of the coupled rotator solved from the flat
    M = 16 circle, refining up to the horizon's order."""
    freq = FrequencyVector.estimated(COUPLED_OMEGA, sigma=1.1, horizon=256)
    h = coupled_rotator(eps)
    K0 = TorusEmbedding.circle(COUPLED_OMEGA, trunc_order=16)
    return h, freq, solve_torus(h, K0, freq, tol=tol, max_trunc_order=freq.horizon)


def separable_pendula(eps):
    """sum_j y_j^2/2 + eps_j cos 2 pi x_j: one pendulum per angle."""
    n = len(eps)
    terms = []
    for j, e in enumerate(eps):
        unit = tuple(int(i == j) for i in range(n))
        terms += [((0,) * n, tuple(2 * u for u in unit), 0.5),
                  (unit, (0,) * n, e / 2.0)]
    return HamiltonianModel(n, terms)


def solve_separable(eps, omega, trunc_order):
    """solve_torus from the circle at omega on separable_pendula(eps)."""
    sigma = 1.1 if len(omega) < 3 else 2.1
    freq = FrequencyVector.estimated(np.asarray(omega), sigma=sigma, horizon=256)
    K0 = TorusEmbedding.circle(np.asarray(omega), trunc_order=trunc_order)
    return solve_torus(separable_pendula(eps), K0, freq, tol=1e-12)


def product_gaps(res, factors):
    """How far an n-D torus is from the product of n 1-D tori.

    The torus of a separable H is (x_j(theta_j), y_j(theta_j)) with each
    pair the 1-D torus of its factor; both solves start from the circle at
    phase zero, so the phase needs no fitting.  Returns the largest
    amplitude difference on the factor axes (k = k_j e_j, components x_j
    and y_j) and the largest amplitude off them (k with two or more
    nonzero entries, or a component of another factor).
    """
    n, m = len(factors), res.torus.trunc_order
    coeffs = res.torus.periodic.coeffs  # (2M+1,)*n + (2n,), k at k + M
    off = np.ones(coeffs.shape, dtype=bool)
    axis_gap = 0.0
    for j, factor in enumerate(factors):
        line = tuple(slice(None) if i == j else m for i in range(n))
        want = factor.torus.periodic.resized(m).coeffs  # (2M+1, 2)
        axis_gap = max(axis_gap, np.max(np.abs(coeffs[line][:, [j, n + j]] - want)))
        off[line + ([j, n + j],)] = False
    return axis_gap, np.max(np.abs(coeffs[off]))


class TestSeparableOracle:
    """A sum of 1-D pendula has the product of their tori as its torus: an
    oracle for n >= 2 that no n-D code computes."""

    OMEGA = [GOLDEN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.5]
    # n = 2 refines from M = 8, n = 3 from M = 4
    CASES = {2: ([5e-3, 4e-3], 8), 3: ([1e-3, 8e-4, 6e-4], 4)}

    @pytest.fixture(scope="class", params=[2, 3])
    def product(self, request):
        eps, m0 = self.CASES[request.param]
        omega = self.OMEGA[: request.param]
        res = solve_separable(eps, omega, m0)
        assert res.converged and res.torus.trunc_order > m0
        return eps, omega, m0, res

    def test_torus_is_the_product_of_the_factor_tori(self, product):
        eps, omega, m0, res = product
        factors = [solve_separable([e], [w], m0) for e, w in zip(eps, omega)]
        assert all(f.converged for f in factors)
        # the product's spectrum is the union of its factors' spectra, so
        # it grows to the order its most demanding factor grows to
        assert res.torus.trunc_order == max(f.torus.trunc_order for f in factors)
        axis_gap, off_axis = product_gaps(res, factors)
        assert axis_gap <= 1e-14
        assert off_axis <= 1e-13  # round-off against amplitudes up to 0.62

    def test_a_perturbed_factor_is_caught(self, product):
        eps, omega, m0, res = product
        eps = [eps[0] * 1.01] + eps[1:]
        factors = [solve_separable([e], [w], m0) for e, w in zip(eps, omega)]
        axis_gap, _ = product_gaps(res, factors)
        assert axis_gap > 1e-7


class TestLibrationOracle:
    """Libration tori of the pendulum H = y^2/2 + eps cos 2 pi x around
    x = 1/2: tori of winding 0, no graph over the angle, found without
    action-angle variables.  With phi = 2 pi x - pi the motion is
    phi'' = -4 pi^2 eps sin phi, whose libration of amplitude phi_max has
    frequency nu = pi sqrt(eps) / (2 K(m)), m = sin^2(phi_max / 2), and
    energy H = -eps cos phi_max: an elliptic-function oracle that no code
    of the solver computes."""

    EPS = 0.06
    TOL = 1e-10

    @staticmethod
    def oracle(eps, nu):
        """(A, phi_max) of the libration of frequency nu: x - 1/2 reaches
        A = phi_max / (2 pi)."""
        from scipy.optimize import brentq
        from scipy.special import ellipk

        m = brentq(lambda m: np.pi * np.sqrt(eps) / (2.0 * ellipk(m)) - nu,
                   0.0, 1.0 - 1e-12, xtol=1e-16)
        phi_max = 2.0 * np.arcsin(np.sqrt(m))
        return phi_max / (2.0 * np.pi), phi_max

    @classmethod
    def solve(cls, eps, nu):
        """solve_torus on the pendulum of eps from the harmonic guess of its
        libration of frequency nu at M = 32: x = 1/2 + A cos 2 pi theta,
        y = -2 pi nu A sin 2 pi theta, with A the oracle's."""
        A, _ = cls.oracle(eps, nu)
        modes = {(0,): np.array([0.5, 0.0]), (1,): np.array([A / 2, 1j * np.pi * nu * A])}
        K0 = TorusEmbedding(np.zeros((2, 1)), FourierMap(1, (2,), modes, trunc_order=32))
        freq = FrequencyVector.estimated([nu], 1.1, 256)
        return solve_torus(HamiltonianModel.pendulum(eps), K0, freq, tol=1e-12,
                           max_trunc_order=256)

    # measured: 4, 5 and 6 iterations, ending at M = 49, 62 and 115
    @pytest.fixture(scope="class", params=[4.0, 4.5, 6.0])
    def libration(self, request):
        nu = 1.0 / (request.param + GOLDEN)
        res = self.solve(self.EPS, nu)
        assert res.converged and res.torus.trunc_order > 32
        assert not res.torus.winding.any()
        z = res.torus(np.arange(2049)[:, None] / 2049)
        return nu, z

    def test_amplitude_and_energy_are_the_oracle_s(self, libration):
        nu, z = libration
        A, phi_max = self.oracle(self.EPS, nu)
        assert abs(z[:, 0].max() - 0.5 - A) <= self.TOL
        energy = HamiltonianModel.pendulum(self.EPS)(z)
        assert np.max(np.abs(energy + self.EPS * np.cos(phi_max))) <= self.TOL

    def test_a_perturbed_oracle_is_caught(self, libration):
        nu, z = libration
        A, _ = self.oracle(self.EPS * 1.001, nu)
        assert abs(z[:, 0].max() - 0.5 - A) > self.TOL


class TestLibrationRotationProduct:
    """A torus of winding rows [0 0; 0 1; 0 0; 0 0], no graph over T^2:
    on separable_pendula([0.06, 4e-3]) at omega = (nu, sqrt 2 - 1) it is
    the product of the first pendulum's libration of frequency nu and the
    second's rotation, each solved on its own."""

    EPS = [TestLibrationOracle.EPS, 4e-3]
    NU = 1.0 / (4.0 + GOLDEN)
    OMEGA = [NU, np.sqrt(2.0) - 1.0]

    # measured: 4 iterations, ending at M = 49
    @pytest.fixture(scope="class")
    def product(self):
        A, _ = TestLibrationOracle.oracle(self.EPS[0], self.NU)
        winding = np.zeros((4, 2))
        winding[1, 1] = 1.0
        # the libration's harmonic guess in (x1, y1), the circle in (x2, y2)
        modes = {(0, 0): np.array([0.5, 0.0, 0.0, self.OMEGA[1]]),
                 (1, 0): np.array([A / 2, 0.0, 1j * np.pi * self.NU * A, 0.0])}
        K0 = TorusEmbedding(winding, FourierMap(2, (4,), modes, trunc_order=32))
        freq = FrequencyVector.estimated(self.OMEGA, 1.1, 256)
        res = solve_torus(separable_pendula(self.EPS), K0, freq, tol=1e-12,
                          max_trunc_order=256)
        assert res.converged and res.torus.trunc_order > 32
        assert np.array_equal(res.torus.winding, winding)
        return res

    def factors(self, eps_libration):
        return [TestLibrationOracle.solve(eps_libration, self.NU),
                solve_separable(self.EPS[1:], self.OMEGA[1:], 32)]

    def test_torus_is_the_product_of_libration_and_rotation(self, product):
        factors = self.factors(self.EPS[0])
        assert all(f.converged for f in factors)
        axis_gap, off_axis = product_gaps(product, factors)
        assert axis_gap <= 1e-14  # measured 2.8e-17
        assert off_axis <= 1e-13  # measured 8.2e-15

    def test_a_perturbed_libration_is_caught(self, product):
        axis_gap, _ = product_gaps(product, self.factors(self.EPS[0] * 1.01))
        assert axis_gap > 1e-7  # measured 2.9e-3


class ConstantForce:
    """A model whose field gains the constant force -c in the first action."""

    def __init__(self, model, c):
        self.model, self.n, self.c = model, model.n, c

    def jet_batch(self, z):
        grad, hess = self.model.jet_batch(z)
        grad = grad.copy()
        grad[..., 0] += self.c
        return grad, hess


class JetCounter:
    """Delegates to a model and counts jet evaluations."""

    def __init__(self, model):
        self.model, self.n, self.calls = model, model.n, 0

    def jet_batch(self, z):
        self.calls += 1
        return self.model.jet_batch(z)


class TestDiophantineHorizon:
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])

    def test_refinement_stays_inside_horizon_at_n2(self):
        # refining past M = 32 would retain |k|_1 > 64 = horizon
        freq = FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)
        K0 = TorusEmbedding.circle(self.omega, trunc_order=16)
        res = solve_torus(coupled_rotator(1e-3), K0, freq, tol=1e-12)
        assert res.converged
        assert 2 * res.torus.trunc_order <= freq.horizon

    def test_k0_beyond_horizon_rejected_before_any_jet(self):
        freq = FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)
        h = JetCounter(coupled_rotator(1e-3))
        K0 = TorusEmbedding.circle(self.omega, trunc_order=33)
        with pytest.raises(ValueError, match=r"K0 truncation order 33 .* horizon 64"):
            solve_torus(h, K0, freq)
        assert h.calls == 0
        ok = solve_torus(h, K0.resized(32), freq, max_iter=0)
        assert h.calls > 0 and ok.iterations == 0

    def test_bare_array_refused_before_any_jet(self):
        # the Newton solve takes a certified frequency only
        h = JetCounter(coupled_rotator(1e-3))
        K0 = TorusEmbedding.circle(self.omega, trunc_order=8)
        with pytest.raises(TypeError, match="omega must be a FrequencyVector, got ndarray"):
            solve_torus(h, K0, self.omega)
        assert h.calls == 0


class TestOneEvaluationPerIterate:
    """solve_torus evaluates H once per iterate and shares frame and defect."""

    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])

    @pytest.fixture(scope="class")
    def coupled_freq(self):
        return FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)

    def cases(self, golden_freq, coupled_freq):
        """(model, K0, omega, refinement cap): n = 1 held at M = 8 (its
        third defect's tail predicts mass past M above tol, which would
        refine it), n = 2 refining once, 16 -> 22, below its horizon."""
        return [
            (HamiltonianModel.pendulum(5e-3),
             TorusEmbedding.circle(GOLDEN, trunc_order=8), golden_freq, 8),
            (coupled_rotator(1e-3),
             TorusEmbedding.circle(self.omega, trunc_order=16), coupled_freq, 512),
        ]

    def test_one_jet_per_iterate_plus_one_per_resize(
        self, monkeypatch, golden_freq, coupled_freq
    ):
        calls = []

        def counted(h, z):
            calls.append(z.shape)
            return jet_grid(h, z)

        monkeypatch.setattr(solver_module, "jet_grid", counted)
        resizes = []
        for h, K0, freq, cap in self.cases(golden_freq, coupled_freq):
            calls.clear()
            res = solve_torus(h, K0, freq, tol=1e-12, max_trunc_order=cap)
            assert res.converged and res.iterations >= 2
            orders = [K0.trunc_order] + [row["trunc_order"] for row in res.trace[:-1]]
            refinements = sum(a != b for a, b in zip(orders, orders[1:]))
            resizes.append(refinements)
            assert len(calls) == res.iterations + 1 + refinements
        assert resizes == [0, 1]

    def test_shared_step_matches_standalone_step(
        self, monkeypatch, golden_freq, coupled_freq
    ):
        steps = []

        def recorded(h, K, omega, value):
            out = newton_step(h, K, omega, value)
            steps.append((h, K, omega, value, out))
            return out

        monkeypatch.setattr(solver_module, "newton_step", recorded)
        for h, K0, freq, _ in self.cases(golden_freq, coupled_freq):
            steps.clear()
            res = solve_torus(h, K0, freq, tol=1e-12)
            assert res.converged and res.torus.trunc_order > K0.trunc_order
            assert len(steps) >= 2
            for h_i, K, omega, value, (shared, _) in steps:
                alone, _ = newton_step(h_i, K, omega)
                diff = np.max(np.abs(shared.periodic.coeffs - alone.periodic.coeffs))
                assert diff <= 1e-13
                # the value of this very iterate, also right after a resize
                assert value.K is K
                fresh = Iterate.evaluate(h_i, K, omega)
                assert value.error.norm_grid == fresh.error.norm_grid

    def test_frame_tensors_match_einsum_reference(self, coupled_freq):
        h = coupled_rotator(1e-3)
        K, _ = newton_step(h, TorusEmbedding.circle(self.omega, trunc_order=16),
                           coupled_freq)
        entries = jet_grid(h, K.grid_samples())[1]
        hess = dense_hessian(entries, K.grid_samples())
        dk = K.dk().synthesize(sampling_size(K.trunc_order))
        j = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0.0]])
        a = np.einsum("ij,...jk->...ik", j, hess)
        gram = np.einsum("...ji,...jk->...ik", dk, dk)
        n_mat = np.linalg.inv(gram)
        m = np.concatenate(
            [dk, np.einsum("ij,...jk,...kl->...il", j, dk, n_mat)], axis=-1
        )
        comm = a @ j - np.einsum("ij,...jk->...ik", j, a)
        s = n_mat @ np.einsum("...ji,...jk,...kl->...il", dk, comm, dk) @ n_mat
        nd = nondegeneracy(h, K, hess=entries)
        frame, got_s = nd.frame, nd.s
        xi = np.random.default_rng(5).standard_normal(dk.shape[:-2] + (4,))
        mat_vec = lambda mat, v: np.einsum("...ij,...j->...i", mat, v)  # noqa: E731
        got = (grid(frame.n_mat),
               grid(frame.apply(comp(xi[..., :2], 1), comp(xi[..., 2:], 1)), 1),
               grid(np.concatenate(frame.solve(comp(xi, 1))), 1),
               frame.abs_det, grid(got_s))
        want = (n_mat, mat_vec(m, xi), mat_vec(np.linalg.inv(m), xi),
                np.abs(np.linalg.det(m)), s)
        assert np.max(np.abs(dk - dk.mean(axis=(0, 1)))) > 1e-6  # DK varies
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))

    def test_frame_from_another_grid_rejected(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        size = sampling_size(16) + 2
        jet = jet_grid(h, K.grid_samples(size))
        value = Iterate(h, K, jet[1],
                        invariance_error(h, K, golden_freq, grid_size=size, jet=jet))
        with pytest.raises(ValueError, match="step value's grid does not match K's sampling grid"):
            newton_step(h, K, golden_freq, value)
        other = Iterate.evaluate(HamiltonianModel.pendulum(2e-3), K, golden_freq)
        with pytest.raises(ValueError, match="of another model or torus than the step's"):
            newton_step(h, K, golden_freq, other)


class TestStartValue:
    """solve_torus starts from a given Iterate and returns one."""

    def test_start_value_serves_the_first_iterate(self, monkeypatch, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        own = solve_torus(h, K0, golden_freq, tol=1e-12, rho=0.05)
        start = Iterate.evaluate(h, K0, golden_freq, rho=0.1)
        calls = []

        def counted(h, z):
            calls.append(z.shape)
            return jet_grid(h, z)

        monkeypatch.setattr(solver_module, "jet_grid", counted)
        res = solve_torus(h, K0, golden_freq, tol=1e-12, rho=0.05, start=start)
        # the start's norms are taken again at the solve's rho
        assert res.trace == own.trace
        assert len(calls) == res.iterations
        assert res.value.K is res.torus
        assert res.value.model is h
        assert res.value.error.norm_grid == res.error

    def test_returned_value_is_the_best_iterate(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        res = solve_torus(h, K, golden_freq, tol=1e-30, max_iter=6)
        assert res.status == "floored"
        assert res.value.error.norm_grid == res.error
        assert res.value.error.norm_grid == min(row["error"] for row in res.trace)

    @pytest.mark.parametrize("what", ["model", "torus", "grid"])
    def test_start_value_of_another_pair_rejected(self, golden_freq, what):
        h = HamiltonianModel.pendulum(1e-3)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        start = Iterate.evaluate(h, K0, golden_freq)
        if what == "model":
            start = Iterate.evaluate(HamiltonianModel.pendulum(2e-3), K0, golden_freq)
            match = "start value is of another model or torus"
        elif what == "torus":
            start = Iterate.evaluate(
                h, TorusEmbedding.circle(GOLDEN + 0.01, trunc_order=16), golden_freq)
            match = "start value is of another model or torus"
        else:
            size = sampling_size(16) + 2
            jet = jet_grid(h, K0.grid_samples(size))
            start = Iterate(h, K0, jet[1],
                            invariance_error(h, K0, golden_freq, grid_size=size, jet=jet))
            match = "grid does not match K0's sampling grid"
        with pytest.raises(ValueError, match=match):
            solve_torus(h, K0, golden_freq, start=start)

    def test_norms_at_another_rho_match_a_fresh_evaluation(self, solved_pendulum,
                                                           golden_freq):
        h, res = solved_pendulum
        K = res.torus
        value = Iterate.evaluate(h, K, golden_freq, rho=0.05)
        err = invariance_error(h, K, golden_freq, rho=0.02)
        nd = nondegeneracy(h, K)
        assert value.error.at(0.02).norm_rho == err.norm_rho
        assert value.error.at(0.05) is value.error
        assert value.frame.norms(0.02) == nd.norms(0.02)
        assert value.frame.norm_s_inv == nd.norm_s_inv
        assert value.frame is value.frame  # built once


class TestSamplingGrid:
    """Every iterate is sampled on sampling_size(M) points and analyzed at M."""

    def test_analyses_keep_the_iterate_order(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        err = invariance_error(h, K, golden_freq, grid_size=45)
        assert err.values.shape[0] == 45
        assert err.e.trunc_order == 16
        default = invariance_error(h, K, golden_freq)
        assert default.values.shape[0] == 33 and default.e.trunc_order == 16
        K1, _ = newton_step(h, K, golden_freq)
        assert K1.trunc_order == 16

    def test_solve_has_no_grid_knob(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        with pytest.raises(TypeError, match="grid_size"):
            solve_torus(h, K, golden_freq, grid_size=45)
        with pytest.raises(TypeError, match="grid_size"):
            newton_step(h, K, golden_freq, grid_size=45)
        with pytest.raises(TypeError, match="grid_size"):
            nondegeneracy(h, K, grid_size=45)

    def test_coupled_solve_to_64_on_fast_grids(self):
        # under a cap of 64 the order grows 16 -> 17 -> 37, each the largest
        # order of its grid (35, 75), and then to the cap 64 on the grid
        # of 135, which holds 67
        tol = 1e-12
        freq = FrequencyVector.estimated(COUPLED_OMEGA, sigma=1.1, horizon=256)
        h = coupled_rotator(2.2e-3)
        res = solve_torus(h, TorusEmbedding.circle(COUPLED_OMEGA, trunc_order=16),
                          freq, tol=tol, max_trunc_order=64)
        m = res.torus.trunc_order
        assert res.converged and m == 64
        grids = [row["grid"] for row in res.trace]
        orders = [row.get("trunc_order", m) for row in res.trace]
        assert grids == [sampling_size(order) for order in orders]
        assert sorted(set(orders)) == [16, 17, 37, 64]
        assert grids[-1] == 135
        for size in (2 * m + 1, 2 * ((3 * m) // 2) + 1):
            err = invariance_error(h, res.torus, freq, grid_size=size)
            assert err.norm_grid <= 10 * tol


class TestRefinementAboveRoundOff:
    """solve_torus grows M only on a tail above the iterate's round-off r."""

    tol = 1e-12

    @pytest.fixture(scope="class")
    def coupled_solve(self):
        return solve_coupled(1e-3, self.tol)

    def test_coupled_rotator_converges_at_32(self):
        # at eps 1.05e-3 and tol 1e-13 the order grows 16 -> 17 -> 32, and
        # the last iterate keeps a tail at M = 32, but only of round-off
        tol = 1e-13
        h, freq, res = solve_coupled(1.05e-3, tol)
        assert res.converged and res.torus.trunc_order == 32
        last = res.trace[-1]
        assert 0 < last["tail_max"] <= last["round_off"]
        fine = 2 * ((3 * 32) // 2) + 1
        err = invariance_error(h, res.torus, freq, grid_size=fine).norm_grid
        assert err <= 10 * tol

    def test_pendulum_stays_at_64(self, golden_freq):
        res = solve_torus(HamiltonianModel.pendulum(1e-3),
                          TorusEmbedding.circle(GOLDEN, trunc_order=64),
                          golden_freq, tol=self.tol)
        assert res.converged and res.torus.trunc_order == 64
        # the last defect is mostly tail block, and that tail is round-off
        last = res.trace[-1]
        assert last["tail_sum"] > 0.5 * last["error"]
        assert 0 < last["tail_max"] <= last["round_off"]

    def test_genuine_tail_still_resizes(self, coupled_solve):
        _, _, res = coupled_solve
        row = res.trace[3]
        assert row["tail_max"] > 100 * row["round_off"]
        assert [r.get("trunc_order") for r in res.trace[:4]] == [16, 16, 16, 22]

    def test_trace_rows_record_the_refinement_decision(self, coupled_solve):
        # each row holds what decided its refinement: a tail above
        # round-off (tail_max > round_off) whose predicted mass past M,
        # tail_beyond, exceeds tol, and the order its spectrum asks for
        _, freq, res = coupled_solve
        _, _, held_at_16 = solve_coupled(5.6e-4, self.tol)
        _, _, grown = solve_coupled(2e-3, self.tol)
        held = 0
        for solved in (res, held_at_16, grown):
            assert len(solved.trace) == solved.iterations + 1
            for row in solved.trace:
                assert row["round_off"] > 0 and row["tail_max"] >= 0
                assert row["tail_sum"] >= row["tail_max"]
                held += (row["tail_max"] > row["round_off"]
                         and row["tail_beyond"] <= self.tol)
            assert_rows_recompute(solved, 16, freq.horizon // 2, self.tol)
        assert held  # a tail above round-off predicting no mass past M kept its order
        # growth to orders that are no powers of two: the first order whose
        # extrapolated tail meets tol, raised to the largest of its grid
        assert [row.get("trunc_order") for row in grown.trace] == [
            16, 16, 17, 37, 58, None]


    def test_refining_rows_record_the_decay_they_read(self):
        # each row that grows M records the peaks [[o1, a1], [o2, a2]] of
        # d_omega K in the two halves of its tail block, and its new order
        # follows from them alone, also after a JSON round trip
        _, freq, res = solve_coupled(2e-3, self.tol)
        order, grown = 16, []
        for row in (json.loads(json.dumps(row)) for row in res.trace):
            new = row.get("trunc_order", order)
            assert ("refine_decay" in row) == (new != order)
            if new != order:
                (o1, a1), (o2, a2) = row["refine_decay"]
                assert order / 2 < o1 <= 3 * order / 4 < o2 <= order and a1 > 0
                assert order_from_decay(row["refine_decay"], order,
                                        freq.horizon // 2, self.tol) == new
                grown.append(new)
            order = new
        assert grown == [17, 37, 58]

    def test_trace_rows_record_grid_and_jets(self, coupled_solve):
        _, _, res = coupled_solve
        order = 16
        for row in res.trace:
            new = row.get("trunc_order", order)  # the final row keeps the order
            assert row["jets"] == (2 if new > order else 1)
            assert row["grid"] == sampling_size(new)
            order = new
        assert {row["grid"] for row in res.trace} == {33, 45}
        assert [row["jets"] for row in res.trace].count(2) == 1
        # one jet per iterate plus one per resize, as solve_torus takes them
        assert sum(row["jets"] for row in res.trace) == res.iterations + 2


class TestRefinementAboveTol:
    """solve_torus grows M only on a tail above round-off whose
    tail_beyond, the strip norm's predicted mass past M, exceeds tol."""

    @staticmethod
    def fine_errors(h, freq, res):
        """The defect on the 2M+1 grid and on the 1.5x grid."""
        m = res.torus.trunc_order
        return [invariance_error(h, res.torus, freq, grid_size=size).norm_grid
                for size in (2 * m + 1, 2 * ((3 * m) // 2) + 1)]

    def test_tail_below_tol_steps_at_16(self):
        # iterate 2 has a tail above round-off (tail_max 2.6e-10 > r) of
        # tail_sum 1.1e-9 > tol, yet its spectrum predicts 7e-14 past M = 16,
        # so it steps at 16; iterate 3 refines to 22, where the solve converges
        tol = 1e-12
        h, freq, res = solve_coupled(1e-3, tol)
        assert res.converged and res.iterations == 4
        assert res.torus.trunc_order == 22
        row = res.trace[2]
        assert row["tail_max"] > row["round_off"] and row["tail_sum"] > tol
        assert row["tail_beyond"] < tol and row["trunc_order"] == 16
        assert max(self.fine_errors(h, freq, res)) <= 10 * tol

    def test_tail_above_tol_refines(self):
        # iterate 2 predicts between 1e-13 and 1e-12 past M = 16: the
        # tighter tol refines there, to 17 and then 32, the looser one only
        # at iterate 3, to 22
        _, _, res = solve_coupled(1.05e-3, 1e-13)
        _, _, loose = solve_coupled(1.05e-3, 1e-12)
        assert res.converged and res.torus.trunc_order == 32
        assert loose.converged and loose.torus.trunc_order == 22
        assert 1e-13 < res.trace[2]["tail_beyond"] == loose.trace[2]["tail_beyond"] < 1e-12
        assert (res.trace[2]["trunc_order"], loose.trace[2]["trunc_order"]) == (17, 16)

    @pytest.mark.parametrize("eps", [3e-4, 6e-4, 1e-3, 1.5e-3, 2e-3])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_every_solve_meets_tol_on_fine_grids(self, eps, tol):
        h, freq, res = solve_coupled(eps, tol)
        assert res.converged
        assert max(self.fine_errors(h, freq, res)) <= 10 * tol


def two_block_norm(m, head, tail):
    """The strip norm at rho = 0 of a 1-D map of order m with amplitude
    head at k = 0 and its tail block holding tail at k = m (a mode k > 0
    stands for its conjugate too, so it counts twice)."""
    return FourierMap(1, (), {(0,): head, (m,): tail / 2}, trunc_order=m).strip_norm(0.0)


def spectrum_torus(amplitudes, omega) -> TorusEmbedding:
    """A torus over T^n whose d_omega K has amplitude amplitudes(k) at each
    k != 0 (in its first angle component, the others zero): its spectrum
    holds amplitudes(k) / |2 pi k.omega|.  amplitudes is a dict {k: a}."""
    omega = np.asarray(omega, dtype=float)
    n = omega.size
    modes = {}
    for k, a in amplitudes.items():
        amp = np.zeros(2 * n)
        amp[0] = a / abs(2 * np.pi * np.dot(k, omega))
        modes[k] = amp
    m = max(max(abs(x) for x in k) for k in amplitudes)
    return TorusEmbedding(np.vstack([np.eye(n), np.zeros((n, n))]),
                          FourierMap(n, (2 * n,), modes, m))


def dropped_defect(K: TorusEmbedding, omega, order: int) -> float:
    """The defect the modes of K past order leave: the coefficient sum of
    d_omega K over |k|_inf > order, each mode with its conjugate."""
    d = K.periodic.directional(np.asarray(omega, dtype=float))
    return d.strip_norm(0.0).value - d.resized(order).strip_norm(0.0).value


def grid_order(order: int) -> int:
    """The largest order the sampling grid of order holds."""
    return (sampling_size(order) - 1) // 2


class TestRefinedOrder:
    """_grown_order on torus spectra of known decay: d_omega K with
    amplitude c r^|k| across the tail block of M = 16 peaks at 9 and 13."""

    M, R = 16, 2.0**-1.25
    OMEGA = [GOLDEN]

    def torus(self, amplitude):
        return spectrum_torus({(k,): amplitude(k) for k in range(1, self.M + 1)},
                              self.OMEGA)

    def shells(self, amplitude):
        return _tail_shells(self.torus(amplitude), self.OMEGA)

    def test_tail_beyond_extends_the_decay_by_one_block(self):
        assert two_block_norm(16, 1.0, 2.0**-10).tail_beyond == 2.0**-20
        assert two_block_norm(16, 0.0, 1e-3).tail_beyond == np.inf  # no head
        assert two_block_norm(16, 1.0, 0.0).tail_beyond == 0.0

    # with c = (1 - r) / (2r) the modes past M' leave 2 c r^(M'+1) / (1 - r)
    # = 2^(-1.25 M'): 9.5e-7 at 16, 4.0e-7 at 17, 2.2e-9 at 23, 9.3e-10 at
    # 24, 7.1e-8 at 19 and 3.0e-8 at 20, and 1e-30 needs M' = 80
    @pytest.mark.parametrize("tol, cap, want", [
        (1e-3, 512, 17),   # M' <= M: clamped to M + 1, on the grid of 35
        (5e-7, 512, 17),   # M' = 17 on its own
        (1e-9, 512, 24),   # M' = 24, which the grid of 49 holds
        (5e-8, 512, 22),   # M' = 20 has the grid of 45, which holds 22
        (5e-8, 21, 21),    # ... and no more than the cap
        (1e-30, 512, 32),  # at most 2M
        (1e-30, 24, 24),   # at most the cap
        (1e-30, 23, 23),   # the grid of 23 is 49, which holds 24: cap
    ])
    def test_order_from_a_geometric_tail(self, tol, cap, want):
        r = self.R
        c = (1 - r) / (2 * r)
        shells = self.shells(lambda k: c * r**k)
        assert [o for o, _ in shells] == [9, 13]
        assert shells[1][1] == pytest.approx(c * r**13, rel=1e-13)
        assert _grown_order(shells, self.M, cap, tol) == want

    @pytest.mark.parametrize("q, cap, want", [
        (1.0, 512, 32), (2.0, 512, 32), (2.0, 20, 20), (np.inf, 512, 32)])
    def test_no_decay_takes_the_largest_step(self, q, cap, want):
        # the second shell's peak q times the first's, or nothing in the
        # first shell for q = inf: min(2M, cap) whatever tol
        if q == np.inf:
            shells = self.shells(lambda k: 1.0 if k > 12 else 0.0)
            assert shells[0][1] == 0.0
        else:
            shells = self.shells(lambda k: {9: 1e-6, 13: q * 1e-6}.get(k, 0.0))
            assert shells[1][1] == pytest.approx(q * shells[0][1], rel=1e-13)
        assert _grown_order(shells, self.M, cap, 1e-3) == want

    def test_nothing_past_the_first_shell_takes_one_more_order(self):
        shells = self.shells(lambda k: 1e-3 if k <= 12 else 0.0)
        assert shells[1][1] == 0.0
        assert _grown_order(shells, self.M, 512, 1e-30) == grid_order(17)

    @pytest.mark.parametrize("r", [0.2, 0.3, 0.4])
    def test_order_tracks_a_geometric_spectrum(self, r):
        # K with amplitudes r^|k| to order 128, cut at M = 16: the order
        # read from the cut torus is, before the raise to its grid, within
        # one of the least order whose dropped modes leave a defect <= tol
        tol = 1e-10
        full = TorusEmbedding(np.array([[1.0], [0.0]]), FourierMap(
            1, (2,), {(k,): [r**k, 0.0] for k in range(1, 129)}, trunc_order=128))
        got = _grown_order(_tail_shells(full.resized(16), self.OMEGA), 16, 512, tol)
        least = next(m for m in range(129)
                     if dropped_defect(full, self.OMEGA, m) <= tol)
        assert 16 < least <= 32
        assert got in {grid_order(m) for m in (least - 1, least, least + 1)}

    @pytest.mark.parametrize("r, tol", [(0.2, 1e-12), (0.3, 1e-11), (0.4, 1e-9)])
    def test_order_tracks_a_spectrum_on_the_two_torus(self, r, tol):
        # the same on T^2, with amplitudes r^|k|_1 to |k|_inf = 40
        omega = COUPLED_OMEGA
        modes = {k: np.full(4, r ** (abs(k[0]) + abs(k[1])))
                 for k in itertools.product(range(-40, 41), range(41)) if any(k)}
        full = TorusEmbedding(np.vstack([np.eye(2), np.zeros((2, 2))]),
                              FourierMap(2, (4,), modes, 40))
        got = _grown_order(_tail_shells(full.resized(16), omega), 16, 512, tol)
        least = next(m for m in range(41) if dropped_defect(full, omega, m) <= tol)
        assert 16 < least <= 32
        assert got in {grid_order(m) for m in (least - 1, least, least + 1)}


def padded_at_order(self, trunc_order):
    """_at_order copying the stored half through np.pad at every order, the
    same one too: k_1..k_{n-1} pad on both sides, k_n >= 0 on one."""
    n, m = self.dim_domain, self.trunc_order
    if trunc_order >= m:
        d = trunc_order - m
        pad = [(d, d)] * (n - 1) + [(0, d)] + [(0, 0)] * len(self.range_shape)
        return np.pad(self.half, pad)
    cut = slice(m - trunc_order, m + trunc_order + 1)
    return self.half[(cut,) * (n - 1) + (slice(trunc_order + 1),)]


def padded_directional(self, omega):
    """TorusEmbedding.directional adding the winding term as an M = 0 map."""
    om = np.asarray(getattr(omega, "omega", omega), dtype=float)
    const = FourierMap(self.dim_domain, (self.dim_range,),
                       {(0,) * self.dim_domain: self.winding @ om})
    return self.periodic.directional(om) + const


class TestEqualOrderAlgebra:
    """Maps of equal truncation order add without an np.pad copy."""

    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])

    def test_newton_step_pads_nothing_and_keeps_k(self, monkeypatch):
        freq = FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)
        h = coupled_rotator(1e-3)
        K, _ = newton_step(h, TorusEmbedding.circle(self.omega, trunc_order=16),
                           freq)
        pads = []
        pad = np.pad

        def counted(*args, **kwargs):
            pads.append(1)
            return pad(*args, **kwargs)

        monkeypatch.setattr(np, "pad", counted)
        got, _ = newton_step(h, K, freq)
        assert pads == []
        monkeypatch.setattr(FourierMap, "_at_order", padded_at_order)
        monkeypatch.setattr(TorusEmbedding, "directional", padded_directional)
        want, _ = newton_step(h, K, freq)
        assert pads  # the padding reference did pad
        assert got.trunc_order == K.trunc_order
        assert np.array_equal(got.periodic.half, want.periodic.half)

    def test_same_order_resize_shares_coefficients(self):
        f = FourierMap(2, (2,), {(1, -1): [1.0, 2j]}, trunc_order=3)
        assert f.resized(3).half is f.half
        assert not f.resized(3).half.flags.writeable
