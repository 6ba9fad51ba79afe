"""Invariance defect, adapted-frame data and the quasi-Newton iteration."""

import dataclasses
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
    flow,
    invariance_error,
    newton_step,
    nondegeneracy,
    solve_torus,
)
from kamtori.fourier import sampling_size
from kamtori.hamiltonian import jet_grid, symplectic_matrix
from kamtori.solver import (
    COND_DK_LIMIT, AdaptedFrame, _frame_tensors, _gram_cond, _solve,
)

from conftest import GOLDEN


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
        assert np.max(np.abs(nd.s_map(theta) + 1.0)) < 1e-12

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
    j = symplectic_matrix(dk.shape[-1])
    gram = np.einsum("...ji,...jk->...ik", dk, dk)
    return np.concatenate(
        [dk, np.einsum("ij,...jk,...kl->...il", j, dk, np.linalg.inv(gram))],
        axis=-1,
    )


class TestBlockFrame:
    """The n x n block operators against the dense 2n x 2n frame."""

    # y1 = y0 + a sin(2 pi theta2)/(2 pi) with a fold in x1 (n = 2), and a
    # rotator over T^3 with shears that make C = I + L N L N non-scalar
    CASES = {
        "n2_shear": (2, [(2, 1, 0.7), (0, 0, 0.3)]),
        "n3_shear": (3, [(3, 1, 0.6), (4, 2, -0.5), (5, 0, 0.4), (0, 0, 0.3),
                         (1, 2, 0.2)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_operators_match_dense_frame(self, case):
        n, shears = self.CASES[case]
        dk = sheared_torus(n, shears).dk().synthesize()
        frame, _ = AdaptedFrame.build(comp(dk))
        m = dense_frame(dk)
        xi = np.random.default_rng(3).standard_normal(dk.shape[:-2] + (2 * n,))
        assert np.max(np.abs(frame.lag)) > 0.1  # not Lagrangian: L != 0
        c = np.linalg.inv(grid(frame.c_inv))
        if n == 3:
            assert np.max(np.abs(c - c[..., :1, :1] * np.eye(n))) > 1e-2
        got = (grid(frame.apply(comp(xi[..., :n], 1), comp(xi[..., n:], 1)), 1),
               grid(np.concatenate(frame.solve(comp(xi, 1))), 1),
               frame.abs_det)
        want = (np.einsum("...ij,...j->...i", m, xi),
                np.linalg.solve(m, xi[..., None])[..., 0], np.abs(np.linalg.det(m)))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_elimination_matches_linalg_solve(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((5, 7, n, n))
        a[:, :3, 0, 0] = 0.0  # a zero leading pivot needs a row swap
        # a cyclic permutation: every column's pivot sits below the diagonal
        a[0, 0] = np.roll(np.eye(n), 1, axis=0)
        b = rng.standard_normal((5, 7, n, 3))
        x, abs_det = _solve(comp(a), comp(b))
        x = grid(x)
        want = np.linalg.solve(a, b)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(abs_det / np.abs(np.linalg.det(a)) - 1.0)) <= 1e-12
        inv, _ = _solve(comp(a), np.eye(n))
        inv = grid(inv)
        assert np.max(np.abs(inv - np.linalg.inv(a))) <= 1e-12 * np.max(
            np.abs(np.linalg.inv(a))
        )


class TestLagrangianDefect:
    def test_flat_circle_is_zero(self):
        K = TorusEmbedding.circle([0.3, 0.7], trunc_order=8)
        assert nondegeneracy(coupled_rotator(1e-3), K).lagrangian_defect == 0.0

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
    def test_cond_dk_is_the_two_norm_condition_number(self):
        K = folded_torus(0.5)
        nd = nondegeneracy(coupled_rotator(1e-3), K)
        dk = K.dk().synthesize()
        gram = np.swapaxes(dk, -1, -2) @ dk
        assert nd.cond_dk == pytest.approx(np.max(np.linalg.cond(gram)), rel=1e-12)
        theta = np.arange(33) / 33
        assert nd.cond_dk == pytest.approx(
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
    """Closed-form cond(G) for n <= 2 (eigvalsh for n >= 3) against
    np.linalg.cond, one matrix at a time."""

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
        K1, diag = newton_step(h, K, golden_freq)
        e1 = invariance_error(h, K1, golden_freq).norm_grid
        assert diag.error_before == pytest.approx(e0)
        assert e1 <= 1e3 * e0**2
        assert np.allclose(diag.torsion_average, [[-1.0]], atol=1e-10)

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


class TestSolveTorus:
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

    def test_invariance_under_the_flow(self, solved_pendulum, golden_freq):
        h, res = solved_pendulum
        K = res.torus
        rng = np.random.default_rng(71)
        theta = rng.random((10, 1))
        z0 = K(theta)
        z1 = flow(h, z0, 1.0, step=1e-4)
        want = K(theta + GOLDEN)
        assert np.max(np.abs(z1 - want)) < 1e-8

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


class ConstantForce:
    """A model whose field gains the constant force -c in the first action."""

    def __init__(self, model, c):
        self.model, self.n, self.c = model, model.n, c

    def jet_batch(self, z):
        value, grad, hess = self.model.jet_batch(z)
        grad = grad.copy()
        grad[..., 0] += self.c
        return value, grad, hess


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
        # refining to M = 64 would retain |k|_1 = 128 > horizon
        freq = FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)
        K0 = TorusEmbedding.circle(self.omega, trunc_order=16)
        res = solve_torus(coupled_rotator(1e-3), K0, freq, tol=1e-12,
                          max_trunc_order=freq.horizon)
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


class TestOneEvaluationPerIterate:
    """solve_torus evaluates H once per iterate and shares frame and defect."""

    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])

    @pytest.fixture(scope="class")
    def coupled_freq(self):
        return FrequencyVector.estimated(self.omega, sigma=1.1, horizon=64)

    def cases(self, golden_freq, coupled_freq):
        """(model, K0, omega, refinement cap): n = 1 held at M = 8 (its first
        defect has a tail above round-off, which would refine it), n = 2
        refining 16 -> 32 up to its horizon."""
        return [
            (HamiltonianModel.pendulum(1e-3),
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
            refinements = int(np.log2(res.torus.trunc_order // K0.trunc_order))
            resizes.append(refinements)
            assert len(calls) == res.iterations + 1 + refinements
        assert resizes == [0, 1]

    def test_shared_step_matches_standalone_step(
        self, monkeypatch, golden_freq, coupled_freq
    ):
        steps = []

        def recorded(h, K, omega, *args, **kwargs):
            out = newton_step(h, K, omega, *args, **kwargs)
            steps.append((h, K, omega, out))
            return out

        monkeypatch.setattr(solver_module, "newton_step", recorded)
        for h, K0, freq, _ in self.cases(golden_freq, coupled_freq):
            steps.clear()
            res = solve_torus(h, K0, freq, tol=1e-12)
            assert res.converged and res.torus.trunc_order > K0.trunc_order
            assert len(steps) >= 2
            for h_i, K, omega, (shared, shared_diag) in steps:
                alone, diag = newton_step(h_i, K, omega)
                diff = np.max(np.abs(shared.periodic.coeffs - alone.periodic.coeffs))
                assert diff <= 1e-13
                # the defect of this very iterate, also right after a resize
                assert shared_diag.error_before == diag.error_before

    def test_frame_tensors_match_einsum_reference(self, coupled_freq):
        h = coupled_rotator(1e-3)
        K, _ = newton_step(h, TorusEmbedding.circle(self.omega, trunc_order=16),
                           coupled_freq)
        _, _, hess = jet_grid(h, K.grid_samples())
        dk = K.dk().synthesize()
        j = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0.0]])
        a = np.einsum("ij,...jk->...ik", j, hess)
        gram = np.einsum("...ji,...jk->...ik", dk, dk)
        n_mat = np.linalg.inv(gram)
        m = np.concatenate(
            [dk, np.einsum("ij,...jk,...kl->...il", j, dk, n_mat)], axis=-1
        )
        comm = a @ j - np.einsum("ij,...jk->...ik", j, a)
        s = n_mat @ np.einsum("...ji,...jk,...kl->...il", dk, comm, dk) @ n_mat
        frame, got_s, got_gram = _frame_tensors(comp(hess), comp(dk))
        xi = np.random.default_rng(5).standard_normal(dk.shape[:-2] + (4,))
        mat_vec = lambda mat, v: np.einsum("...ij,...j->...i", mat, v)  # noqa: E731
        got = (grid(frame.n_mat),
               grid(frame.apply(comp(xi[..., :2], 1), comp(xi[..., 2:], 1)), 1),
               grid(np.concatenate(frame.solve(comp(xi, 1))), 1),
               frame.abs_det, grid(got_s), grid(got_gram))
        want = (n_mat, mat_vec(m, xi), mat_vec(np.linalg.inv(m), xi),
                np.abs(np.linalg.det(m)), s, gram)
        assert np.max(np.abs(dk - dk.mean(axis=(0, 1)))) > 1e-6  # DK varies
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))

    def test_frame_from_another_grid_rejected(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        nd = nondegeneracy(h, K, grid_size=K.periodic.grid_size + 2)
        with pytest.raises(ValueError, match="does not match the step's grid"):
            newton_step(h, K, golden_freq, nd)


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
            start = Iterate(h, K0, jet,
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
        nd = nondegeneracy(h, K, rho=0.02)
        assert value.error.at(0.02).norm_rho == err.norm_rho
        assert value.error.at(0.05) is value.error
        again = value.frame_at(0.02)
        assert (again.norm_n, again.norm_dk, again.norm_s_inv) == (
            nd.norm_n, nd.norm_dk, nd.norm_s_inv)
        assert value.frame is value.frame  # built once


class TestSamplingGrid:
    """Every iterate is sampled on sampling_size(M) points and analyzed at M."""

    def test_analyses_keep_the_iterate_order(self, golden_freq):
        h = HamiltonianModel.pendulum(1e-3)
        K = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        err = invariance_error(h, K, golden_freq, grid_size=45)
        nd = nondegeneracy(h, K, grid_size=45)
        assert err.values.shape[0] == nd.frame.dk.shape[-1] == 45
        assert err.e.trunc_order == nd.n_map.trunc_order == 16
        assert nd.s_map.trunc_order == 16
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

    def test_coupled_solve_to_64_on_fast_grids(self):
        tol = 1e-12
        h, freq, res = solve_coupled(1.2e-3, tol)
        m = res.torus.trunc_order
        assert res.converged and m == 64
        grids = [row["grid"] for row in res.trace]
        orders = [row.get("trunc_order", m) for row in res.trace]
        assert grids == [sampling_size(order) for order in orders]
        assert grids[-1] == 135
        for size in (2 * m + 1, 2 * ((3 * m) // 2) + 1):
            err = invariance_error(h, res.torus, freq, grid_size=size)
            assert err.norm_grid <= 10 * tol


class TestRefinementAboveRoundOff:
    """solve_torus doubles M only on a tail above the iterate's round-off r."""

    tol = 1e-12

    @pytest.fixture(scope="class")
    def coupled_solve(self):
        return solve_coupled(5.6e-4, self.tol)

    def test_coupled_rotator_converges_at_32(self, coupled_solve):
        # from iterate 3 on the tail trips at M = 32, but only with round-off
        h, freq, res = coupled_solve
        assert res.converged and res.torus.trunc_order == 32
        fine = 2 * ((3 * 32) // 2) + 1
        err = invariance_error(h, res.torus, freq, grid_size=fine).norm_grid
        assert err <= 10 * self.tol

    def test_pendulum_stays_at_64(self, golden_freq):
        res = solve_torus(HamiltonianModel.pendulum(1e-3),
                          TorusEmbedding.circle(GOLDEN, trunc_order=64),
                          golden_freq, tol=self.tol)
        assert res.converged and res.torus.trunc_order == 64
        assert any(row["tail_flag"] for row in res.trace)  # round-off tripped it

    def test_genuine_tail_still_resizes(self, coupled_solve):
        _, _, res = coupled_solve
        row = res.trace[2]
        assert row["tail_flag"] and row["tail_max"] > 100 * row["round_off"]
        assert [r.get("trunc_order") for r in res.trace[:3]] == [16, 16, 32]

    def test_trace_rows_record_the_refinement_decision(self, coupled_solve):
        # each row holds what decided its refinement: a genuine tail
        # (tail_flag, tail_max > round_off) whose tail_sum exceeds tol
        _, freq, res = coupled_solve
        _, _, below_tol = solve_coupled(1e-3, self.tol)
        held = 0
        for solved in (res, below_tol):
            assert len(solved.trace) == solved.iterations + 1
            order = 16
            for row in solved.trace:
                assert row["round_off"] > 0 and row["tail_max"] >= 0
                assert row["tail_sum"] >= row["tail_max"]
                if "trunc_order" in row:
                    genuine = row["tail_flag"] and row["tail_max"] > row["round_off"]
                    refine = (genuine and row["tail_sum"] > self.tol
                              and 2 * order <= freq.horizon // 2)
                    assert row["trunc_order"] == (2 * order if refine else order)
                    held += genuine and not refine
                    order = row["trunc_order"]
        assert held  # a genuine tail below tol kept its order


    def test_trace_rows_record_grid_and_jets(self, coupled_solve):
        _, _, res = coupled_solve
        order = 16
        for row in res.trace:
            new = row.get("trunc_order", order)  # the final row keeps the order
            assert row["jets"] == (2 if new > order else 1)
            assert row["grid"] == sampling_size(new)
            order = new
        assert {row["grid"] for row in res.trace} == {33, 65}
        assert [row["jets"] for row in res.trace].count(2) == 1
        # one jet per iterate plus one per resize, as solve_torus takes them
        assert sum(row["jets"] for row in res.trace) == res.iterations + 2


class TestRefinementAboveTol:
    """solve_torus doubles M only on a genuine tail whose tail_sum, the
    tail block's share of the strip norm, exceeds tol."""

    @staticmethod
    def fine_errors(h, freq, res):
        """The defect on the 2M+1 grid and on the 1.5x grid."""
        m = res.torus.trunc_order
        return [invariance_error(h, res.torus, freq, grid_size=size).norm_grid
                for size in (2 * m + 1, 2 * ((3 * m) // 2) + 1)]

    def test_tail_below_tol_stays_at_32(self):
        # iterate 3 has a genuine tail (tail_max 5e-14 > r) of tail_sum 2e-13
        tol = 1e-12
        h, freq, res = solve_coupled(1e-3, tol)
        assert res.converged and res.iterations == 4
        assert res.torus.trunc_order == 32
        assert max(self.fine_errors(h, freq, res)) <= 10 * tol

    def test_tail_above_tol_refines(self):
        _, _, res = solve_coupled(1e-3, 1e-13)
        assert res.converged and res.torus.trunc_order == 64

    @pytest.mark.parametrize("eps", [3e-4, 6e-4, 1e-3, 1.5e-3, 2e-3])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_every_solve_meets_tol_on_fine_grids(self, eps, tol):
        h, freq, res = solve_coupled(eps, tol)
        assert res.converged
        assert max(self.fine_errors(h, freq, res)) <= 10 * tol


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
    const = FourierMap.constant(self.winding @ om, self.dim_domain)
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
