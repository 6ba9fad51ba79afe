"""Spectral Newton solver for invariant tori of Hamiltonian flows.

Solves the invariance equation d_omega K = J grad H (K) for an embedding
K: T^n -> R^2n carrying quasi-periodic motion with frequency omega.  Each
Newton step reduces the linearized equation to two constant-coefficient
cohomological equations through the adapted frame M = [DK | J DK N],
N = (DK^T DK)^-1:

    d_omega xi_T = eta_T + S xi_N      (tangent components)
    d_omega xi_N = eta_N               (normal components)

with eta = M^-1 e, torsion S = N DK^T (A J - J A) DK N, A = J D^2H(K).
The normal equation's zero mode is split off, and the free constant of
xi_N is spent cancelling the tangent obstruction:

    c_N = <S>^-1 (-<eta_T> - <S xi_N^0>),

which is where invertibility of the averaged torsion (the twist
condition) enters.  The correction Delta = M xi acts on the periodic part
of K only; re-analysis on the grid restores exact reality symmetry.

The frame is never formed as a 2n x 2n matrix.  With G = DK^T DK,
N = G^-1 and the Lagrangian defect L = DK^T J DK, its symplectic form is

    M^T J M = [[L, -I], [I, N L N]],

so M^-1 v is the block solve of M^T J M xi = M^T J v through
C = I + L N L N, |det M| = sqrt|det C|, M xi = DK xi_T + J DK N xi_N and
S = N (DK^T D^2H DK - (J DK)^T D^2H (J DK)) N: every pointwise matrix is
n x n, and the two inverses (G and C) are one vectorized elimination
across the grid.  On an invariant torus L = 0 (it is Lagrangian), C = I
and M is symplectic up to the normalisation N.

Every per-grid-point tensor of the frame is component-major: a contiguous
(rows, cols, *grid) array, or (rows, *grid) for a vector field, so a
pointwise product is one einsum over the leading axes and an inverse is
an elimination on whole-grid arrays, one per matrix entry.  The jet's
Hessian and DK's samples are converted once where they enter the frame
(nondegeneracy), and the defect's samples where they enter the step
(newton_step).  FourierMap and the jet keep their grid-major
(*grid, *comp) layout; what the step analyzes goes back to it as a view.

Each iterate K costs one evaluation of H on the grid: solve_torus takes
one jet of H at K's grid samples, whose gradient gives the defect
(invariance_error, which keeps its grid samples) and whose Hessian gives
the one frame build (nondegeneracy, which keeps the frame blocks and S
on the grid); newton_step then takes that frame and the defect's samples
as they are.  A K refined by resizing is a new iterate with its own jet
and defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cohomology import DivisorReport, solve_cohomological
from .diophantine import FrequencyVector
from .fourier import FourierMap, StripNormEstimate, TorusEmbedding
from .hamiltonian import jet_grid, symplectic_matrix

__all__ = [
    "ErrorField",
    "NondegeneracyData",
    "SolveResult",
    "StepDiagnostics",
    "check_horizon",
    "flow",
    "invariance_error",
    "newton_step",
    "nondegeneracy",
    "solve_torus",
]

COND_DK_LIMIT = 1e8
FLOOR_ULPS = 16  # round-off allowance of solve_torus's floor rule, in eps


@dataclass(frozen=True)
class ErrorField:
    """Invariance defect e = J grad H (K) - d_omega K.

    values holds e on the sampling grid it was evaluated on, shape
    grid + (2n,), and e is its Fourier analysis.
    """

    e: FourierMap
    norm_rho: StripNormEstimate
    norm_grid: float
    values: np.ndarray = field(repr=False, compare=False)

    @property
    def tail_flag(self) -> bool:
        return self.norm_rho.tail_flag


def _omega_array(omega) -> np.ndarray:
    return np.asarray(getattr(omega, "omega", omega), dtype=float)


def _jet(hamiltonian, K: TorusEmbedding, grid_size=None):
    """(value, grad, hess) of H at the samples of K on its grid."""
    return jet_grid(hamiltonian, K.grid_samples(grid_size))


def invariance_error(
    hamiltonian, K: TorusEmbedding, omega, grid_size=None, rho: float = 0.0,
    jet=None,
) -> ErrorField:
    """Evaluate the defect on the sampling grid and return it as a map.

    norm_grid is the max absolute component over the grid, the quantity
    the Newton iteration drives down.  norm_rho is the coefficient bound
    over the strip of half-width rho (rho = 0 gives the plain coefficient
    sum); its tail_flag trips when the defect's spectrum has not decayed
    by the truncation order, meaning the grid is too coarse to trust.
    jet, when given, is the jet of H at K's samples on the same grid; it
    is evaluated when omitted.
    """
    om = _omega_array(omega)
    gs = grid_size or K.periodic.grid_size
    _, grad, _ = jet if jet is not None else _jet(hamiltonian, K, gs)
    j = symplectic_matrix(K.dim_domain)
    x_h = grad @ j.T
    d_om = K.directional(om).synthesize(gs)
    values = x_h - d_om
    e = FourierMap.from_samples(values, K.dim_domain)
    return ErrorField(
        e=e,
        norm_rho=e.strip_norm(rho),
        norm_grid=float(np.max(np.abs(values))),
        values=values,
    )


def _components(x: np.ndarray, rank: int) -> np.ndarray:
    """Grid-major (*grid, *comp) samples as a contiguous (*comp, *grid) array.

    rank is the number of component axes: 1 for a vector, 2 for a matrix.
    """
    g = x.ndim - rank
    return np.ascontiguousarray(x.transpose(tuple(range(g, x.ndim)) + tuple(range(g))))


def _grid_major(x: np.ndarray, rank: int) -> np.ndarray:
    """Component-major (*comp, *grid) as a grid-major (*grid, *comp) view."""
    return x.transpose(tuple(range(rank, x.ndim)) + tuple(range(rank)))


def _t(mat: np.ndarray) -> np.ndarray:
    """Pointwise transpose of a component-major matrix field."""
    return np.swapaxes(mat, 0, 1)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of (r, k, *grid) and (k, c, *grid) fields."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Pointwise matrix-vector product of (r, c, *grid) and (c, *grid) fields."""
    return np.einsum("ij...,j...->i...", mat, vec)


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with a x = b at every grid point, and |det a| there.

    a has shape (n, n, *grid) and b is (n, k, *grid) or a constant (n, k).
    Gaussian elimination with partial pivoting, one Python loop over the n
    columns and every operation a whole-grid array operation on one matrix
    entry, so it serves any n; |det a| is the product of the pivots'
    magnitudes.  x has shape (n, k, *grid).
    """
    n, k, grid = a.shape[0], b.shape[1], a.shape[2:]
    b = np.broadcast_to(np.reshape(b, b.shape + (1,) * (a.ndim - b.ndim)),
                        (n, k) + grid)
    # row r of the augmented system [a | b], one grid array per entry
    rows = [list(a[r]) + list(b[r]) for r in range(n)]
    abs_det = np.ones(grid)
    for col in range(n):
        for r in range(col + 1, n):
            swap = np.abs(rows[r][col]) > np.abs(rows[col][col])
            rows[col], rows[r] = (
                [np.where(swap, y, x) for x, y in zip(rows[col], rows[r])],
                [np.where(swap, x, y) for x, y in zip(rows[col], rows[r])],
            )
        pivot = rows[col][col]
        abs_det = abs_det * np.abs(pivot)
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            rows[r] = rows[r][: col + 1] + [
                y - f * x for x, y in zip(rows[col][col + 1 :], rows[r][col + 1 :])
            ]
    x = [None] * n
    for r in reversed(range(n)):
        acc = rows[r][n:]
        for c in range(r + 1, n):
            acc = [v - rows[r][c] * w for v, w in zip(acc, x[c])]
        x[r] = [v / rows[r][r] for v in acc]
    return np.array(x), abs_det


def _gram_cond(gram: np.ndarray) -> float:
    """Grid max of the 2-norm condition number of a gram field (n, n, *grid).

    The gram is symmetric positive semi-definite, so its condition number
    is the ratio of its extreme eigenvalues, infinite once the smallest is
    <= 0.  They have closed forms for n <= 2: the entry itself at n = 1,
    and at n = 2 lambda+ = tr/2 + hypot((a - d)/2, b) and
    lambda- = det/lambda+, which avoids the cancellation of tr/2 - hypot.
    """
    n = gram.shape[0]
    if n == 1:
        lo = hi = gram[0, 0]
    elif n == 2:
        a, b, d = gram[0, 0], gram[0, 1], gram[1, 1]
        hi = (a + d) / 2 + np.hypot((a - d) / 2, b)
        with np.errstate(invalid="ignore"):  # 0/0 where DK = 0
            lo = (a * d - b * b) / hi
    else:
        lam = np.linalg.eigvalsh(_grid_major(gram, 2))
        lo, hi = lam[..., 0], lam[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lo > 0, hi / lo, np.inf)
    return float(np.max(ratio))


@dataclass(frozen=True)
class AdaptedFrame:
    """The frame M = [DK | J DK N] on the sampling grid, as n x n blocks.

    Every field is component-major, a contiguous (rows, cols, *grid) array.
    dk and jdk are DK and J DK, (2n, n, *grid); n_mat is N = (DK^T DK)^-1,
    lag the Lagrangian defect L = DK^T J DK, b = N L N and c_inv the
    inverse of C = I + L B, each (n, n, *grid).  abs_det is
    |det M| = sqrt|det C| per grid point, and cond the grid max of the
    2-norm condition number of DK^T DK.
    """

    dk: np.ndarray
    jdk: np.ndarray
    n_mat: np.ndarray
    lag: np.ndarray
    b: np.ndarray
    c_inv: np.ndarray
    abs_det: np.ndarray
    cond: float

    @classmethod
    def build(cls, dk: np.ndarray) -> tuple["AdaptedFrame", np.ndarray]:
        """The frame at DK on the grid, and the gram matrix G = DK^T DK.

        Raises ValueError when cond(G) exceeds COND_DK_LIMIT somewhere on
        the grid, before G or C is inverted.
        """
        n = dk.shape[1]
        # J = [[0, I], [-I, 0]] swaps the (x, y) row blocks with a sign
        jdk = np.concatenate([dk[n:], -dk[:n]])
        gram = _matmul(_t(dk), dk)
        cond = _gram_cond(gram)
        if cond > COND_DK_LIMIT:
            raise ValueError(
                f"DK rank-deficient on grid: cond(DK^T DK) = {cond:.3e}"
            )
        n_mat, _ = _solve(gram, np.eye(n))
        lag = _matmul(_t(dk), jdk)
        b = _matmul(_matmul(n_mat, lag), n_mat)
        c = _matmul(lag, b)
        c[range(n), range(n)] += 1.0
        c_inv, det_c = _solve(c, np.eye(n))
        return cls(dk, jdk, n_mat, lag, b, c_inv, np.sqrt(det_c), cond), gram

    def apply(self, xi_t: np.ndarray, xi_n: np.ndarray) -> np.ndarray:
        """M xi = DK xi_T + J DK N xi_N on the grid: (n, *grid) in, (2n, *grid) out."""
        return _apply(self.dk, xi_t) + _apply(self.jdk, _apply(self.n_mat, xi_n))

    def solve(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(xi_T, xi_N) = M^-1 v, by the block solve of M^T J M xi = M^T J v.

        M^T J v = (w_T, w_N) = (DK^T J v, N DK^T v), and the rows
        L xi_T - xi_N = w_T, xi_T + B xi_N = w_N give
        xi_N = C^-1 (L w_N - w_T) and xi_T = w_N - B xi_N.  v is
        (2n, *grid), xi_T and xi_N are (n, *grid).
        """
        w_t = -_apply(_t(self.jdk), v)  # DK^T J = -(J DK)^T
        w_n = _apply(self.n_mat, _apply(_t(self.dk), v))
        xi_n = _apply(self.c_inv, _apply(self.lag, w_n) - w_t)
        return w_n - _apply(self.b, xi_n), xi_n


@dataclass(frozen=True)
class NondegeneracyData:
    """Frame and twist data for the adapted-frame reduction.

    n_map is N = (DK^T DK)^-1, s_map the torsion S (analyzed on first
    use), both as maps on the torus; avg_s must be invertible for the
    Newton step to exist.  The norms are coefficient bounds at the rho the
    data was built with.  lagrangian_defect is the grid max of
    |DK^T J DK|, zero on a Lagrangian torus.  frame and s hold the frame
    blocks and S on the sampling grid for newton_step, component-major
    like every AdaptedFrame field: s is (n, n, *grid).
    """

    n_map: FourierMap
    avg_s: np.ndarray
    avg_s_inv: np.ndarray
    norm_n: float
    norm_dk: float
    norm_s_inv: float
    cond_dk: float
    frame_min_det: float
    lagrangian_defect: float
    frame: AdaptedFrame
    s: np.ndarray

    @cached_property
    def s_map(self) -> FourierMap:
        return FourierMap.from_samples(_grid_major(self.s, 2), self.n_map.dim_domain)


def _frame_tensors(hess: np.ndarray, dk: np.ndarray):
    """Pointwise frame, S and gram from D^2H(K) (2n, 2n, *grid) and DK
    (2n, n, *grid) on the grid; S and the gram are (n, n, *grid)."""
    frame, gram = AdaptedFrame.build(dk)
    jdk = frame.jdk
    twist = (_matmul(_t(dk), _matmul(hess, dk))
             - _matmul(_t(jdk), _matmul(hess, jdk)))
    return frame, _matmul(_matmul(frame.n_mat, twist), frame.n_mat), gram


def nondegeneracy(
    hamiltonian, K: TorusEmbedding, omega=None, grid_size=None, rho: float = 0.0,
    jet=None,
) -> NondegeneracyData:
    """Definition-level non-degeneracy check: frame rank and averaged twist.

    jet, when given, is the jet of H at K's samples on the same grid; it
    is evaluated when omitted.  A frame with cond(DK^T DK) above
    COND_DK_LIMIT is rejected before anything is inverted.
    """
    del omega  # the data depends on (H, K) only
    gs = grid_size or K.periodic.grid_size
    _, _, hess = jet if jet is not None else _jet(hamiltonian, K, gs)
    dk_map = K.dk()
    # the Hessian and DK samples enter the frame component-major
    frame, s, _ = _frame_tensors(_components(hess, 2),
                                 _components(dk_map.synthesize(gs), 2))
    n = K.dim_domain
    avg_s = s.mean(axis=tuple(range(2, s.ndim)))
    svals = np.linalg.svd(avg_s, compute_uv=False)
    if svals[-1] < 1e-12 * max(1.0, svals[0]):
        raise ValueError(
            f"averaged torsion <S> is singular: smallest singular value "
            f"{svals[-1]:.3e}"
        )
    avg_s_inv = np.linalg.inv(avg_s)
    n_map = FourierMap.from_samples(_grid_major(frame.n_mat, 2), n)
    return NondegeneracyData(
        n_map=n_map,
        avg_s=avg_s,
        avg_s_inv=avg_s_inv,
        norm_n=n_map.strip_norm(rho).value,
        norm_dk=dk_map.strip_norm(rho).value,
        norm_s_inv=float(np.linalg.norm(avg_s_inv, 2)),
        cond_dk=frame.cond,
        frame_min_det=float(np.min(frame.abs_det)),
        lagrangian_defect=float(np.max(np.abs(frame.lag))),
        frame=frame,
        s=s,
    )


@dataclass(frozen=True)
class StepDiagnostics:
    """What one Newton step saw and did.

    The step uses one frame build (the NondegeneracyData it is given) and
    one defect (the ErrorField it is given), both of the iterate K it
    corrects.  error_before is that defect's grid sup, and tail_flag its
    spectral tail flag at the rho it was evaluated with: in solve_torus
    the solve's rho, rho = 0 when newton_step evaluates the defect itself.
    """

    error_before: float
    correction_sup: float
    counterterm: np.ndarray
    torsion_average: np.ndarray
    frame_min_det: float
    eta_tangent_sup: float
    eta_normal_sup: float
    normal_divisors: DivisorReport
    tangent_divisors: DivisorReport
    tangent_residual_mean: float
    tail_flag: bool


def newton_step(
    hamiltonian,
    K: TorusEmbedding,
    omega: FrequencyVector,
    nd: NondegeneracyData | None = None,
    grid_size=None,
    err: ErrorField | None = None,
):
    """One quadratically convergent correction K -> K + M xi.

    nd and err must describe (hamiltonian, K) on the step's grid: the
    frame data from nondegeneracy and the defect (with its grid samples)
    from invariance_error.  Whichever is omitted is computed here, from
    one shared jet.
    """
    n = K.dim_domain
    gs = grid_size or K.periodic.grid_size
    if nd is None or err is None:
        jet = _jet(hamiltonian, K, gs)
        if nd is None:
            nd = nondegeneracy(hamiltonian, K, omega, gs, jet=jet)
        if err is None:
            err = invariance_error(hamiltonian, K, omega, gs, jet=jet)
    for what, grid in (("frame data", nd.frame.dk.shape[2:]),
                       ("defect samples", err.values.shape[:-1])):
        if grid != (gs,) * n:
            raise ValueError(
                f"{what} on grid {grid} does not match the step's grid {(gs,) * n}"
            )
    # component-major from here on: each field is (components, *grid)
    eta_t, eta_n = nd.frame.solve(_components(err.values, 1))
    grid_axes = tuple(range(1, n + 1))

    sol_n = solve_cohomological(FourierMap.from_samples(_grid_major(eta_n, 1), n),
                                omega)
    xi_n0 = _components(sol_n.solution.synthesize(gs), 1)
    s_xi_n0 = _apply(nd.s, xi_n0)
    c_n = nd.avg_s_inv @ (
        -eta_t.mean(axis=grid_axes) - s_xi_n0.mean(axis=grid_axes)
    )
    xi_n = xi_n0 + c_n.reshape((n,) + (1,) * n)

    rhs_t = eta_t + _apply(nd.s, xi_n)
    sol_t = solve_cohomological(FourierMap.from_samples(_grid_major(rhs_t, 1), n),
                                omega)
    xi_t = _components(sol_t.solution.synthesize(gs), 1)

    delta = nd.frame.apply(xi_t, xi_n)
    delta_map = FourierMap.from_samples(_grid_major(delta, 1), n)
    K_next = K.with_periodic(K.periodic + delta_map)
    diag = StepDiagnostics(
        error_before=err.norm_grid,
        correction_sup=float(np.max(np.abs(delta))),
        counterterm=c_n,
        torsion_average=nd.avg_s,
        frame_min_det=nd.frame_min_det,
        eta_tangent_sup=float(np.max(np.abs(eta_t))),
        eta_normal_sup=float(np.max(np.abs(eta_n))),
        normal_divisors=sol_n.report,
        tangent_divisors=sol_t.report,
        tangent_residual_mean=float(np.max(np.abs(sol_t.average))),
        tail_flag=err.tail_flag,
    )
    return K_next, diag


@dataclass
class SolveResult:
    status: str
    torus: TorusEmbedding
    error: float
    iterations: int
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def check_horizon(K0: TorusEmbedding, omega: FrequencyVector) -> None:
    """Reject a K0 whose modes reach |k|_1 = n M beyond omega's horizon."""
    n = K0.dim_domain
    if n * K0.trunc_order > omega.horizon:
        raise ValueError(
            f"K0 truncation order {K0.trunc_order} on T^{n} reaches "
            f"|k|_1 = {n * K0.trunc_order} beyond the Diophantine horizon "
            f"{omega.horizon}"
        )


def solve_torus(
    hamiltonian,
    K0: TorusEmbedding,
    omega: FrequencyVector,
    tol: float = 1e-12,
    max_iter: int = 12,
    grid_size: int | None = None,
    max_trunc_order: int = 512,
    rho: float = 0.0,
    jet=None,
) -> SolveResult:
    """Newton iteration with a round-off floor rule and tail-driven refinement.

    Stops when the grid sup of the defect drops below tol.  An iterate
    makes progress when its defect is below best - r, where best is the
    lowest defect so far and r = FLOOR_ULPS * eps * sup |J grad H (K)| on
    the grid (eps the float64 machine epsilon) estimates the round-off in
    evaluating that defect.  Two consecutive iterates without progress end
    the iteration: if some iterate improved on the initial error, the best
    one is returned with status "floored" (the iteration hit its numerical
    floor), otherwise "diverged".  A tripped spectral tail doubles the
    truncation order, up to max_trunc_order, before the next step.  The
    trace records per accepted step the growth quantities (|DK|, |N|,
    |<S>^-1|) and the Lagrangian defect max |DK^T J DK|.

    With a FrequencyVector, every retained mode must stay inside its
    Diophantine horizon, |k|_1 <= n M <= horizon: a K0 beyond it is
    rejected before any work, and refinement stops at horizon // n.
    jet, when given, is the jet of H at K0's samples on the solve's grid
    and serves the first iterate.
    """
    if isinstance(omega, FrequencyVector):
        check_horizon(K0, omega)
        max_trunc_order = min(max_trunc_order, omega.horizon // K0.dim_domain)
    K = K0
    trace: list[dict] = []
    best_err = np.inf
    best_K = K0
    initial = None
    stalls = 0
    for it in range(max_iter + 1):
        if it or jet is None:
            jet = _jet(hamiltonian, K, grid_size)
        err = invariance_error(hamiltonian, K, omega, grid_size, rho, jet=jet)
        if initial is None:
            initial = err.norm_grid
        round_off = FLOOR_ULPS * np.finfo(float).eps * float(np.max(np.abs(jet[1])))
        stalls = 0 if err.norm_grid < best_err - round_off else stalls + 1
        if err.norm_grid < best_err:
            best_err, best_K = err.norm_grid, K
        if err.norm_grid <= tol:
            trace.append({"iter": it, "error": err.norm_grid})
            return SolveResult("converged", K, err.norm_grid, it, trace)
        if stalls >= 2:
            status = "floored" if best_err < initial else "diverged"
            return SolveResult(status, best_K, best_err, it, trace)
        if it == max_iter:
            break
        if err.tail_flag and K.trunc_order * 2 <= max_trunc_order:
            K = K.resized(K.trunc_order * 2)
            jet = _jet(hamiltonian, K, grid_size)
            err = invariance_error(hamiltonian, K, omega, grid_size, rho, jet=jet)
        nd = nondegeneracy(hamiltonian, K, omega, grid_size, rho, jet=jet)
        K, diag = newton_step(hamiltonian, K, omega, nd, grid_size, err=err)
        trace.append(
            {
                "iter": it,
                "error": diag.error_before,
                "correction": diag.correction_sup,
                "norm_dk": nd.norm_dk,
                "norm_n": nd.norm_n,
                "norm_s_inv": nd.norm_s_inv,
                "min_divisor": diag.normal_divisors.min_divisor,
                "frame_min_det": diag.frame_min_det,
                "lagrangian_defect": nd.lagrangian_defect,
                "trunc_order": K.trunc_order,
            }
        )
    status = "floored" if best_err < initial else "max_iter"
    return SolveResult(status, best_K, best_err, max_iter, trace)


def flow(hamiltonian, z0: np.ndarray, time: float, step: float = 1e-4) -> np.ndarray:
    """Integrate the Hamiltonian field with classical RK4 (verification aid)."""
    j = symplectic_matrix(hamiltonian.n)

    def f(z):
        _, grad, _ = jet_grid(hamiltonian, z)
        return grad @ j.T

    z = np.array(z0, dtype=float)
    sgn = 1.0 if time >= 0 else -1.0
    h = sgn * abs(step)
    steps = int(abs(time) / abs(step))
    for _ in range(steps):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    rest = time - steps * h
    if abs(rest) > 0:
        k1 = f(z)
        k2 = f(z + 0.5 * rest * k1)
        k3 = f(z + 0.5 * rest * k2)
        k4 = f(z + rest * k3)
        z = z + (rest / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return z
