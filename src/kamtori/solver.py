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
an elimination on whole-grid arrays, one per matrix entry.
FourierMap.synthesize returns a grid-major view of a component-major
buffer, so DK's samples and the cohomological solutions enter the frame
and the step without a copy, and from_samples analyzes grid-major views
of component-major arrays as they are.  The defect is built
component-major: J grad H is a row-block swap of the jet's gradient.
The jet keeps its grid-major (*grid, *comp) layout, so its Hessian and
gradient are converted once, where they enter the frame (nondegeneracy)
and the defect (invariance_error).

An iterate K of truncation order M is sampled on sampling_size(M) points
per axis, the smallest odd N >= 2M+1 with no prime factor above 13, and
every analysis of its grid samples (the defect e, N, S, eta_N, the
tangent right-hand side and Delta) keeps the modes |k|_inf <= M, so the
order of an iterate never follows its grid.  invariance_error and
nondegeneracy also take another odd grid_size >= 2M+1, for checks on a
finer grid; newton_step and solve_torus take no grid size and always use
the sampling grid.

Each (model, torus) pair is evaluated once, into an Iterate: one jet of
H at K's grid samples, whose gradient gives the defect (invariance_error)
and whose Hessian gives the frame, built on first use (nondegeneracy);
newton_step takes both as they are.  Norms at another strip width come
from the stored maps (ErrorField.at, Iterate.frame_at).  solve_torus
starts from a given Iterate and returns the Iterate of its torus, so a
cascade hands evaluated iterates on.  A resized K is a new iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cohomology import DivisorReport, solve_cohomological
from .diophantine import FrequencyVector
from .fourier import (
    FourierMap,
    StripNormEstimate,
    TorusEmbedding,
    _grid_major,
    sampling_size,
)
from .hamiltonian import jet_grid, symplectic_matrix

__all__ = [
    "ErrorField",
    "Iterate",
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
    grid + (2n,), a grid-major view of a contiguous (2n, *grid) array, and
    e is its Fourier analysis at K's truncation order.  round_off is
    r = FLOOR_ULPS * eps * sup |J grad H (K)| on that grid (eps the float64
    machine epsilon), the round-off in evaluating the defect.
    """

    e: FourierMap
    norm_rho: StripNormEstimate
    norm_grid: float
    round_off: float
    values: np.ndarray = field(repr=False, compare=False)

    @property
    def tail_flag(self) -> bool:
        return self.norm_rho.tail_flag

    @property
    def genuine_tail(self) -> bool:
        """The round-off half of solve_torus's refinement rule: tail_flag
        trips and the tail's largest amplitude tail_max exceeds round_off,
        so a tail of round-off is not genuine.  solve_torus refines only a
        genuine tail whose tail_sum also exceeds its tol."""
        return bool(self.tail_flag and self.norm_rho.tail_max > self.round_off)

    def at(self, rho: float) -> "ErrorField":
        """This defect with its strip norm taken at rho from e."""
        return self if rho == self.norm_rho.rho else replace(
            self, norm_rho=self.e.strip_norm(rho))


def _omega_array(omega) -> np.ndarray:
    return np.asarray(getattr(omega, "omega", omega), dtype=float)


def invariance_error(
    hamiltonian, K: TorusEmbedding, omega, grid_size=None, rho: float = 0.0,
    jet=None,
) -> ErrorField:
    """Evaluate the defect on the sampling grid and return it as a map.

    The grid is sampling_size(M) points per axis unless grid_size gives
    another odd size >= 2M+1; e keeps K's order M either way.  norm_grid
    is the max absolute component over the grid, the quantity the Newton
    iteration drives down.  norm_rho is the coefficient bound over the
    strip of half-width rho (rho = 0 gives the plain coefficient sum); its
    tail_flag trips when the defect's spectrum has not decayed by the
    truncation order, meaning the grid is too coarse to trust.
    jet, when given, is the jet of H at K's samples on the same grid; it
    is evaluated when omitted.
    """
    om = _omega_array(omega)
    n = K.dim_domain
    gs = grid_size or sampling_size(K.trunc_order)
    _, grad, _ = jet if jet is not None else jet_grid(hamiltonian, K.grid_samples(grid_size))
    # J = [[0, I], [-I, 0]] swaps the row blocks of grad H with a sign
    grad_c = np.moveaxis(grad, -1, 0)
    values = np.empty(grad_c.shape)
    values[:n] = grad_c[n:]
    np.negative(grad_c[:n], out=values[n:])
    values -= _components(K.directional(om).synthesize(gs), 1)
    values = _grid_major(values, 1)
    e = FourierMap.from_samples(values, n, K.trunc_order)
    return ErrorField(
        e=e,
        norm_rho=e.strip_norm(rho),
        norm_grid=float(np.max(np.abs(values))),
        round_off=float(FLOOR_ULPS * np.finfo(float).eps * np.max(np.abs(grad))),
        values=values,
    )


def _components(x: np.ndarray, rank: int) -> np.ndarray:
    """Grid-major (*grid, *comp) samples as a contiguous (*comp, *grid) array.

    rank is the number of component axes: 1 for a vector, 2 for a matrix.
    A grid-major view of a contiguous component-major array, such as
    FourierMap.synthesize returns, comes back without a copy.
    """
    g = x.ndim - rank
    return np.ascontiguousarray(x.transpose(tuple(range(g, x.ndim)) + tuple(range(g))))


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
    Newton step to exist.  norm_n and norm_dk are coefficient bounds at the
    strip width rho (Iterate.frame_at takes them at another).
    lagrangian_defect is the grid max of |DK^T J DK|, zero on a Lagrangian
    torus.  frame and s hold the frame blocks and S on the sampling grid
    for newton_step, component-major like every AdaptedFrame field: s is
    (n, n, *grid).
    """

    n_map: FourierMap
    avg_s: np.ndarray
    avg_s_inv: np.ndarray
    rho: float
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
        n_map = self.n_map
        return FourierMap.from_samples(_grid_major(self.s, 2), n_map.dim_domain,
                                       n_map.trunc_order)


def _frame_tensors(hess: np.ndarray, dk: np.ndarray):
    """Pointwise frame, S and gram from D^2H(K) (2n, 2n, *grid) and DK
    (2n, n, *grid) on the grid; S and the gram are (n, n, *grid)."""
    frame, gram = AdaptedFrame.build(dk)
    jdk = frame.jdk
    twist = (_matmul(_t(dk), _matmul(hess, dk))
             - _matmul(_t(jdk), _matmul(hess, jdk)))
    return frame, _matmul(_matmul(frame.n_mat, twist), frame.n_mat), gram


def nondegeneracy(
    hamiltonian, K: TorusEmbedding, grid_size=None, rho: float = 0.0, jet=None,
) -> NondegeneracyData:
    """Definition-level non-degeneracy check: frame rank and averaged twist.

    The frame is built on sampling_size(M) points per axis unless
    grid_size gives another odd size >= 2M+1; N and S keep K's order M.
    jet, when given, is the jet of H at K's samples on the same grid; it
    is evaluated when omitted.  A frame with cond(DK^T DK) above
    COND_DK_LIMIT is rejected before anything is inverted.
    """
    gs = grid_size or sampling_size(K.trunc_order)
    _, _, hess = jet if jet is not None else jet_grid(hamiltonian, K.grid_samples(grid_size))
    dk_map = K.dk()
    # the Hessian and DK samples enter the frame component-major
    frame, s, _ = _frame_tensors(_components(hess, 2),
                                 _components(dk_map.synthesize(gs), 2))
    n, m = K.dim_domain, K.trunc_order
    avg_s = s.mean(axis=tuple(range(2, s.ndim)))
    svals = np.linalg.svd(avg_s, compute_uv=False)
    if svals[-1] < 1e-12 * max(1.0, svals[0]):
        raise ValueError(
            f"averaged torsion <S> is singular: smallest singular value "
            f"{svals[-1]:.3e}"
        )
    avg_s_inv = np.linalg.inv(avg_s)
    n_map = FourierMap.from_samples(_grid_major(frame.n_mat, 2), n, m)
    return NondegeneracyData(
        n_map=n_map,
        avg_s=avg_s,
        avg_s_inv=avg_s_inv,
        rho=rho,
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
    corrects.  error_before is that defect's grid sup.
    """

    error_before: float
    correction_sup: float
    torsion_average: np.ndarray
    frame_min_det: float
    normal_divisors: DivisorReport


def newton_step(
    hamiltonian,
    K: TorusEmbedding,
    omega: FrequencyVector,
    nd: NondegeneracyData | None = None,
    err: ErrorField | None = None,
):
    """One quadratically convergent correction K -> K + M xi.

    The step works on K's sampling grid, sampling_size(M) points per axis,
    and every map it analyzes keeps K's order M.  nd and err must describe
    (hamiltonian, K) on that grid: the frame data from nondegeneracy and
    the defect (with its grid samples) from invariance_error.  Whichever
    is omitted comes from one evaluation of (hamiltonian, K), an Iterate.
    """
    n, m = K.dim_domain, K.trunc_order
    gs = sampling_size(m)
    if nd is None or err is None:
        value = Iterate.evaluate(hamiltonian, K, omega)
        nd = value.frame if nd is None else nd
        err = value.error if err is None else err
    for what, grid in (("frame data", nd.frame.dk.shape[2:]),
                       ("defect samples", err.values.shape[:-1])):
        if grid != (gs,) * n:
            raise ValueError(
                f"{what} on grid {grid} does not match the step's grid {(gs,) * n}"
            )
    # component-major from here on: each field is (components, *grid)
    eta_t, eta_n = nd.frame.solve(_components(err.values, 1))
    grid_axes = tuple(range(1, n + 1))

    sol_n = solve_cohomological(
        FourierMap.from_samples(_grid_major(eta_n, 1), n, m), omega
    )
    xi_n0 = _components(sol_n.solution.synthesize(gs), 1)
    s_xi_n0 = _apply(nd.s, xi_n0)
    c_n = nd.avg_s_inv @ (
        -eta_t.mean(axis=grid_axes) - s_xi_n0.mean(axis=grid_axes)
    )
    xi_n = xi_n0 + c_n.reshape((n,) + (1,) * n)

    rhs_t = eta_t + _apply(nd.s, xi_n)
    sol_t = solve_cohomological(
        FourierMap.from_samples(_grid_major(rhs_t, 1), n, m), omega
    )
    xi_t = _components(sol_t.solution.synthesize(gs), 1)

    delta = nd.frame.apply(xi_t, xi_n)
    delta_map = FourierMap.from_samples(_grid_major(delta, 1), n, m)
    K_next = K.with_periodic(K.periodic + delta_map)
    diag = StepDiagnostics(
        error_before=err.norm_grid,
        correction_sup=float(np.max(np.abs(delta))),
        torsion_average=nd.avg_s,
        frame_min_det=nd.frame_min_det,
        normal_divisors=sol_n.report,
    )
    return K_next, diag


@dataclass(frozen=True, eq=False)
class Iterate:
    """One evaluation of a model on a torus K: its jet at K's samples on
    the sampling grid gives the defect and the frame, built on first use at
    the defect's rho, so hess is all of the jet that is kept.  Norms at
    another rho come from error.at and frame_at, never from H."""

    model: object
    K: TorusEmbedding
    hess: np.ndarray = field(repr=False)
    error: ErrorField

    @classmethod
    def evaluate(cls, model, K: TorusEmbedding, omega, rho: float = 0.0) -> "Iterate":
        """One jet of model at K's samples and the defect it gives, at rho."""
        jet = jet_grid(model, K.grid_samples())
        return cls(model, K, jet[2], invariance_error(model, K, omega, rho=rho, jet=jet))

    @cached_property
    def frame(self) -> NondegeneracyData:
        return nondegeneracy(self.model, self.K, rho=self.error.norm_rho.rho,
                             jet=(None, None, self.hess))

    def frame_at(self, rho: float) -> NondegeneracyData:
        """The frame with norm_n and norm_dk taken at rho from N and DK."""
        nd = self.frame
        return nd if rho == nd.rho else replace(
            nd, rho=rho, norm_n=nd.n_map.strip_norm(rho).value,
            norm_dk=self.K.dk().strip_norm(rho).value)


@dataclass
class SolveResult:
    """A solve's outcome: value is the Iterate of the torus it returns (the
    last iterate when converged, else the best one) and error its defect's
    grid sup."""

    status: str
    value: Iterate
    error: float
    iterations: int
    trace: list = field(default_factory=list)

    @property
    def torus(self) -> TorusEmbedding:
        return self.value.K

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
    max_trunc_order: int = 512,
    rho: float = 0.0,
    start: Iterate | None = None,
) -> SolveResult:
    """Newton iteration with a round-off floor rule and tail-driven refinement.

    Stops when the grid sup of the defect drops below tol.  An iterate
    makes progress when its defect is below best - r, where best is the
    lowest defect so far and r is the defect's round_off.  Two consecutive
    iterates without progress end the iteration: if some iterate improved
    on the initial error, the best one is returned with status "floored"
    (the iteration hit its numerical floor), otherwise "diverged".  The
    truncation order doubles, up to max_trunc_order, before the next step
    when two things hold: the defect's spectral tail is genuine
    (ErrorField.genuine_tail: its tail_flag trips and its largest tail
    amplitude tail_max exceeds the same r), and the tail block's share of
    the strip norm at rho, tail_sum, exceeds tol.  A tail made of
    round-off never refines, and neither does one whose sup bound tail_sum
    is below tol, since it cannot hold the defect above tol.

    The trace has a row per Newton step and, on convergence, one for the
    final iterate.  Every row records the iterate's defect ("error") and
    the tail state that decided its refinement: tail_flag, tail_max,
    tail_sum and round_off (r) at the order the iterate was first
    evaluated at, the odd grid size N = sampling_size(M) its defect was
    evaluated on ("grid") and the jets of H it used ("jets": 1, or 2 when
    it was resized, the jet at its old order and the one at the new, whose
    grid the row then records).  A step row also records the growth
    quantities (|DK|, |N|, |<S>^-1|), the Lagrangian defect
    max |DK^T J DK| and the corrected iterate's truncation order; its
    "error" is that of the iterate the step corrected, after any
    refinement.

    With a FrequencyVector, every retained mode must stay inside its
    Diophantine horizon, |k|_1 <= n M <= horizon: a K0 beyond it is
    rejected before any work, and refinement stops at horizon // n.
    start, when given, is the Iterate of (hamiltonian, K0) on K0's
    sampling grid and serves as the first iterate; its norms are taken
    again at rho.  A start value of another model, torus or grid raises
    ValueError.
    """
    if isinstance(omega, FrequencyVector):
        check_horizon(K0, omega)
        max_trunc_order = min(max_trunc_order, omega.horizon // K0.dim_domain)
    if start is not None and (start.model is not hamiltonian or start.K is not K0):
        raise ValueError("start value is of another model or torus than the solve's")
    if start is not None and start.error.values.shape[0] != sampling_size(K0.trunc_order):
        raise ValueError("start value's grid does not match K0's sampling grid")
    K = K0
    trace: list[dict] = []
    best_err = np.inf
    value = best = (start if start is not None
                    else Iterate.evaluate(hamiltonian, K0, omega, rho))
    initial = value.error.norm_grid
    stalls = 0
    for it in range(max_iter + 1):
        if it:
            value = Iterate.evaluate(hamiltonian, K, omega, rho)
        err = value.error.at(rho)
        row = {"iter": it, "error": err.norm_grid, "tail_flag": err.tail_flag,
               "tail_max": err.norm_rho.tail_max,
               "tail_sum": err.norm_rho.tail_sum, "round_off": err.round_off,
               "grid": err.values.shape[0], "jets": 1}
        stalls = 0 if err.norm_grid < best_err - err.round_off else stalls + 1
        if err.norm_grid < best_err:
            best_err, best = err.norm_grid, value
        if err.norm_grid <= tol:
            trace.append(row)
            return SolveResult("converged", value, err.norm_grid, it, trace)
        if stalls >= 2:
            status = "floored" if best_err < initial else "diverged"
            return SolveResult(status, best, best_err, it, trace)
        if it == max_iter:
            break
        if (err.genuine_tail and err.norm_rho.tail_sum > tol
                and K.trunc_order * 2 <= max_trunc_order):
            K = K.resized(K.trunc_order * 2)
            value = Iterate.evaluate(hamiltonian, K, omega, rho)
            err = value.error
            row["grid"] = err.values.shape[0]
            row["jets"] += 1
        nd = value.frame_at(rho)
        K, diag = newton_step(hamiltonian, K, omega, nd, err=err)
        trace.append(
            {
                **row,
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
    return SolveResult(status, best, best_err, max_iter, trace)


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
