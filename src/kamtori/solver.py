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
S = N T N, where the twist DK^T D^2H DK - (J DK)^T D^2H (J DK) is one
quadratic form T = DK^T Q DK, Q = D^2H - J^T D^2H J = [[A, B], [B, -A]]
with A = Hxx - Hyy and B = Hxy + Hyx.  The jet keeps only the Hessian
entries of axes some term of the model couples, A and B are formed from
those, and B's products are skipped where the model has no x-y entry,
as no mechanical H = |y|^2/2 + V(x) has.  Every pointwise matrix is
n x n, and each piece is computed once per frame: the two inverses
(G and C) with their |det| are closed forms (the adjugate) for n <= 3
and LAPACK on the grid-major view for n >= 4.  On an invariant torus
L = 0 (it is Lagrangian), C = I and M is symplectic up to the
normalisation N; where L is exactly zero on the grid, as at n = 1 and
on the flat circle, C is neither formed nor inverted.  N is analyzed on
its n(n+1)/2 entries on and above the diagonal and mirrored into n_map.
The averaged torsion <S> needs its singular values, for its singularity
check and |<S>^-1|_2, and its inverse: a 1 x 1 <S> = [s] takes |s| and
1/s, bit for bit what LAPACK returns, a 2 x 2 one closed forms, and
n >= 3 one SVD and one LAPACK inverse (_torsion_inverse).  A frame whose
DK is rank-deficient or whose <S> is singular fails a hypothesis of the
step and raises HypothesisError, whose status names which, as does a
step whose cohomological solve meets a divisor below its resonance
guard; solve_torus ends there with that status.

Every per-grid-point tensor of the frame is component-major: a contiguous
(rows, cols, *grid) array, or (rows, *grid) for a vector field, so a
pointwise product is one einsum over the leading axes and a closed-form
inverse is whole-grid arithmetic on one matrix entry at a time.
FourierMap.synthesize returns a grid-major view of a component-major
buffer, so DK's samples and the cohomological solutions enter the frame
and the step without a copy, and from_samples analyzes grid-major views
of component-major arrays as they are.  The defect is built
component-major: J grad H is a row-block swap of the jet's gradient.
The jet's gradient keeps its grid-major (*grid, 2n) layout and is
converted once, where it enters the defect (invariance_error); its
Hessian entries are arrays of the grid's shape, which the frame reads as
they are (nondegeneracy).

An iterate K of truncation order M is sampled on sampling_size(M) points
per axis, the smallest odd N >= 2M+1 with no prime factor above 13, and
every analysis of its grid samples (the defect e, N, S, eta_N, the
tangent right-hand side and Delta) keeps the modes |k|_inf <= M, so the
order of an iterate never follows its grid.  invariance_error also takes
another odd grid_size >= 2M+1, for checks on a finer grid; nondegeneracy,
newton_step and solve_torus take no grid size and always use the
sampling grid.

Each (model, torus) pair is evaluated once, into an Iterate: one jet of
H at K's grid samples, whose gradient gives the defect (invariance_error)
and whose Hessian entries give the frame, built on first use
(nondegeneracy), so an iterate that builds no frame, such as a solve's
last one or one about to be resized, pays for no more than those entries;
newton_step takes the Iterate it steps from.  Norms at a strip width
come from the stored maps, at the width a caller reads (ErrorField.at,
NondegeneracyData.norms).
solve_torus starts from a given Iterate and returns the Iterate of its
torus, so a cascade hands evaluated iterates on.  A resized K is a new
iterate.

solve_torus grows M when the defect's tail is more than round-off and
predicts mass past M above tol, and it grows M to the order the torus's
own spectrum asks for: the decay of d_omega K between its peaks in the
two halves of its tail block, M/2 < |k|_inf <= 3M/4 and
3M/4 < |k|_inf <= M, extended geometrically, predicts the defect that the
modes past each order leave, and M grows (by at most a factor of two) to
the first order where that falls below tol, then to the largest order its
sampling grid holds, never past horizon // n: omega is a FrequencyVector,
and the modes |k|_1 <= n M of an iterate stay inside the horizon its
certificate covers.  The defect's own spectrum does not set the order:
until the last iterates its head holds the Newton error, not the
truncation's.  An iterate costs about sampling_size(M)^n grid points, so
at n >= 2 the order sets the cost of every later iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .cohomology import DivisorReport, HypothesisError, solve_cohomological
from .diophantine import FrequencyVector
from .fourier import (
    FourierMap,
    StripNormEstimate,
    TorusEmbedding,
    _grid_major,
    _range_first,
    half_wavevectors,
    sampling_size,
)
from .hamiltonian import jet_grid

__all__ = [
    "ErrorField",
    "HypothesisError",
    "Iterate",
    "NondegeneracyData",
    "SolveResult",
    "StepDiagnostics",
    "check_horizon",
    "invariance_error",
    "newton_step",
    "nondegeneracy",
    "solve_torus",
]

COND_DK_LIMIT = 1e8
TRIG_COND = 1e3  # the n = 3 closed form of cond(DK^T DK) holds below this
FLOOR_ULPS = 16  # round-off allowance of solve_torus's floor rule, in eps
EPS = 2.0**-52  # the float64 machine epsilon, np.finfo(float).eps
# LAPACK's SVD scales a matrix whose largest entry lies outside about
# [2^-459, 2^459] and then rounds; inside this band it returns |s| for a
# 1 x 1 matrix [s] exactly
SVD_EXACT = (2.0**-400, 2.0**400)


# the statuses of HypothesisError, each a failed hypothesis of the Newton
# step: a rank-deficient frame (cond(DK^T DK) above COND_DK_LIMIT), a
# singular averaged torsion <S> (the twist condition) and a divisor
# |k . omega| below the cohomological solve's resonance guard
HYPOTHESIS_STATUSES = ("dk_rank_deficient", "torsion_singular", "resonant_divisor")


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

    def tail_record(self) -> dict:
        """The defect's tail state as every record reports it and
        solve_torus's refinement rule reads it: norm_rho's tail_max,
        tail_sum and tail_beyond, and round_off."""
        norm = self.norm_rho
        return {"tail_max": norm.tail_max, "tail_sum": norm.tail_sum,
                "tail_beyond": norm.tail_beyond, "round_off": self.round_off}

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
    strip of half-width rho (rho = 0 gives the plain coefficient sum).
    jet, when given, is the jet of H at K's samples on the same grid; it
    is evaluated when omitted.
    """
    om = _omega_array(omega)
    n = K.dim_domain
    gs = grid_size or sampling_size(K.trunc_order)
    grad, _ = jet if jet is not None else jet_grid(hamiltonian, K.grid_samples(grid_size))
    # J = [[0, I], [-I, 0]] swaps the row blocks of grad H with a sign
    grad_c = _range_first(grad, 1)
    values = np.empty(grad_c.shape)
    values[:n] = grad_c[n:]
    np.negative(grad_c[:n], out=values[n:])
    values -= _components(K.directional(om).synthesize(gs), 1)
    values = _grid_major(values, 1)
    e = FourierMap.from_samples(values, n, K.trunc_order)
    return ErrorField(
        e=e,
        norm_rho=e.strip_norm(rho),
        norm_grid=float(np.maximum.reduce(np.abs(values), None)),
        round_off=float(FLOOR_ULPS * EPS * np.maximum.reduce(np.abs(grad), None)),
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
    return mat.swapaxes(0, 1)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of (r, k, *grid) and (k, c, *grid) fields."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Pointwise matrix-vector product of (r, c, *grid) and (c, *grid) fields."""
    return np.einsum("ij...,j...->i...", mat, vec)


def _inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a^-1 and |det a| at every grid point of an (n, n, *grid) field.

    In closed form for n <= 3, the adjugate over the determinant; by
    LAPACK for n >= 4, where a singular block raises LinAlgError.
    """
    n = a.shape[0]
    if n == 1:
        return 1.0 / a, np.abs(a[0, 0])
    if n == 2:
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        inv = np.empty_like(a)
        inv[0, 0], inv[1, 1] = a[1, 1], a[0, 0]
        np.negative(a[0, 1], out=inv[0, 1])
        np.negative(a[1, 0], out=inv[1, 0])
        inv /= det
        return inv, np.abs(det)
    if n == 3:
        inv = _adjugate3(a)
        det = a[0, 0] * inv[0, 0] + a[0, 1] * inv[1, 0] + a[0, 2] * inv[2, 0]
        inv /= det
        return inv, np.abs(det)
    grid_major = _grid_major(a, 2)
    return (_components(np.linalg.inv(grid_major), 2),
            np.abs(np.linalg.det(grid_major)))


def _gram_cond(gram: np.ndarray) -> float:
    """Grid max of the 2-norm condition number of a gram field (n, n, *grid).

    The gram is symmetric positive semi-definite, so its condition number
    is the ratio of its extreme eigenvalues, infinite once the smallest is
    <= 0.  They have closed forms for n <= 3: the entry itself at n = 1;
    at n = 2 lambda+ = tr/2 + hypot((a - d)/2, b) and lambda- = det/lambda+;
    at n = 3 lambda_max = _sym3_max(G) and lambda_min = det G over
    lambda_max lambda_mid, the largest eigenvalue of adj G, = _sym3_max of
    the adjugate.  Taking the smallest as a determinant over the others
    avoids the cancellation of tr/2 - hypot at n = 2, and at n = 3 that of
    the smallest root of the trigonometric formula and the error of its
    middle root near a double eigenvalue.  det G still loses about
    eps lambda_max^2 / (lambda_mid lambda_min) relative, so the n = 3 form
    holds only where lambda_mid >= lambda_max / TRIG_COND and
    cond <= TRIG_COND; there its relative error is at most a few
    sqrt(eps) ~ 1e-8, reached at a double eigenvalue, where arccos turns
    the round-off of its argument into its square root.  The other grid
    points, folds among them, take eigvalsh, which serves n >= 4 as well.
    """
    n = gram.shape[0]
    if n == 1:  # the ratio g / g is 1 wherever the entry g is positive and finite
        g = gram[0, 0]
        if 0 < np.minimum.reduce(g, None) and np.maximum.reduce(g, None) < np.inf:
            return 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where DK = 0
        if n == 1:
            lo = hi = gram[0, 0]
        elif n == 2:
            a, b, d = gram[0, 0], gram[0, 1], gram[1, 1]
            hi = (a + d) / 2 + np.hypot((a - d) / 2, b)
            lo = (a * d - b * b) / hi
        elif n == 3:
            adj = _adjugate3(gram)
            det = sum(gram[0, j] * adj[j, 0] for j in range(3))
            hi, top_adj = _sym3_max(gram), _sym3_max(adj)
            lo = det / top_adj
            # NaN, two small eigenvalues or a large cond: not trusted
            held = (top_adj * TRIG_COND >= hi * hi) & (lo * TRIG_COND >= hi)
            if not held.all():
                lam = np.linalg.eigvalsh(_grid_major(gram, 2)[~held])
                lo[~held], hi[~held] = lam[:, 0], lam[:, -1]
        else:
            lam = np.linalg.eigvalsh(_grid_major(gram, 2))
            lo, hi = lam[..., 0], lam[..., -1]
        ratio = np.where(lo > 0, hi / lo, np.inf)
    return float(np.maximum.reduce(ratio, None))


def _adjugate3(a: np.ndarray) -> np.ndarray:
    """The adjugate of a (3, 3, *grid) field, from its 2 x 2 minors.

    Entry (i, j) is the cofactor of a[j, i]; with the rows and columns
    of its minor taken cyclically after j and i, it needs no sign.
    """
    adj = np.empty_like(a)
    for i in range(3):
        i1, i2 = (i + 1) % 3, (i + 2) % 3
        for j in range(3):
            j1, j2 = (j + 1) % 3, (j + 2) % 3
            adj[i, j] = a[j1, i1] * a[j2, i2] - a[j1, i2] * a[j2, i1]
    return adj


def _sym3_max(a: np.ndarray) -> np.ndarray:
    """The largest eigenvalue of a symmetric (3, 3, *grid) field.

    O. K. Smith's trigonometric formula (CACM 4, 1961): with q = tr/3,
    p = sqrt(tr((a - qI)^2)/6) and r = det((a - qI)/p)/2, clipped to
    [-1, 1] against round-off, it is q + 2p cos(arccos(r)/3); where p = 0
    (a = qI) it is q.
    """
    q = (a[0, 0] + a[1, 1] + a[2, 2]) / 3
    shifted = a - q * np.eye(3).reshape((3, 3) + (1,) * q.ndim)
    p = np.sqrt((shifted[0, 0] ** 2 + shifted[1, 1] ** 2 + shifted[2, 2] ** 2
                 + 2 * (a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)) / 6)
    b = shifted / np.where(p > 0, p, 1.0)
    det_b = (b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
             - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
             + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0]))
    return q + 2 * p * np.cos(np.arccos(np.clip(det_b / 2, -1.0, 1.0)) / 3)


@dataclass(frozen=True)
class AdaptedFrame:
    """The frame M = [DK | J DK N] on the sampling grid, as n x n blocks.

    Every field is component-major, a contiguous (rows, cols, *grid) array.
    dk and jdk are DK and J DK, (2n, n, *grid); n_mat is N = (DK^T DK)^-1,
    lag the Lagrangian defect L = DK^T J DK, b = N L N and c_inv the
    inverse of C = I + L B, each (n, n, *grid).  Where L is exactly zero
    on the whole grid, as on every frame at n = 1 and on a flat circle,
    C = I and B = 0: b and c_inv are None, and nothing is formed or
    inverted for them.  abs_det is |det M| = sqrt|det C| per grid point,
    and cond the grid max of the 2-norm condition number of DK^T DK.
    """

    dk: np.ndarray
    jdk: np.ndarray
    n_mat: np.ndarray
    lag: np.ndarray
    b: np.ndarray | None
    c_inv: np.ndarray | None
    abs_det: np.ndarray
    cond: float

    @classmethod
    def build(cls, dk: np.ndarray) -> "AdaptedFrame":
        """The frame at DK on the grid.

        Raises HypothesisError when cond(DK^T DK) exceeds COND_DK_LIMIT
        somewhere on the grid, before it or C is inverted.
        """
        n = dk.shape[1]
        # J = [[0, I], [-I, 0]] swaps the (x, y) row blocks with a sign
        jdk = np.empty_like(dk)
        jdk[:n] = dk[n:]
        np.negative(dk[:n], out=jdk[n:])
        gram = _matmul(_t(dk), dk)
        cond = _gram_cond(gram)
        if cond > COND_DK_LIMIT:
            raise HypothesisError(
                "dk_rank_deficient",
                f"DK rank-deficient on grid: cond(DK^T DK) = {cond:.3e}",
            )
        n_mat, _ = _inverse(gram)
        lag = _matmul(_t(dk), jdk)
        if not np.logical_or.reduce(lag, None):  # Lagrangian on the grid: C = I
            ones = np.ones(dk.shape[2:])
            return cls(dk, jdk, n_mat, lag, None, None, ones, cond)
        b = _matmul(_matmul(n_mat, lag), n_mat)
        c = _matmul(lag, b)
        c[range(n), range(n)] += 1.0
        c_inv, det_c = _inverse(c)
        return cls(dk, jdk, n_mat, lag, b, c_inv, np.sqrt(det_c), cond)

    def apply(self, xi_t: np.ndarray, xi_n: np.ndarray) -> np.ndarray:
        """M xi = DK xi_T + J DK N xi_N on the grid: (n, *grid) in, (2n, *grid) out."""
        return _apply(self.dk, xi_t) + _apply(self.jdk, _apply(self.n_mat, xi_n))

    def solve(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(xi_T, xi_N) = M^-1 v, by the block solve of M^T J M xi = M^T J v.

        M^T J v = (w_T, w_N) = (DK^T J v, N DK^T v), and the rows
        L xi_T - xi_N = w_T, xi_T + B xi_N = w_N give
        xi_N = C^-1 (L w_N - w_T) and xi_T = w_N - B xi_N, which are
        (-w_T, w_N) where L = 0.  v is (2n, *grid), xi_T and xi_N are
        (n, *grid).
        """
        w_t = -_apply(_t(self.jdk), v)  # DK^T J = -(J DK)^T
        w_n = _apply(self.n_mat, _apply(_t(self.dk), v))
        if self.c_inv is None:
            return w_n, -w_t
        xi_n = _apply(self.c_inv, _apply(self.lag, w_n) - w_t)
        return w_n - _apply(self.b, xi_n), xi_n


@dataclass(frozen=True)
class NondegeneracyData:
    """Frame and twist data for the adapted-frame reduction.

    n_map is N = (DK^T DK)^-1 as a map on the torus, and avg_s the grid
    average of the torsion S, which must be invertible for the Newton
    step to exist.  dk_map is DK, norms(rho) the coefficient bounds of
    dk_map and n_map at a strip width rho, and norm_s_inv is |<S>^-1|_2.
    lagrangian_defect is the grid max of |DK^T J DK|, zero on a Lagrangian
    torus, and frame_min_det the grid min of |det M|; where L is exactly
    zero they are 0 and 1 without a reduction.  frame and s hold the frame
    blocks and S on the sampling grid for newton_step, component-major
    like every AdaptedFrame field: s is (n, n, *grid).
    """

    n_map: FourierMap
    dk_map: FourierMap
    avg_s: np.ndarray
    avg_s_inv: np.ndarray
    norm_s_inv: float
    frame_min_det: float
    lagrangian_defect: float
    frame: AdaptedFrame
    s: np.ndarray

    def norms(self, rho: float) -> tuple[float, float]:
        """(|DK|_rho, |N|_rho), the growth norms at strip width rho."""
        return self.dk_map.strip_norm(rho).value, self.n_map.strip_norm(rho).value


@lru_cache(maxsize=8)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the n(n+1)/2 entries on and above the diagonal,
    and the (n, n) position of entry (i, j) or (j, i) in that list."""
    rows, cols = np.triu_indices(n)
    where = np.empty((n, n), dtype=int)
    where[rows, cols] = where[cols, rows] = np.arange(rows.size)
    return rows, cols, where


def _symmetric_map(mat: np.ndarray, trunc_order: int) -> FourierMap:
    """The map of a symmetric (n, n, *grid) field at trunc_order, analyzed
    on its n(n+1)/2 entries on and above the diagonal and mirrored below."""
    n = mat.shape[0]
    if n == 1:  # the one entry is the whole triangle: nothing to mirror
        return FourierMap.from_samples(_grid_major(mat, 2), n, trunc_order)
    rows, cols, where = _triangle(n)
    tri = FourierMap.from_samples(_grid_major(mat[rows, cols], 1), n, trunc_order)
    half = np.moveaxis(tri.half, -1, 0)[where]  # (n, n, *modes), contiguous
    return FourierMap._wrap(n, _grid_major(half, 2))


def _twist(hess: dict, dk: np.ndarray) -> np.ndarray:
    """The twist T = DK^T Q DK, (n, n, *grid), from the Hessian entries hess
    that product_jet returns and component-major DK samples (2n, n, *grid).

    Q = H - J^T H J = [[A, B], [B, -A]] with A = Hxx - Hyy and
    B = Hxy + Hyx, so T = Dx^T (A Dx + B Dy) + Dy^T (B Dx - A Dy) for the
    row blocks Dx and Dy of DK.  A and B are formed from the entries
    present, an absent one being zero; where the model has no x-y entry,
    B = 0 and neither it nor its products are formed.
    """
    n = dk.shape[1]
    shape = (n, n) + dk.shape[2:]
    coupled = any(a < n <= b for a, b in hess)  # an x-y entry
    ab = np.empty((1 + coupled,) + shape)  # A, and B where the model couples x, y
    for i, j in combinations_with_replacement(range(n), 2):
        np.subtract(hess.get((i, j), 0.0), hess.get((n + i, n + j), 0.0), out=ab[0, i, j])
        if coupled:  # B_ij = Hxy_ij + Hxy_ji
            np.add(hess.get((i, n + j), 0.0), hess.get((j, n + i), 0.0), out=ab[1, i, j])
        if i != j:
            ab[:, j, i] = ab[:, i, j]
    blocks = dk.reshape((2,) + shape)  # Dx and Dy
    prod = np.einsum("sij...,tjk...->stik...", ab, blocks)  # A Dx, A Dy (B Dx, B Dy)
    if coupled:
        prod[0, 0] += prod[1, 1]  # A Dx + B Dy
        prod[1, 0] -= prod[0, 1]  # B Dx - A Dy
        q_dk = prod[:, 0]
    else:
        q_dk = prod[0]
        np.negative(q_dk[1], out=q_dk[1])  # -A Dy
    return np.einsum("pji...,pjk...->ik...", blocks, q_dk)


def nondegeneracy(hamiltonian, K: TorusEmbedding, hess=None) -> NondegeneracyData:
    """Definition-level non-degeneracy check: frame rank and averaged twist.

    The frame is built on sampling_size(M) points per axis, and N and S
    keep K's order M.  hess, when given, is the dict of Hessian entries of
    H at K's grid samples, as jet_grid returns it; it is evaluated when
    omitted.  A frame with cond(DK^T DK) above COND_DK_LIMIT is rejected
    before anything is inverted, and a singular <S> after it is averaged,
    each by a HypothesisError.

    The twist DK^T H DK - (J DK)^T H (J DK) is one quadratic form
    T = DK^T Q DK with Q = H - J^T H J, which for H = [[Hxx, Hxy],
    [Hyx, Hyy]] is [[A, B], [B, -A]], A = Hxx - Hyy and B = Hxy + Hyx,
    and S = N T N.  T is contracted from the n x n blocks A and B, formed
    from the entries the model has, and B's products are skipped where it
    has no x-y entry (_twist).  N and C^-1 come in closed form for
    n <= 3, and C = I where L = 0 (AdaptedFrame.build); N is analyzed on
    its n(n+1)/2 entries on and above the diagonal (_symmetric_map).
    """
    if hess is None:
        hess = jet_grid(hamiltonian, K.grid_samples())[1]
    m = K.trunc_order
    dk_map = K.dk()
    # DK's samples enter the frame component-major
    dk = _components(dk_map.synthesize(sampling_size(m)), 2)
    frame = AdaptedFrame.build(dk)
    twist = _twist(hess, dk)
    s = _matmul(_matmul(frame.n_mat, twist), frame.n_mat)
    avg_s = np.add.reduce(s, tuple(range(2, s.ndim))) / s[0, 0].size
    norm_s_inv, avg_s_inv = _torsion_inverse(avg_s)
    n_map = _symmetric_map(frame.n_mat, m)
    if frame.c_inv is None:  # L = 0 and C = I on the whole grid
        min_det, lag_defect = 1.0, 0.0
    else:
        min_det = float(np.minimum.reduce(frame.abs_det, None))
        lag_defect = float(np.maximum.reduce(np.abs(frame.lag), None))
    return NondegeneracyData(
        n_map=n_map,
        dk_map=dk_map,
        avg_s=avg_s,
        avg_s_inv=avg_s_inv,
        norm_s_inv=norm_s_inv,
        frame_min_det=min_det,
        lagrangian_defect=lag_defect,
        frame=frame,
        s=s,
    )


def _torsion_inverse(avg_s: np.ndarray) -> tuple[float, np.ndarray]:
    """|<S>^-1|_2 = 1 / sigma_min and <S>^-1, after the singularity check
    sigma_min >= 1e-12 max(1, sigma_max), which raises HypothesisError.

    A 1 x 1 <S> = [s] has the inverse 1 / s, and sigma = |s| where |s|
    lies in SVD_EXACT, each bit for bit what LAPACK returns.  A 2 x 2
    <S> = [[a, b], [c, d]] with entries below 2^1000 in magnitude (so
    finite, and sigma_max < 2^1002) takes both in closed form, after
    scaling by the power of two 2^-e that brings its largest entry into
    [1/2, 1) exactly, so that no step overflows or underflows where LAPACK
    would not: sigma_max = hypot(a + d, c - b)/2 + hypot(a - d, c + b)/2,
    sigma_min = |ad - bc| / sigma_max (0 for the zero matrix), and the
    inverse is the adjugate over the determinant, scaled back by 2^-e.
    Any other <S> takes its singular values from one SVD and its inverse
    from LAPACK, which raises LinAlgError on a NaN.
    """
    det = None
    if avg_s.shape == (1, 1) and SVD_EXACT[0] <= abs(avg_s[0, 0]) <= SVD_EXACT[1]:
        small = big = abs(avg_s[0, 0])
    elif avg_s.shape == (2, 2) and np.abs(avg_s).max() < 2.0**1000:
        (a, b), (c, d) = avg_s.tolist()
        e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        a, b, c, d = (math.ldexp(v, -e) for v in (a, b, c, d))
        big = (math.hypot(a + d, c - b) + math.hypot(a - d, c + b)) / 2
        det = a * d - b * c
        small = math.ldexp(abs(det) / big, e) if big else 0.0
        big = math.ldexp(big, e)
    else:
        svals = np.linalg.svd(avg_s, compute_uv=False)
        small, big = svals[-1], svals[0]
    if small < 1e-12 * max(1.0, big):
        raise HypothesisError(
            "torsion_singular",
            f"averaged torsion <S> is singular: smallest singular value "
            f"{small:.3e}",
        )
    if det is not None:
        inverse = np.ldexp(np.array([[d, -b], [-c, a]]) / det, -e)
    elif avg_s.shape == (1, 1):
        inverse = 1.0 / avg_s
    else:
        inverse = np.linalg.inv(avg_s)
    return float(1.0 / small), inverse


@dataclass(frozen=True)
class StepDiagnostics:
    """What one Newton step computed: the grid sup of its correction M xi
    and the divisor report of its normal cohomological equation.  The
    defect and frame it stepped with are its Iterate's."""

    correction_sup: float
    normal_divisors: DivisorReport


def _check_value(value: "Iterate", model, K: TorusEmbedding, name: str,
                 user: str, torus: str) -> None:
    """Reject a value of another model or torus than (model, K), or one
    evaluated off K's sampling grid; name, user and torus word the error."""
    if value.model is not model or value.K is not K:
        raise ValueError(f"{name} is of another model or torus than the {user}'s")
    if value.error.values.shape[:-1] != (sampling_size(K.trunc_order),) * K.dim_domain:
        raise ValueError(f"{name}'s grid does not match {torus}'s sampling grid")


def newton_step(hamiltonian, K: TorusEmbedding, omega: FrequencyVector,
                value: "Iterate | None" = None):
    """One quadratically convergent correction K -> K + M xi.

    The step works on K's sampling grid, sampling_size(M) points per axis,
    and every map it analyzes keeps K's order M.  value is the Iterate of
    (hamiltonian, K) it steps from: its defect, with the grid samples, and
    its frame (built on first use).  It is evaluated when omitted; a value
    of another model, torus or grid raises ValueError.  A frame that
    fails a hypothesis of the step, or a divisor below the resonance
    guard, raises HypothesisError.
    """
    n, m = K.dim_domain, K.trunc_order
    gs = sampling_size(m)
    if value is None:
        value = Iterate.evaluate(hamiltonian, K, omega)
    _check_value(value, hamiltonian, K, "step value", "step", "K")
    nd = value.frame
    # component-major from here on: each field is (components, *grid)
    eta_t, eta_n = nd.frame.solve(_components(value.error.values, 1))
    grid_axes = tuple(range(1, n + 1))

    sol_n = solve_cohomological(
        FourierMap.from_samples(_grid_major(eta_n, 1), n, m), omega
    )
    xi_n0 = _components(sol_n.solution.synthesize(gs), 1)
    s_xi_n0 = _apply(nd.s, xi_n0)
    # the grid averages of eta_T and S xi_N^0
    points = eta_t[0].size
    c_n = nd.avg_s_inv @ (
        -(np.add.reduce(eta_t, grid_axes) / points)
        - np.add.reduce(s_xi_n0, grid_axes) / points
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
    return K_next, StepDiagnostics(float(np.maximum.reduce(np.abs(delta), None)),
                                   sol_n.report)


@dataclass(frozen=True, eq=False)
class Iterate:
    """One evaluation of a model on a torus K: its jet at K's samples on
    the sampling grid gives the defect and the frame, built on first use.
    The jet's gradient goes into the defect, so hess, the dict of the
    Hessian entries the model couples (product_jet), is all of the jet
    that is kept.  Norms at another rho come from error.at and
    frame.norms, never from H."""

    model: object
    K: TorusEmbedding
    hess: dict = field(repr=False)
    error: ErrorField

    @classmethod
    def evaluate(cls, model, K: TorusEmbedding, omega, rho: float = 0.0) -> "Iterate":
        """One jet of model at K's samples and the defect it gives, at rho."""
        jet = jet_grid(model, K.grid_samples())
        return cls(model, K, jet[1], invariance_error(model, K, omega, rho=rho, jet=jet))

    @cached_property
    def frame(self) -> NondegeneracyData:
        return nondegeneracy(self.model, self.K, hess=self.hess)


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


def check_horizon(n: int, trunc_order: int, omega: FrequencyVector) -> None:
    """Reject a K0 on T^n of order trunc_order = M whose modes reach
    |k|_1 = n M beyond omega's horizon; it need not be built yet."""
    if not isinstance(omega, FrequencyVector):
        raise TypeError(f"omega must be a FrequencyVector, got {type(omega).__name__}")
    if n * trunc_order > omega.horizon:
        raise ValueError(
            f"K0 truncation order {trunc_order} on T^{n} reaches "
            f"|k|_1 = {n * trunc_order} beyond the Diophantine horizon "
            f"{omega.horizon}"
        )


def _tail_shells(K: TorusEmbedding, omega) -> list[list]:
    """Where d_omega K peaks in each half of its tail block, the shells
    M/2 < |k|_inf <= 3M/4 and 3M/4 < |k|_inf <= M: a pair [order,
    amplitude] per shell, the order |k|_inf of the shell's largest
    amplitude (over the components) and that amplitude, [0, 0.0] for an
    empty shell."""
    m = K.trunc_order
    amp = np.maximum.reduce(np.abs(_range_first(K.directional(omega).half, 1)), 0).ravel()
    order = np.abs(half_wavevectors(K.dim_domain, m)).max(axis=-1).ravel()
    shells = []
    for lo, hi in ((m / 2, 3 * m / 4), (3 * m / 4, m)):
        inside = np.flatnonzero((lo < order) & (order <= hi))
        top = inside[np.argmax(amp[inside])] if inside.size else None
        shells.append([0, 0.0] if top is None else [int(order[top]), float(amp[top])])
    return shells


def _grown_order(shells: list[list], m: int, cap: int, tol: float) -> int:
    """The order a refinement from order m takes, from _tail_shells.

    With a1 the largest amplitude of d_omega K at order o1 in the first
    shell and a2 that at o2 in the second, d_omega K decays by
    r = (a2 / a1)^(1 / (o2 - o1)) per order across the tail block.
    Extended geometrically from a2, the modes past order M' leave a
    defect of 2 a2 r^(M' + 1 - o2) / (1 - r), each mode with its
    conjugate.  The order is the least M' where that is <= tol, clamped
    to [m + 1, min(2m, cap)], and min(2m, cap) where no decay is seen
    (a1 = 0, or a2 >= a1); it is then raised to the largest order its
    sampling grid holds, (sampling_size(M') - 1) // 2, within cap.
    """
    (o1, a1), (o2, a2) = shells
    top = order = min(2 * m, cap)
    if a2 < a1:
        r = (a2 / a1) ** (1.0 / (o2 - o1))
        order = next((o for o in range(m + 1, top)
                      if 2 * a2 * r ** (o + 1 - o2) / (1 - r) <= tol), top)
    return min((sampling_size(order) - 1) // 2, cap)


def solve_torus(
    hamiltonian,
    K0: TorusEmbedding,
    omega: FrequencyVector,
    tol: float = 1e-12,
    max_iter: int = 12,
    max_trunc_order: int | None = None,
    rho: float = 0.0,
    start: Iterate | None = None,
) -> SolveResult:
    """Newton iteration with a round-off floor rule and tail-driven refinement.

    Stops when the grid sup of the defect drops below tol.  An iterate
    makes progress when its defect is below best - r, where best is the
    lowest defect so far and r is the defect's round_off.  Two consecutive
    iterates without progress end the iteration: if some iterate improved
    on the initial error, the best one is returned with status "floored"
    (the iteration hit its numerical floor), otherwise "diverged"; after
    max_iter steps it is "max_iter" unless it improved.

    The truncation order M grows before the next step when two things
    hold, both read off the defect's tail record (ErrorField.tail_record):
    the largest amplitude of its tail block, tail_max, exceeds the same
    r, and the mass its spectrum predicts past M exceeds tol.  That
    prediction is the strip norm's tail_beyond at rho: the ratio
    q = tail_sum / head of the tail block |k|_inf > M/2 to the head
    value - tail_sum, carried one block of M/2 orders further,
    tail_sum^2 / head.  A tail made of round-off never refines, and
    neither does one that decays below tol by M, however large its tail
    block.  The new order is read from the torus, not from the defect,
    whose head still holds the Newton error: d_omega K peaks at a1, at
    order o1, in the shell M/2 < |k|_inf <= 3M/4 and at a2, at order o2,
    in the shell 3M/4 < |k|_inf <= M, so it decays by
    r = (a2 / a1)^(1 / (o2 - o1)) per order.  The new order is the least
    M' whose dropped modes leave a defect 2 a2 r^(M' + 1 - o2) / (1 - r)
    <= tol, clamped to [M + 1, min(2M, cap)], or min(2M, cap) where
    a2 >= a1, and raised to the largest order its sampling grid holds
    within cap (_grown_order); cap is horizon // n, or max_trunc_order
    where that is given and lower.  Growth wanted at M = cap is blocked; a solve
    that stalls or reaches max_iter with the refinement of its last
    iterate blocked returns its best iterate with status
    "truncation_capped" instead: the cap, not round-off, held it.  An
    iterate from which no step exists (HypothesisError: its frame fails a
    hypothesis, or a cohomological solve of its step meets a resonant
    divisor) ends the solve there, with the best iterate and the
    failure's status, one of HYPOTHESIS_STATUSES.

    The trace has a row per Newton step and one for the last iterate it
    evaluated, whichever rule ended the solve, so each status can be read
    off the rows.  Every row records the iterate's defect ("error") and
    the tail record that decided its refinement (tail_max, tail_sum,
    tail_beyond and round_off, r) at the order the iterate was first
    evaluated at, the odd grid size N = sampling_size(M) its defect
    was evaluated on ("grid") and the jets of H it used ("jets": 1, or 2
    when it was resized, the jet at its old order and the one at the new,
    whose grid the row then records).  A step row also records the growth
    quantities (|DK|, |N|, |<S>^-1|), the frame's min |det M|, the
    Lagrangian defect max |DK^T J DK|, all from the Iterate the step took,
    and the corrected iterate's truncation order; its "error" is that of
    the iterate the step corrected, after any refinement.  A row that
    refines records the peaks its new order was read from,
    "refine_decay": [[o1, a1], [o2, a2]], and a row whose refinement was
    blocked records "refine_blocked": True; no other row has either key.
    The row of an iterate from which no step exists records the
    failure's message as "hypothesis_failed".

    omega is a FrequencyVector (a bare array raises TypeError), and every
    retained mode must stay inside its Diophantine horizon,
    |k|_1 <= n M <= horizon: a K0 beyond it is rejected before any work,
    and refinement stops at horizon // n.
    start, when given, is the Iterate of (hamiltonian, K0) on K0's
    sampling grid and serves as the first iterate; its norms are taken
    at rho.  A start value of another model, torus or grid raises
    ValueError.
    """
    check_horizon(K0.dim_domain, K0.trunc_order, omega)
    cap = omega.horizon // K0.dim_domain
    if max_trunc_order is not None:
        cap = min(cap, max_trunc_order)
    if start is not None:
        _check_value(start, hamiltonian, K0, "start value", "solve", "K0")
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
        tail = err.tail_record()
        row = {"iter": it, "error": err.norm_grid, **tail,
               "grid": err.values.shape[0], "jets": 1}
        refine = tail["tail_max"] > tail["round_off"] and tail["tail_beyond"] > tol
        blocked = refine and K.trunc_order >= cap
        if blocked:
            row["refine_blocked"] = True
        stalls = 0 if err.norm_grid < best_err - err.round_off else stalls + 1
        if err.norm_grid < best_err:
            best_err, best = err.norm_grid, value
        if err.norm_grid <= tol or stalls >= 2 or it == max_iter:
            trace.append(row)
            break
        if refine and not blocked:
            shells = _tail_shells(K, omega)
            row["refine_decay"] = shells
            K = K.resized(_grown_order(shells, K.trunc_order, cap, tol))
            value = Iterate.evaluate(hamiltonian, K, omega, rho)
            err = value.error
            row["grid"] = err.values.shape[0]
            row["jets"] += 1
        try:
            nd = value.frame
            norm_dk, norm_n = nd.norms(rho)
            K, diag = newton_step(hamiltonian, K, omega, value)
        except HypothesisError as exc:  # no step exists from this iterate
            trace.append({**row, "error": err.norm_grid, "hypothesis_failed": str(exc)})
            return SolveResult(exc.status, best, best_err, it, trace)
        trace.append(
            {
                **row,
                "error": err.norm_grid,
                "correction": diag.correction_sup,
                "norm_dk": norm_dk,
                "norm_n": norm_n,
                "norm_s_inv": nd.norm_s_inv,
                "min_divisor": diag.normal_divisors.min_divisor,
                "frame_min_det": nd.frame_min_det,
                "lagrangian_defect": nd.lagrangian_defect,
                "trunc_order": K.trunc_order,
            }
        )
    if err.norm_grid <= tol:
        return SolveResult("converged", value, err.norm_grid, it, trace)
    if blocked:
        status = "truncation_capped"
    elif best_err < initial:
        status = "floored"
    else:
        status = "diverged" if stalls >= 2 else "max_iter"
    return SolveResult(status, best, best_err, it, trace)

