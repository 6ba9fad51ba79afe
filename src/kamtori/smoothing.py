"""Analytic smoothing of finitely differentiable Hamiltonians.

Three layers:

1. Approximation operators on boxes.  Bernstein operators: 1-D and
   tensor-product polynomial approximants, with exact derivative calculus
   in the Bernstein basis (forward differences of coefficients).
   Evaluation goes through the binomial pmf, which stays stable at
   degrees far past the point where explicit binomial coefficients
   overflow.  The tensor-product operator maps a product of 1-D functions
   to the product of their 1-D approximants (Lorentz, Bernstein
   Polynomials, 1953), so a target given as a short sum of such products
   (SeparableFunction) gets an approximant of the same rank built from
   1-D samples alone: a SeparableRung, whose values, jets and C^l gaps
   come from one (rank, .) table per axis combined by outer products; the
   dense (k+1)^d coefficient lattice is never formed, and
   bernstein_tensor keeps the dense operator as the oracle.  A real table
   holds Bernstein coefficients (bernstein_nd builds one on every axis).
   The ladder's rungs (rung_nd) take the de la Vallee-Poussin mean V_N on
   the periodic axes instead, a complex half spectrum: one rfft of 8N
   samples per axis, mode k weighted by 1 up to N and by 2 - k/N up to 2N
   (Zygmund, Trigonometric Series, ch. III).  V_N is a trigonometric
   polynomial, so a rung matches with every derivative across the angle
   chart's seam x = 0 == 1, where a Bernstein polynomial on [0, 1]
   matches values only; the action axes keep the degree-N Bernstein
   factor.
2. Cutoff extension: a C-infinity plateau bump, a product of per-axis
   e^{-1/t} smoothsteps in the action variables, equal to 1 on a
   neighbourhood of the action hull of an initial torus and to 0 outside
   a larger one, used to localize the rough (finitely differentiable)
   part of a Hamiltonian to a compact box.  It keeps only the hull
   bounds and costs O(points) per evaluation.  Each rough summand is a
   1-D profile, so the cut rough part is a sum of products of 1-D
   functions, one product per rough coordinate.
3. The smoothing sequence: entire models H_0, H_1, ... at doubling
   degrees whose consecutive C^3 gaps are measured and enveloped by
   A * 4^(-k(l+2*sigma)), re-anchored at the first index whose gap drops
   below the initial invariance error.

Only the rough summands of a Hamiltonian are cut off and smoothed; an
analytic summand is entire, needs no extension, and multiplying it by the
bump would manufacture exactly the large C^3 oscillations the smoothing
is meant to remove.  Gap measurements are unaffected (exact summands
cancel in differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product as iter_product

import numpy as np

from .fourier import TorusEmbedding
from .hamiltonian import (Box, CompositeHamiltonian, HamiltonianModel, SumModel,
                          SumOfProducts)

__all__ = [
    "BernsteinApproximant",
    "CutoffHamiltonian",
    "PlateauBump",
    "SeparableFunction",
    "SeparableRung",
    "SmoothingSequence",
    "bernstein_1d",
    "bernstein_derivative",
    "bernstein_nd",
    "build_smoothing_sequence",
    "cl_gap",
    "cl_norm",
    "cutoff_extend",
    "rung_nd",
    "unit_box",
]


def unit_box(dim: int) -> Box:
    return Box(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))


def _as_box(box, dim: int | None) -> Box:
    """box as a Box; None is the unit box, and dim, when given, is checked."""
    if box is None:
        return unit_box(dim)
    if not isinstance(box, Box):
        arr = np.atleast_2d(np.asarray(box, dtype=float))
        if arr.shape[1:] != (2,):
            raise ValueError("box must be a Box or an array of (lo, hi) pairs")
        box = Box(arr[:, 0], arr[:, 1], np.zeros(arr.shape[0], dtype=bool))
    if dim is not None and box.dim != dim:
        raise ValueError(f"box has {box.dim} axes, expected {dim}")
    return box


# -- C^l norms on boxes ------------------------------------------------------

# central stencils on offsets (-2, -1, 0, 1, 2); order of accuracy >= h^2
_STENCILS = {
    0: np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
    1: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    2: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
    3: np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / 2.0,
    4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
}
_OFFSETS = np.arange(-2.0, 3.0)


def _multi_indices(dim: int, order: int):
    for alpha in iter_product(range(order + 1), repeat=dim):
        if 0 < sum(alpha) <= order or sum(alpha) == 0:
            yield alpha


def _stencil_plan(dim: int, order: int, h: np.ndarray):
    """Shared offset grid and per-alpha weight tables for one batched pass.

    Every |alpha| <= order derivative is a weighted sum of the function on
    integer-offset shifts of the base grid; pooling the shifts lets one
    function call serve all derivatives at once.
    """
    offsets: dict[tuple, int] = {}
    rows = []
    for alpha in _multi_indices(dim, order):
        axes = [a for a in range(dim) if alpha[a] > 0]
        combos = []
        if not axes:
            key = (0,) * dim
            idx = offsets.setdefault(key, len(offsets))
            combos.append((1.0, idx))
        else:
            for combo in iter_product(range(5), repeat=len(axes)):
                w = 1.0
                key = [0] * dim
                for a, ci in zip(axes, combo):
                    w *= _STENCILS[alpha[a]][ci]
                    key[a] = ci - 2
                if w == 0.0:
                    continue
                idx = offsets.setdefault(tuple(key), len(offsets))
                combos.append((w, idx))
        scale = math.prod(h[a] ** alpha[a] for a in axes)
        rows.append((alpha, combos, scale))
    shift = np.array([list(k) for k in offsets], dtype=float) * h
    return shift, rows


def _stencil_all(fun, pts: np.ndarray, order: int, h: np.ndarray):
    """All D^alpha fun, |alpha| <= order, from a single batched evaluation."""
    base = pts.shape[:-1]
    dim = pts.shape[-1]
    shift, rows = _stencil_plan(dim, order, h)
    stacked = pts.reshape(1, -1, dim) + shift[:, None, :]
    vals = np.asarray(fun(stacked.reshape(-1, dim)), dtype=float)
    vals = vals.reshape(shift.shape[0], -1)
    out = {}
    for alpha, combos, scale in rows:
        acc = np.zeros(vals.shape[1])
        for w, idx in combos:
            acc += w * vals[idx]
        out[alpha] = (acc / scale).reshape(base)
    return out


def _grid_axes(
    box: Box, points_per_axis: int, margin: np.ndarray, stagger: bool = False
) -> list[np.ndarray]:
    """The 1-D axes whose outer product is the measurement grid."""
    axes = []
    for i in range(box.dim):
        lo, hi = box.lo[i], box.hi[i]
        if box.periodic[i]:
            idx = np.arange(points_per_axis) + (0.5 if stagger else 0.0)
            axes.append(lo + (hi - lo) * idx / points_per_axis)
        else:
            axes.append(np.linspace(lo + margin[i], hi - margin[i], points_per_axis))
    return axes


def _stencil_step(box: Box, points_per_axis: int) -> np.ndarray:
    """Step sizes width/100 whose 2h stencil reach stays off seams and boundaries.

    On periodic axes the measurement grid is staggered off the chart seam,
    where a wrapped polynomial has derivative kinks; h is capped so no
    shifted point crosses it.
    """
    h = box.widths() / 100.0
    cap = box.widths() * 0.25 / points_per_axis
    return np.where(box.periodic, np.minimum(h, cap), h)


def cl_norm(fun, box, order: int = 3, points_per_axis: int = 64) -> float:
    """Max over |alpha| <= order of sup |D^alpha fun| on a dense box grid.

    A sum of products (any model: it offers axis_values) is measured from
    its per-axis tables (_factored_sup), never evaluated on the grid, with
    exact derivatives unless its tables offer values only
    (derivative_tables false: a SeparableFunction part).  Another fun has
    exact derivatives when it supports .derivative(alpha) (Bernstein
    coefficient calculus).  Otherwise 5-point central stencils with
    per-axis step h = width/100 are taken on a grid staggered off the
    seams.  The grid density is a declared approximation of the sup.
    """
    return max(_cl_sup([fun], box, order, points_per_axis))


def cl_gap(f, g, box, order: int = 3, points_per_axis: int = 64) -> float:
    """Max over |alpha| <= order of sup |D^alpha (f - g)| on a box grid.

    Exact derivatives on the plain grid when both sides have them, else
    5-point stencils on the staggered grid, as in cl_norm.  When both
    sides are sums of products the same numbers come from per-axis tables
    (_factored_sup) without evaluating either side on the grid.
    """
    return max(_cl_sup([f, g], box, order, points_per_axis))


def _cl_sup(funs, box, order: int, points_per_axis: int) -> list[float]:
    """Per q <= order, the max over |alpha| = q of the sup |D^alpha| of
    funs[0], or with a second entry of funs[0] - funs[1]: cl_norm and
    cl_gap are the max of this list, and its entry 0 is the C^0 sup."""
    box = _as_box(box, next((f.dim for f in funs if getattr(f, "dim", None)), None))
    factored = all(hasattr(f, "axis_values") for f in funs)
    exact = all(f.derivative_tables if factored else hasattr(f, "derivative")
                for f in funs)
    if exact:
        h = None
        axes = _grid_axes(box, points_per_axis, np.zeros(box.dim))
    else:
        h = _stencil_step(box, points_per_axis)
        axes = _grid_axes(
            box, points_per_axis, np.where(box.periodic, 0.0, 2 * h), True
        )
    if factored:
        return _factored_sup(funs, axes, order, h)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    signs = (1.0, -1.0)[: len(funs)]
    out = [0.0] * (order + 1)
    if exact:
        for alpha in _multi_indices(box.dim, order):
            vals = sum(s * f.derivative(alpha)(pts) for s, f in zip(signs, funs))
            out[sum(alpha)] = max(out[sum(alpha)], float(np.max(np.abs(vals))))
        return out
    diff = lambda z: sum(s * np.asarray(f(z), dtype=float) for s, f in zip(signs, funs))
    for alpha, vals in _stencil_all(diff, pts, order, h).items():
        out[sum(alpha)] = max(out[sum(alpha)], float(np.max(np.abs(vals))))
    return out


def _axis_tables(fun, axis: int, u: np.ndarray, order: int, h) -> np.ndarray:
    """(order+1, rank, len(u)): D^q of every term's factor along one axis.

    Exact derivatives when h is None, else the 1-D stencils of _STENCILS
    at step h[axis]; a tensor stencil of a product is the product of these.
    A term whose factor along the axis is 1 gets the rows 1, 0, 0, ...
    """
    rows = fun.support(axis)
    if not len(rows):
        part = np.zeros((order + 1, 0, u.size))
    elif h is None:
        part = fun.axis_values(axis, u, order)
    else:
        shifted = u[None, :] + (_OFFSETS * h[axis])[:, None]
        vals = fun.axis_values(axis, shifted.reshape(-1), 0)[0].reshape(-1, 5, u.size)
        part = np.stack([vals[:, 2]] + [
            np.tensordot(vals, _STENCILS[q], axes=([1], [0])) / h[axis] ** q
            for q in range(1, order + 1)
        ])
    if len(rows) == fun.rank:
        return part
    out = np.zeros((order + 1, fun.rank, u.size), dtype=part.dtype)
    out[0] = 1.0
    out[:, rows] = part
    return out


def _outer_rows(rows: list[np.ndarray], rank: int) -> np.ndarray:
    """(rank, prod m_i): per term, the outer product of its axis rows."""
    out = np.ones((rank, 1))
    for row in rows:
        out = (out[:, :, None] * row[:, None, :]).reshape(rank, -1)
    return out


def _factored_sup(funs, axes: list[np.ndarray], order: int, h) -> list[float]:
    """_cl_sup of sums of products on the outer-product grid of axes.

    f - g = sum_r prod_i t_{r,i}(z_i) with g's terms negated on axis 0, so
    D^alpha (f - g) on the grid is sum_r of outer products of 1-D tables;
    the axes are split in two halves and the sum over r is one matrix
    product per alpha.  Complex tables sum to a real function: the real
    part is measured.
    """
    tables = [
        np.concatenate([_axis_tables(f, i, u, order, h) for f in funs], axis=1)
        for i, u in enumerate(axes)
    ]
    if len(funs) == 2:
        tables[0][:, funs[0].rank:] *= -1.0
    rank = tables[0].shape[1]
    split = (len(axes) + 1) // 2
    out = [0.0] * (order + 1)
    for alpha in _multi_indices(len(axes), order):
        rows = [t[q] for t, q in zip(tables, alpha)]
        vals = _outer_rows(rows[:split], rank).T @ _outer_rows(rows[split:], rank)
        out[sum(alpha)] = max(out[sum(alpha)], float(np.max(np.abs(vals.real))))
    return out


# -- Bernstein approximants --------------------------------------------------


_LOG_BINOM: dict[int, np.ndarray] = {}


def _log_binom(degree: int) -> np.ndarray:
    """log C(degree, i) for i = 0..degree, from a log-factorial table."""
    tab = _LOG_BINOM.get(degree)
    if tab is None:
        lf = np.array([math.lgamma(j + 1) for j in range(degree + 1)])
        tab = lf[degree] - lf - lf[::-1]
        _LOG_BINOM[degree] = tab
    return tab


def _basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Bernstein basis rows C(k,i) t^i (1-t)^(k-i), stable at large degree.

    Computed in log space with a cached log-binomial table; equals the
    binomial pmf at parameter t but far cheaper when reused across calls.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)[:, None]
    i = np.arange(degree + 1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = _log_binom(degree) + i * np.log(t) + (degree - i) * np.log(1.0 - t)
        out = np.exp(logs)
    edge0 = t[:, 0] == 0.0
    edge1 = t[:, 0] == 1.0
    if np.any(edge0):
        out[edge0] = 0.0
        out[edge0, 0] = 1.0
    if np.any(edge1):
        out[edge1] = 0.0
        out[edge1, degree] = 1.0
    return out


def _bernstein_rows(coeff: np.ndarray, box: Box, axis: int, q: int) -> np.ndarray:
    """The q-th derivative along a box axis of Bernstein coefficients coeff,
    indexed by their last dimension: scaled forward differences.

    Degree k becomes k - q, with coefficients k(k-1)...(k-q+1) * Delta^q c
    divided by the box width^q (chain rule of the affine chart).
    """
    k = coeff.shape[-1] - 1
    if q < 0:
        raise ValueError("derivative orders must be >= 0")
    if q > k:
        raise ValueError(f"order {q} exceeds degree {k} on axis {axis}")
    if q:
        scale = math.prod(range(k - q + 1, k + 1)) / box.widths()[axis] ** q
        coeff = np.diff(coeff, n=q, axis=-1) * scale
    return coeff


@dataclass(frozen=True)
class BernsteinApproximant:
    """Tensor-product polynomial in Bernstein form over a box.

    coefficients has shape (k_1+1, ..., k_d+1).  For operators built
    directly from samples they are the f(p/k) lattice, and the
    convex-combination property pins the range to [min, max] of the
    samples.
    """

    degrees: tuple[int, ...]
    box: Box
    coefficients: np.ndarray
    report: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        degrees = tuple(int(k) for k in self.degrees)
        coeff = np.asarray(self.coefficients, dtype=float)
        want = tuple(k + 1 for k in degrees)
        if coeff.shape != want:
            raise ValueError(f"coefficients shape {coeff.shape}, expected {want}")
        if len(degrees) != self.box.dim:
            raise ValueError("degrees and box dimension differ")
        coeff = np.array(coeff)
        coeff.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def _unit(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.dim == 1 and (z.ndim == 0 or z.shape[-1] != 1):
            z = z[..., None]
        z = self.box.wrap(z)
        return (z - self.box.lo) / self.box.widths()

    def __call__(self, z: np.ndarray) -> np.ndarray:
        t = self._unit(z)
        base = t.shape[:-1]
        pts = t.reshape(-1, self.dim)
        out = np.empty(pts.shape[0])
        # chunked so per-axis basis matrices stay modest at high degree
        chunk = max(1, 4_000_000 // (max(self.degrees) + 1))
        for s in range(0, pts.shape[0], chunk):
            block = pts[s : s + chunk]
            cur = np.tensordot(
                _basis(self.degrees[0], block[:, 0]),
                self.coefficients,
                axes=([1], [0]),
            )
            for axis in range(1, self.dim):
                b = _basis(self.degrees[axis], block[:, axis])
                cur = np.einsum("pi,pi...->p...", b, cur)
            out[s : s + chunk] = cur
        return out.reshape(base)

    def derivative(self, orders) -> "BernsteinApproximant":
        """Exact D^orders in Bernstein form, axis by axis (_bernstein_rows)."""
        orders = tuple(int(q) for q in orders)
        if len(orders) != self.dim:
            raise ValueError("orders must give one entry per axis")
        coeff = self.coefficients
        for axis, q in enumerate(orders):
            rows = _bernstein_rows(np.moveaxis(coeff, axis, -1), self.box, axis, q)
            coeff = np.moveaxis(rows, -1, axis)
        degrees = tuple(k - q for k, q in zip(self.degrees, orders))
        return BernsteinApproximant(degrees, self.box, coeff)

    def __repr__(self):
        return f"BernsteinApproximant(degrees={self.degrees})"


def bernstein_1d(f, k: int, box=None) -> BernsteinApproximant:
    """Degree-k Bernstein operator from samples f(a + (b-a) p/k), p = 0..k."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    box = _as_box(box, 1)
    nodes = box.lo[0] + box.widths()[0] * np.arange(k + 1) / k
    if callable(f):
        samples = np.asarray(f(nodes[:, None]), dtype=float).reshape(-1)
    else:
        samples = np.asarray(f, dtype=float).reshape(-1)
    if samples.size != k + 1:
        raise ValueError(f"need {k + 1} samples at the nodes, got {samples.size}")
    return BernsteinApproximant((k,), box, samples)


def bernstein_derivative(approx: BernsteinApproximant, q: int) -> BernsteinApproximant:
    """q-th derivative of a 1-D approximant in finite-difference form."""
    if approx.dim != 1:
        raise ValueError("bernstein_derivative expects a 1-D approximant")
    return approx.derivative((q,))


def bernstein_tensor(f, degrees, box=None) -> BernsteinApproximant:
    """Plain tensor-product operator: sample f on the full node lattice."""
    degrees = tuple(int(k) for k in np.atleast_1d(degrees))
    box = _as_box(box, len(degrees))
    axes = [
        box.lo[i] + box.widths()[i] * np.arange(k + 1) / k
        for i, k in enumerate(degrees)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack(mesh, axis=-1)
    samples = np.asarray(f(lattice), dtype=float)
    return BernsteinApproximant(degrees, box, samples)


class SeparableFunction(SumOfProducts):
    """f(z) = sum_r prod_i g_{r,i}(z_i): a short sum of products of 1-D functions.

    terms[r][i] is a callable of one coordinate's values, or None for the
    constant 1.  Only values are offered; the operators sample them.
    """

    derivative_tables = False

    def __init__(self, terms):
        self.terms = tuple(tuple(t) for t in terms)
        if not self.terms or len({len(t) for t in self.terms}) != 1:
            raise ValueError("need at least one term, each with one factor per axis")
        self.dim = len(self.terms[0])

    @property
    def rank(self) -> int:
        return len(self.terms)

    def support(self, axis: int) -> np.ndarray:
        return np.array([r for r, t in enumerate(self.terms) if t[axis] is not None],
                        dtype=int)

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        """(1, len(support(axis)), len(u)): the factors along axis at the points u."""
        if q:
            raise ValueError("a SeparableFunction offers values only")
        u = np.asarray(u, dtype=float)
        return np.stack([np.asarray(t[axis](u), dtype=float) for t in self.terms
                         if t[axis] is not None])[None]


# -- factored approximants ---------------------------------------------------


def _elevate(rows: np.ndarray, degree: int) -> np.ndarray:
    """Bernstein coefficients of the same polynomials at a higher degree.

    One step from degree m takes c'_i = (i c_{i-1} + (m + 1 - i) c_i) / (m + 1),
    a convex combination, so it is stable at any degree.
    """
    while rows.shape[-1] <= degree:
        m = rows.shape[-1] - 1
        w = np.arange(1, m + 1) / (m + 1)
        out = np.empty(rows.shape[:-1] + (m + 2,))
        out[..., 0], out[..., -1] = rows[..., 0], rows[..., -1]
        out[..., 1:-1] = w * rows[..., :-1] + (1.0 - w) * rows[..., 1:]
        rows = out
    return rows


def _bernstein_values(coeff: np.ndarray, box: Box, axis: int, u: np.ndarray,
                      q: int) -> np.ndarray:
    """(q+1, rows, len(u)): D^0..D^q of Bernstein rows coeff along a box axis.

    The degree-N basis is evaluated once: order j's differenced rows, of
    degree N - j, are raised back to degree N, and each order is one
    product with that basis, so an order's table does not depend on q.
    """
    u = box.wrap_axis(axis, u)
    t = (u - box.lo[axis]) / box.widths()[axis]
    k = coeff.shape[1] - 1
    rows = [_elevate(_bernstein_rows(coeff, box, axis, j), k) for j in range(q + 1)]
    out = np.empty((q + 1, coeff.shape[0], t.size))
    # chunked so the basis matrix stays modest at high degree
    chunk = max(1, 4_000_000 // (k + 1))
    for s in range(0, t.size, chunk):
        basis = _basis(k, t[s : s + chunk]).T
        for j, r in enumerate(rows):
            out[j, :, s : s + chunk] = r @ basis
    return out


def _vallee_poussin_half(samples: np.ndarray, N: int) -> np.ndarray:
    """(rows, 2N) half spectrum c_k, k = 0..2N-1, of V_N of periodic samples.

    samples holds one row per term on P >= 4N uniform points of the
    period; one rfft takes every row.  Mode k is weighted by 1 for
    k <= N, by 2 - k/N for N < k <= 2N and by 0 beyond; a mode k > 0
    stands for itself and its conjugate, so it is doubled and
    Re sum_k c_k e^{2 pi i k t} is the mean.
    """
    k = np.arange(2 * N)
    weight = np.minimum(1.0, 2.0 - k / N) * np.where(k > 0, 2.0, 1.0)
    return np.fft.rfft(samples, axis=1)[:, : 2 * N] * (weight / samples.shape[1])


def _vallee_poussin_values(coeff: np.ndarray, box: Box, axis: int, u: np.ndarray,
                           q: int) -> np.ndarray:
    """(q+1, rows, len(u)): D^0..D^q of half spectra coeff along a box axis.

    The waves e^{2 pi i k t}, k < K, come from B = ceil(sqrt(K)) baby steps
    e^{2 pi i l t} and ceil(K / B) giant steps e^{2 pi i B h t}, one
    product each, so a point costs about 2 sqrt(K) exponentials, not K.
    """
    width = box.widths()[axis]
    modes = coeff.shape[1]
    k = np.arange(modes)
    step = math.isqrt(modes - 1) + 1
    baby, giant = np.arange(step), step * np.arange(-(-modes // step))
    t = (np.asarray(u, dtype=float).reshape(-1) - box.lo[axis]) / width
    # one product per order, so a table does not depend on q
    scaled = [coeff * (2j * np.pi * k / width) ** j for j in range(q + 1)]
    out = np.empty((q + 1, coeff.shape[0], t.size))
    # chunked so the exponential tables stay modest at high N
    chunk = max(1, 4_000_000 // modes)
    for s in range(0, t.size, chunk):
        ts = t[s : s + chunk]
        waves = (np.exp(2j * np.pi * np.outer(giant, ts))[:, None, :]
                 * np.exp(2j * np.pi * np.outer(baby, ts))[None, :, :])
        waves = waves.reshape(-1, ts.size)[:modes]
        for j, c in enumerate(scaled):
            out[j, :, s : s + chunk] = (c @ waves).real
    return out


@dataclass(frozen=True)
class SeparableRung(SumOfProducts):
    """A factored approximant sum_r prod_i R_{r,i}(z_i) over a box.

    factors[i] holds one row per term, and its dtype names R's basis along
    axis i (basis(i)).  A complex (rank, 2N) table is the half spectrum of
    the de la Vallee-Poussin mean V_N of the term's factor, R(z) =
    Re sum_k c_k e^{2 pi i k t} with t = (z - lo)/w, and D multiplies mode
    k by 2 pi i k / w: a trigonometric polynomial, allowed on periodic axes
    only, that matches with every derivative across the chart's seam.  A
    real (rank, N + 1) table holds degree-N Bernstein coefficients; on a
    periodic axis it wraps, and matches values only across the seam.  The
    dense coefficient lattice is never formed.  The approximant is entire,
    a Hamiltonian part of class C^inf.
    """

    box: Box
    factors: tuple
    report: dict | None = field(default=None, compare=False, repr=False)

    smoothness_class = math.inf

    def __post_init__(self):
        if len(self.factors) != self.box.dim:
            raise ValueError("need one factor table per box axis")
        factors = []
        for axis, f in enumerate(self.factors):
            f = np.array(f)
            if not np.iscomplexobj(f):
                f = f.astype(float)
            elif not self.box.periodic[axis]:
                raise ValueError(f"axis {axis} is not periodic: a complex table "
                                 "(a half spectrum) needs a periodic axis")
            f.flags.writeable = False
            factors.append(f)
        if any(f.ndim != 2 or f.shape[0] != factors[0].shape[0] for f in factors):
            raise ValueError("factor tables must be (rank, columns) with one rank")
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[0]

    @property
    def degrees(self) -> tuple[int, ...]:
        """N per axis: the mean's index on a half spectrum, else the degree."""
        return tuple(f.shape[1] // 2 if np.iscomplexobj(f) else f.shape[1] - 1
                     for f in self.factors)

    def basis(self, axis: int) -> str:
        return "vallee_poussin" if np.iscomplexobj(self.factors[axis]) else "bernstein"

    def support(self, axis: int) -> np.ndarray:
        return np.arange(self.rank)

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        """(q+1, rank, len(u)): D^0..D^q of every term's factor along axis at u."""
        coeff = self.factors[axis]
        values = _vallee_poussin_values if np.iscomplexobj(coeff) else _bernstein_values
        return values(coeff, self.box, axis, u, q)

    def __repr__(self):
        return f"SeparableRung(degrees={self.degrees}, rank={self.rank})"


# the benchmark tracer (perfbench/tracing.py) wraps jet_batch under this name
BernsteinHamiltonian = SeparableRung


def _axis_samples(f, box: Box, axis: int, count: int, step: int) -> np.ndarray:
    """(rank, count): every term's factor along axis at lo + w p / step, p < count."""
    u = box.lo[axis] + box.widths()[axis] * np.arange(count) / step
    return _axis_tables(f, axis, u, 0, None)[0]


def _measured(f, box: Box, factors: list, measure_points: int) -> SeparableRung:
    """The SeparableRung of factors; report["composite_c3_gap"] is its C^3
    gap to f on the measure_points grid (cl_gap's stencil path)."""
    out = SeparableRung(box, tuple(factors))
    gap = cl_gap(out, f, box, 3, measure_points)
    object.__setattr__(out, "report", {"composite_c3_gap": gap})
    return out


def bernstein_nd(f: SeparableFunction, k: int, box=None,
                 measure_points: int = 33) -> SeparableRung:
    """Degree-k tensor-product Bernstein operator of a sum of products.

    The operator maps prod_i g_i(z_i) to prod_i B_k[g_i](z_i), so the
    approximant of f = sum_r prod_i g_{r,i} is sum_r prod_i B_k[g_{r,i}]:
    rank r, built from the 1-D samples g_{r,i}(lo_i + w_i p/k) alone, with
    a real table on every axis.  It is the polynomial
    bernstein_tensor(f, (k,) * d, box) gives.
    """
    k = int(k)
    if k < 3:
        raise ValueError("degree must be >= 3")
    box = _as_box(box, f.dim)
    factors = [_axis_samples(f, box, i, k + 1, k) for i in range(box.dim)]
    return _measured(f, box, factors, measure_points)


def rung_nd(f: SeparableFunction, N: int, box=None,
            measure_points: int = 33) -> SeparableRung:
    """The ladder's rung of index N for a sum of products.

    Each term's factor along a periodic axis is sampled on 8N uniform
    points and replaced by its de la Vallee-Poussin mean V_N, along an
    action axis by its degree-N Bernstein polynomial (samples at the N + 1
    nodes).  V_N reproduces trigonometric polynomials of degree <= N and
    its error is at most 4 E_N, so the angle factors converge at Jackson's
    rate and match with every derivative across the seam.
    """
    N = int(N)
    if N < 3:
        raise ValueError("degree must be >= 3")
    box = _as_box(box, f.dim)
    factors = [_vallee_poussin_half(_axis_samples(f, box, i, 8 * N, 8 * N), N)
               if box.periodic[i] else _axis_samples(f, box, i, N + 1, N)
               for i in range(box.dim)]
    return _measured(f, box, factors, measure_points)


# -- cutoff extension ---------------------------------------------------------

# measured sups of d^q/dt^q of the e^{-1/t} smoothstep on (0, 1)
_SMOOTHSTEP_DERIV_SUP = (1.0, 2.0, 9.842, 110.567, 2280.398)


class PlateauBump:
    """C-infinity plateau around the action hull of a sampled torus image.

    phi(z) = prod_i s((5r/2 - g_i(y_i)) / (3r/2)) with s the e^{-1/t}
    smoothstep and g_i the distance of the i-th non-periodic coordinate to
    the interval [min, max] of the samples' i-th coordinate.  Periodic
    (angle) coordinates get no cutoff.  phi is identically 1 where every
    g_i <= r and identically 0 where some g_i >= 5r/2: the plateau and the
    support of the max-norm hull.  Each g_i has its kinks only inside the
    plateau, so phi is C-infinity.  ``anchors`` holds the (2, m) hull
    bounds [lo; hi] of the m non-periodic coordinates.
    """

    def __init__(self, samples: np.ndarray, r: float, periodic: np.ndarray):
        if r <= 0:
            raise ValueError("plateau radius must be positive")
        self.periodic = np.asarray(periodic, dtype=bool)
        samples = np.asarray(samples, dtype=float).reshape(-1, self.periodic.size)
        actions = samples[:, ~self.periodic]
        self.anchors = np.stack([actions.min(axis=0), actions.max(axis=0)])
        self.r = float(r)

    @staticmethod
    def smoothstep(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            g = np.where(tc > 0, np.exp(-1.0 / np.where(tc > 0, tc, 1.0)), 0.0)
            gm = np.where(tc < 1, np.exp(-1.0 / np.where(tc < 1, 1.0 - tc, 1.0)), 0.0)
        return g / (g + gm)

    def distance(self, z: np.ndarray) -> np.ndarray:
        """Per-axis gaps g_i of the non-periodic coordinates to the hull."""
        y = np.asarray(z, dtype=float)[..., ~self.periodic]
        lo, hi = self.anchors
        return np.maximum(np.maximum(lo - y, y - hi), 0.0)

    def _profile(self, g: np.ndarray) -> np.ndarray:
        return self.smoothstep((2.5 * self.r - g) / (1.5 * self.r))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.prod(self._profile(self.distance(z)), axis=-1)

    def axis_factor(self, i: int, y: np.ndarray) -> np.ndarray:
        """The factor of phi along the i-th non-periodic coordinate, at values y."""
        lo, hi = self.anchors[:, i]
        y = np.asarray(y, dtype=float)
        return self._profile(np.maximum(np.maximum(lo - y, y - hi), 0.0))

    def derivative_bound(self, q: int) -> float:
        """Bound on |d^q phi| along any direction v with |v|_inf = 1.

        Leibniz over the action factors: sum over |beta| = q of
        (q! / beta!) prod_i S_{beta_i} / (1.5 r)^q, S_j the profile sups;
        with one action axis this is the sup itself.
        """
        if not 0 <= q <= 4:
            raise ValueError("bounds tabulated for orders 0..4")
        total = 0.0
        for beta in iter_product(range(q + 1), repeat=self.anchors.shape[1]):
            if sum(beta) == q:
                total += math.factorial(q) * math.prod(
                    _SMOOTHSTEP_DERIV_SUP[b] / math.factorial(b) for b in beta
                )
        return total / (1.5 * self.r) ** q


class CutoffHamiltonian(SumModel):
    """Rough summands localized near a torus image; analytic part kept exact.

    The value is analytic(z) + phi(z) * sum of rough terms; cut_values
    exposes the localized summand alone (it vanishes identically where some
    action lies 5r/2 or more outside the image's action hull and equals the
    rough part exactly where every action lies within r of it).  As a sum
    it is the analytic model plus separable(); only values are offered:
    the smoothing operators sample, they never differentiate this object.
    """

    def __init__(self, analytic, rough, bump: PlateauBump, box: Box, n: int, rho: float):
        self.rough = tuple(rough)
        self.bump = bump
        self.box = box  # separable() reads it, and SumModel.__init__ keeps it
        super().__init__([analytic, self.separable()] if self.rough else [analytic])
        self.analytic = analytic
        self.n = n
        self.rho = float(rho)
        classes = [t.profile.smoothness_class for t in self.rough]
        self.smoothness_class = min(classes) if classes else math.inf

    @property
    def r(self) -> float:
        return self.bump.r

    def phi(self, z):
        return self.bump(z)

    def rough_values(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1])
        for term in self.rough:
            out = out + term.amplitude * term.profile.deriv(z[..., term.coordinate], 0)
        return out

    def cut_values(self, z):
        z = self.box.wrap(np.asarray(z, dtype=float))
        return self.rough_values(z) * self.bump(z)

    def separable(self) -> SeparableFunction:
        """cut_values as a sum of products of 1-D functions of the coordinates.

        One term per rough coordinate c (in order of first appearance):
        the sum of the profiles on c, times the bump's factor on every
        action axis (on c itself too when c is an action).  Periodic
        factors wrap like cut_values does.
        """
        action_axes = np.nonzero(~self.box.periodic)[0]
        terms = []
        for c in dict.fromkeys(t.coordinate for t in self.rough):
            funcs = [None] * self.box.dim
            for i, axis in enumerate(action_axes):
                funcs[axis] = partial(self.bump.axis_factor, i)
            on_c = [t for t in self.rough if t.coordinate == c]
            funcs[c] = partial(_rough_factor, self.box, c, on_c, funcs[c])
            terms.append(funcs)
        return SeparableFunction(terms)


def _rough_factor(box: Box, axis: int, terms, bump_factor, u):
    """Sum of the rough profiles on one axis, times the bump's factor there."""
    u = box.wrap_axis(axis, u)
    out = np.zeros(u.shape)
    for term in terms:
        out = out + term.amplitude * term.profile.deriv(u, 0)
    return out if bump_factor is None else out * bump_factor(u)


def cutoff_extend(hamiltonian, K0: TorusEmbedding, r: float,
                  rho: float = 0.0) -> CutoffHamiltonian:
    """Localize the rough part of a Hamiltonian to a box around K0's image.

    The box spans the full angle chart [0, 1]^n (periodic) and the action
    range of K0's samples on its sampling grid, inflated by 3r; the
    3r-neighborhood of the image must sit inside the Hamiltonian's own
    domain.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    n = K0.dim_domain
    periodic = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
    bump = PlateauBump(K0.grid_samples(), r, periodic)
    lo = np.concatenate([np.zeros(n), bump.anchors[0] - 3 * r])
    hi = np.concatenate([np.ones(n), bump.anchors[1] + 3 * r])
    dom = getattr(hamiltonian, "box", None)
    if dom is not None:
        for i in range(n, 2 * n):
            if lo[i] < dom.lo[i] or hi[i] > dom.hi[i]:
                raise ValueError(
                    f"torus too close to domain boundary: axis {i} needs "
                    f"[{lo[i]:.4f}, {hi[i]:.4f}] inside [{dom.lo[i]:.4f}, {dom.hi[i]:.4f}]"
                )
    if isinstance(hamiltonian, CompositeHamiltonian):
        analytic, rough = hamiltonian.analytic, hamiltonian.rough
    elif isinstance(hamiltonian, HamiltonianModel):
        analytic, rough = hamiltonian, ()
    else:
        raise TypeError("cutoff_extend expects an analytic or composite model")
    box = Box(lo, hi, periodic)
    return CutoffHamiltonian(analytic, rough, bump, box, n, rho)


# -- the smoothing sequence ----------------------------------------------------


@dataclass
class SmoothingSequence:
    """Approximants H_0..H_K with measured consecutive C^3 gaps.

    a_const is the fitted envelope max_k gap_k * 4^(k(l+2 sigma)), so every
    stored gap satisfies gap_k <= a_const * 4^(-k(l+2 sigma)) by
    construction.  The sequence is re-anchored: index 0 is the first
    ladder entry whose outgoing gap dropped below e0_norm.
    """

    approximants: list
    degrees: list[int]
    gaps_c3: list[float]
    gaps_c0: list[float]
    a_const: float
    l: int
    sigma: float
    e0_norm: float
    anchor_index: int
    history: dict

    def bound(self, k: int) -> float:
        return self.a_const * 4.0 ** (-k * (self.l + 2 * self.sigma))


def build_smoothing_sequence(
    h_ext,
    l: int,
    sigma: float,
    count: int,
    e0_norm: float,
    start_degree: int = 8,
    max_degree: int = 4096,
    measure_points: int = 33,
) -> SmoothingSequence:
    """Doubling-degree ladder of rungs (rung_nd) for the cut rough part, re-anchored.

    Builds rungs at degrees start_degree * 2^j, measures consecutive
    C^3 gaps, and re-anchors the sequence at the first entry whose outgoing
    gap is <= e0_norm; count entries are kept from there.  The envelope
    constant is fitted to the kept gaps.  Purely analytic input yields the
    constant sequence with zero gaps.  Raises when no gap reaches e0_norm
    by max_degree.
    """
    if l < 4:
        raise ValueError("smoothness class l must be >= 4")
    if count < 1:
        raise ValueError("count must be >= 1")
    if e0_norm < 0:
        raise ValueError("e0_norm must be >= 0")
    # a cut-off model without rough terms is of class C^inf
    analytic_input = (
        isinstance(h_ext, HamiltonianModel)
        or math.isinf(getattr(h_ext, "smoothness_class", math.inf))
    )
    if analytic_input:
        model = h_ext.analytic if isinstance(h_ext, CutoffHamiltonian) else h_ext
        zeros = [0.0] * max(count - 1, 0)
        return SmoothingSequence(
            approximants=[model] * count,
            degrees=[0] * count,
            gaps_c3=zeros,
            gaps_c0=list(zeros),
            a_const=0.0,
            l=l,
            sigma=sigma,
            e0_norm=e0_norm,
            anchor_index=0,
            history={"ladder_degrees": [], "ladder_gaps_c3": [], "analytic": True},
        )

    if not isinstance(h_ext, CutoffHamiltonian):
        raise TypeError("expected a CutoffHamiltonian or an analytic model")

    box = h_ext.box
    target = h_ext.separable()
    approx: list[SeparableRung] = []
    degrees: list[int] = []
    raw_gaps_c3: list[float] = []
    raw_gaps_c0: list[float] = []

    def emit(deg):
        b = rung_nd(target, deg, box, measure_points=measure_points)
        approx.append(b)
        degrees.append(deg)
        if len(approx) > 1:
            # one C^3 pass gives both gaps: the C^0 gap is its |alpha| = 0 term
            sups = _cl_sup(approx[-2:], box, 3, measure_points)
            raw_gaps_c3.append(max(sups))
            raw_gaps_c0.append(sups[0])

    deg = start_degree
    emit(deg)
    anchor = None
    while True:
        deg *= 2
        if deg > max_degree:
            break
        emit(deg)
        if anchor is None and raw_gaps_c3[-1] <= e0_norm:
            anchor = len(approx) - 2
        if anchor is not None and len(approx) - anchor >= count:
            break
    if anchor is None:
        raise ValueError(
            f"smoothing bound unachievable at max degree {max_degree}: smallest "
            f"C^3 gap {min(raw_gaps_c3, default=np.inf):.3e} > e0_norm {e0_norm:.3e}"
        )
    while len(approx) - anchor < count and degrees[-1] * 2 <= max_degree:
        emit(degrees[-1] * 2)

    kept = approx[anchor : anchor + count]
    kept_deg = degrees[anchor : anchor + count]
    kept_g3 = raw_gaps_c3[anchor : anchor + len(kept) - 1]
    kept_g0 = raw_gaps_c0[anchor : anchor + len(kept) - 1]
    rate = l + 2.0 * sigma
    a_const = max(
        (g * 4.0 ** (k * rate) for k, g in enumerate(kept_g3)), default=0.0
    )
    models = [SumModel([h_ext.analytic, b]) for b in kept]
    return SmoothingSequence(
        approximants=models,
        degrees=kept_deg,
        gaps_c3=kept_g3,
        gaps_c0=kept_g0,
        a_const=a_const,
        l=l,
        sigma=sigma,
        e0_norm=e0_norm,
        anchor_index=anchor,
        history={
            "ladder_degrees": degrees,
            "ladder_gaps_c3": raw_gaps_c3,
            "ladder_gaps_c0": raw_gaps_c0,
            "analytic": False,
            "rungs": kept,
        },
    )
