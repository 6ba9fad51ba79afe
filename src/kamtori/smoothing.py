"""Analytic smoothing of finitely differentiable Hamiltonians.

Four layers:

1. Approximation operators on boxes.  The ladder's rungs (rung_nd)
   take the de la Vallee-Poussin mean V_N on every axis: the cut-off
   target is a short sum of products of 1-D functions (SeparableFunction),
   and each factor becomes a complex half spectrum from one rfft of 8N
   samples, mode k weighted by 1 up to N and by 2 - k/N up to 2N
   (Zygmund, Trigonometric Series, ch. III).  On the angles the factor is
   periodic; on the actions the cut-off makes it vanish on the outer r/2
   band at both box ends, so it extends periodically with every
   derivative, the discrete form of smoothing a compactly supported
   function by a kernel of compactly supported spectrum (Zehnder, CPAM
   28, 1975).  A rung (SeparableRung) is a trigonometric polynomial in
   all 2n variables, hence entire; its values and jets come from one
   (rank, .) table per axis combined by outer products, and the dense
   lattice of modes is never formed.  Bernstein operators (1-D and
   tensor-product polynomials with exact derivative calculus by forward
   differences of coefficients, evaluated through the binomial pmf) stay
   as the dense oracle: bernstein_tensor, and bernstein_nd of a sum of
   products.
2. C^l norms and gaps.  cl_bound bounds sup |D^alpha| of a model, or of
   a difference of two, by sums over terms of products of per-axis
   factor sups (each model's axis_sups), differences telescoped term by
   term, so no 2n-dimensional grid is formed and nothing is
   differentiated by stencils.  A rung's sups are coefficient bounds
   (l^1 of a half spectrum); a rough profile's and the cut target's are
   sampled from exact 1-D tables (SAMPLE_RULE).  Each bound names its
   method, and the 1-D tables it reads are evaluated once per model and
   axis interval (hamiltonian.grid_table).  cl_norm and cl_gap keep the
   dense grid (exact tables, else five-point stencils) as the reference
   for plain callables and for checking the bounds.
3. Cutoff extension: a C-infinity plateau bump, a product of per-axis
   e^{-1/t} smoothsteps in the action variables, equal to 1 on a
   neighbourhood of the action hull of an initial torus and to 0 outside
   a larger one, used to localize the rough (finitely differentiable)
   part of a Hamiltonian to a compact box.  It keeps only the hull
   bounds and costs O(points) per evaluation.  Each rough summand is a
   1-D profile, so the cut rough part is a sum of products of 1-D
   functions, one product per rough coordinate, each factor with exact
   derivative tables (the smoothstep's from the e^{-1/t} recursion).
4. The smoothing sequence: entire models H_0, H_1, ... at doubling
   degrees whose consecutive C^3 gaps are bounded (cl_bound) and
   enveloped by A * 4^(-k(l+2*sigma)), re-anchored at the first index
   whose gap drops below the initial invariance error; the last kept
   entry's C^3 tail to the cut target is bounded too, and each earlier
   tail by its gap plus the next tail.  Layers 3 and 4 take rough models
   only; the driver gives any other model SmoothingSequence.constant.

Only the rough summands of a Hamiltonian are cut off and smoothed; an
analytic summand is entire, needs no extension, and multiplying it by the
bump would manufacture exactly the large C^3 oscillations the smoothing
is meant to remove.  Gap bounds are unaffected (exact summands cancel in
differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from numpy.polynomial import polynomial as P

from .fourier import TorusEmbedding
from .hamiltonian import (SAMPLE_POINTS, Box, CompositeHamiltonian, SumModel,
                          SumOfProducts, grid_table, sampled_max)

__all__ = [
    "BernsteinApproximant",
    "CutoffHamiltonian",
    "PlateauBump",
    "SeparableFunction",
    "SeparableRung",
    "SmoothingSequence",
    "SmoothingUnachievable",
    "bernstein_1d",
    "bernstein_derivative",
    "bernstein_nd",
    "build_smoothing_sequence",
    "cl_bound",
    "cl_gap",
    "cl_norm",
    "cutoff_extend",
    "rung_nd",
    "unit_box",
]


def unit_box(dim: int) -> Box:
    return Box(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))


def _as_box(box: Box | None, dim: int | None) -> Box:
    """None is the unit box; dim, when given, is checked."""
    if box is None:
        return unit_box(dim)
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


def _multi_indices(dim: int, order: int):
    for alpha in iter_product(range(order + 1), repeat=dim):
        if 0 < sum(alpha) <= order or sum(alpha) == 0:
            yield alpha


@lru_cache(maxsize=None)
def _alpha_table(dim: int, order: int) -> np.ndarray:
    """(count, dim): every multi-index alpha with |alpha| <= order, read-only."""
    out = np.array(list(_multi_indices(dim, order)))
    out.flags.writeable = False
    return out


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

    The dense reference for plain callables and for checking cl_bound: a
    grid max, so it reads at most the sup.  A model with exact derivative
    tables is measured from its per-axis tables (_factored_sup), never
    evaluated on the grid.  Any other fun (a plain callable, a Bernstein
    approximant, or a SeparableFunction of plain callables) takes 5-point
    central stencils with per-axis step h = width/100 on a grid staggered
    off the seams.
    """
    return max(_cl_sup([fun], box, order, points_per_axis))


def cl_gap(f, g, box, order: int = 3, points_per_axis: int = 64) -> float:
    """Max over |alpha| <= order of sup |D^alpha (f - g)| on a box grid.

    The dense reference of a gap, as cl_norm is of a norm: when both
    sides are models with exact derivative tables, from their per-axis
    tables on the plain grid (_factored_sup), without evaluating either
    side there; else 5-point stencils of f - g on the staggered grid.
    """
    return max(_cl_sup([f, g], box, order, points_per_axis))


def _cl_sup(funs, box, order: int, points_per_axis: int) -> list[float]:
    """Per q <= order, the max over |alpha| = q of the sup |D^alpha| of
    funs[0], or with a second entry of funs[0] - funs[1]: cl_norm and
    cl_gap are the max of this list, and its entry 0 is the C^0 sup."""
    box = _as_box(box, next((f.dim for f in funs if getattr(f, "dim", None)), None))
    # models whose tables have exact derivatives; anything else is
    # evaluated as a function
    if all(getattr(f, "derivative_tables", False) for f in funs):
        return _factored_sup(funs, _grid_axes(box, points_per_axis, np.zeros(box.dim)),
                             order)
    h = _stencil_step(box, points_per_axis)
    axes = _grid_axes(box, points_per_axis, np.where(box.periodic, 0.0, 2 * h), True)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    signs = (1.0, -1.0)[: len(funs)]
    out = [0.0] * (order + 1)
    diff = lambda z: sum(s * np.asarray(f(z), dtype=float) for s, f in zip(signs, funs))
    for alpha, vals in _stencil_all(diff, pts, order, h).items():
        out[sum(alpha)] = max(out[sum(alpha)], float(np.max(np.abs(vals))))
    return out


def _axis_tables(fun, axis: int, u: np.ndarray, order: int, part=None) -> np.ndarray:
    """(order+1, rank, len(u)): D^q of every term's factor along one axis.

    part, when given, is fun.axis_values(axis, u, order) already taken.  A
    term whose factor along the axis is 1 gets the rows 1, 0, 0, ...
    """
    rows = fun.support(axis)
    if not len(rows):
        part = np.zeros((order + 1, 0, u.size))
    elif part is None:
        part = fun.axis_values(axis, u, order)
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


def _factored_sup(funs, axes: list[np.ndarray], order: int) -> list[float]:
    """_cl_sup of sums of products on the outer-product grid of axes.

    f - g = sum_r prod_i t_{r,i}(z_i) with g's terms negated on axis 0, so
    D^alpha (f - g) on the grid is sum_r of outer products of 1-D tables;
    the axes are split in two halves and the sum over r is one matrix
    product per alpha.  Complex tables sum to a real function: the real
    part is measured.
    """
    tables = [
        np.concatenate([_axis_tables(f, i, u, order) for f in funs], axis=1)
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


# -- C^l bounds from per-axis factor sups ---------------------------------------

SAMPLE_RULE = (f"max of a factor's exact table over the points that bracket the axis "
               f"interval on a uniform grid of its box axis (or of the interval), "
               f"endpoints included: {SAMPLE_POINTS} points, or against a rung of index N "
               f"8 N + 1 when more; plus half a spacing times the next order's max")


def _spectrum_sups(coeff: np.ndarray, width: float, order: int) -> np.ndarray:
    """(order+1, rows): sum_k |c_k| (2 pi k / w)^q, which bounds sup |D^q| of
    Re sum_k c_k e^{2 pi i k (z - lo) / w}."""
    k = np.arange(coeff.shape[1])
    amp = np.abs(coeff)
    return np.stack([amp @ (2 * np.pi * k / width) ** q for q in range(order + 1)])


def _factor_sups(f, box: Box, axis: int, order: int) -> np.ndarray:
    """(order+1, rank): f.axis_sups on the box axis, 1, 0, 0, ... off support."""
    out = np.zeros((order + 1, f.rank))
    out[0] = 1.0
    rows = f.support(axis)
    if len(rows):
        out[:, rows] = f.axis_sups(axis, box.lo[axis], box.hi[axis], order)
    return out


def _coefficient_pair(f, g) -> bool:
    """Whether f - g is bounded from coefficient differences."""
    return isinstance(f, SeparableRung) and isinstance(g, SeparableRung)


def _grid_points(f, axis: int) -> int:
    """The points of f's grid along axis: SAMPLE_POINTS, or on a rung of
    index N 8 N + 1 when more (8 points per wave of its 2N modes)."""
    if not isinstance(f, SeparableRung):
        return SAMPLE_POINTS
    return max(SAMPLE_POINTS, 8 * f.degrees[axis] + 1)


def _tables(f, box: Box, axis: int, points: int, q: int):
    """(u, table): _axis_tables of orders 0..q on points uniform points u of
    the box axis, through f's grid_table of that interval."""
    if not len(f.support(axis)):
        u = np.linspace(box.lo[axis], box.hi[axis], points)
        return u, _axis_tables(f, axis, u, q)
    u, part = grid_table(f, axis, (box.lo[axis], box.hi[axis]), points, q)
    return u, _axis_tables(f, axis, u, q, part)


def _pair_sups(f, g, box: Box, axis: int, order: int, points: int):
    """(order+1, rank) sups along axis of f's factors, g's factors and
    their differences, term r paired with term r.

    Two rungs are bounded from coefficients: their half spectra padded to
    one length (l^1).  Otherwise both sides' exact tables are sampled on
    one grid (SAMPLE_RULE), and each side's sups and their difference's
    come from those tables.
    """
    if not _coefficient_pair(f, g):
        u, ta = _tables(f, box, axis, points, order + 1)
        tb = _tables(g, box, axis, points, order + 1)[1]
        sups = sampled_max(np.stack([ta, tb, ta - tb], axis=1), u[1] - u[0])
        return tuple(np.moveaxis(sups, 1, 0))
    a, b = f.factors[axis], g.factors[axis]
    diff = np.zeros((f.rank, max(a.shape[1], b.shape[1])), dtype=complex)
    diff[:, : a.shape[1]] += a
    diff[:, : b.shape[1]] -= b
    diff = _spectrum_sups(diff, box.widths()[axis], order)
    return _factor_sups(f, box, axis, order), _factor_sups(g, box, axis, order), diff


def _telescoped(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_j (prod_{i<j} a_i) d_j (prod_{i>j} b_i) over the axis dimension 1."""
    ones = np.ones_like(a[:, :1])
    before = np.cumprod(np.concatenate([ones, a[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, b[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    return np.sum(before * d * after, axis=1)


def _per_order(tables, order: int, pair: bool) -> list[float]:
    """Per q <= order, the max over |alpha| = q of the sum over terms of
    the product (pair false) or the telescoped difference (pair true) of
    per-axis sups; tables holds one (order+1, rank) table per axis, or a
    triple of them (f, g, f - g) per axis for a pair."""
    alphas = _alpha_table(len(tables), order)
    axes = np.arange(len(tables))
    if pair:
        a, b, d = (np.stack(t)[axes, alphas] for t in zip(*tables))
        terms = np.minimum(_telescoped(a, b, d), _telescoped(b, a, d))
    else:
        terms = np.prod(np.stack(tables)[axes, alphas], axis=1)
    out = [0.0] * (order + 1)
    for q, bound in zip(alphas.sum(axis=1).tolist(), np.sum(terms, axis=1).tolist()):
        out[q] = max(out[q], bound)
    return out


def cl_bound(funs, box, order: int = 3) -> tuple[list[float], str]:
    """Per q <= order, a bound on the max over |alpha| = q of sup |D^alpha|
    of funs[0], or with a second entry of funs[0] - funs[1], on the box;
    and how it was taken.

    Every model is a sum over terms r of prod_i f_{r,i}(z_i), so
    |D^alpha f| <= sum_r prod_i sup |D^(alpha_i) f_{r,i}|, from per-axis
    factor sups (axis_sups).  A difference pairs term r of each side and
    telescopes, prod a_i - prod b_i = sum_j (prod_{i<j} a_i)(a_j - b_j)
    (prod_{i>j} b_i); the sum with a and b swapped in the products is a
    bound too, and the smaller is kept (per axis: _pair_sups).  No
    2n-dimensional grid is formed: the cost is a sum, not a product,
    of per-axis sizes.  The method is "coefficient_bound" when every sup
    comes from closed forms or coefficients, else "sampled": the bound
    then holds as far as those 1-D samples find each factor's sup.
    """
    f = funs[0]
    box = _as_box(box, getattr(f, "dim", None))
    if len(funs) == 1:
        tables = [_factor_sups(f, box, i, order) for i in range(box.dim)]
        return _per_order(tables, order, False), f.sup_method
    g = funs[1]
    if g.rank != f.rank:
        raise ValueError(f"a gap pairs the terms of both sides: ranks {f.rank} "
                         f"and {g.rank} differ")
    tables = [_pair_sups(f, g, box, i, order, max(_grid_points(f, i), _grid_points(g, i)))
              for i in range(box.dim)]
    exact = _coefficient_pair(f, g)
    return _per_order(tables, order, True), "coefficient_bound" if exact else "sampled"


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
    constant 1.  The operators sample values.  A factor that also offers
    jet(u, q), the (q + 1, len(u)) table of its derivatives of orders
    0..q, is exact; when every factor is, so are the derivative tables.
    box, when given, is where the factor sups read one grid per axis
    (hamiltonian.sampled_sups).
    """

    def __init__(self, terms, box: Box | None = None):
        self.terms = tuple(tuple(t) for t in terms)
        self.box = box
        if not self.terms or len({len(t) for t in self.terms}) != 1:
            raise ValueError("need at least one term, each with one factor per axis")
        self.dim = len(self.terms[0])
        self.derivative_tables = all(hasattr(g, "jet") for t in self.terms for g in t
                                     if g is not None)

    @property
    def rank(self) -> int:
        return len(self.terms)

    def support(self, axis: int) -> np.ndarray:
        return np.array([r for r, t in enumerate(self.terms) if t[axis] is not None],
                        dtype=int)

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        """(q + 1, len(support(axis)), len(u)): the factors along axis at u."""
        u = np.asarray(u, dtype=float)
        factors = [t[axis] for t in self.terms if t[axis] is not None]
        if not q:
            return np.stack([np.asarray(g(u), dtype=float) for g in factors])[None]
        if not self.derivative_tables:
            raise ValueError("a SeparableFunction of plain callables offers values only")
        return np.stack([g.jet(u, q) for g in factors], axis=1)


# -- factored approximants ---------------------------------------------------


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


_VN_CHUNK = 2048  # points per wave table of _vallee_poussin_values: it stays in cache


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
    for s in range(0, t.size, _VN_CHUNK):
        ts = t[s : s + _VN_CHUNK]
        waves = (np.exp(2j * np.pi * np.outer(giant, ts))[:, None, :]
                 * np.exp(2j * np.pi * np.outer(baby, ts))[None, :, :])
        waves = waves.reshape(-1, ts.size)[:modes]
        for j, c in enumerate(scaled):
            out[j, :, s : s + _VN_CHUNK] = (c @ waves).real
    return out


@dataclass(frozen=True)
class SeparableRung(SumOfProducts):
    """A factored approximant sum_r prod_i R_{r,i}(z_i) over a box.

    factors[i] holds one row per term: the (rank, 2N) half spectrum of the
    de la Vallee-Poussin mean V_N of the term's factor along axis i, so
    R(z) = Re sum_k c_k e^{2 pi i k t} with t = (z - lo)/w, and D
    multiplies mode k by 2 pi i k / w.  Every factor is a trigonometric
    polynomial of the box width's period: the approximant is entire, a
    Hamiltonian part of class C^inf, and repeats outside the box.  The
    dense coefficient lattice is never formed.  Its factor sups are
    coefficient bounds (_spectrum_sups).
    """

    box: Box
    factors: tuple

    smoothness_class = math.inf
    sup_method = "coefficient_bound"

    def __post_init__(self):
        if len(self.factors) != self.box.dim:
            raise ValueError("need one factor table per box axis")
        factors = []
        for axis, f in enumerate(self.factors):
            f = np.array(f)
            if not np.iscomplexobj(f):
                raise ValueError(f"axis {axis} has a real table: a rung factor is a "
                                 "complex half spectrum")
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
        """The mean's index N per axis."""
        return tuple(f.shape[1] // 2 for f in self.factors)

    def support(self, axis: int) -> np.ndarray:
        return np.arange(self.rank)

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        """(q+1, rank, len(u)): D^0..D^q of every term's factor along axis at u."""
        return _vallee_poussin_values(self.factors[axis], self.box, axis, u, q)

    def axis_sups(self, axis: int, lo: float, hi: float, q: int) -> np.ndarray:
        """l^1 of each half spectrum: a bound over the whole period."""
        return _spectrum_sups(self.factors[axis], self.box.widths()[axis], q)

    def __repr__(self):
        return f"SeparableRung(degrees={self.degrees}, rank={self.rank})"


# the benchmark tracer (perfbench/tracing.py) wraps jet_batch under this name
BernsteinHamiltonian = SeparableRung


def bernstein_nd(f: SeparableFunction, k: int, box=None) -> BernsteinApproximant:
    """Degree-k tensor-product Bernstein operator of a sum of products:
    bernstein_tensor(f, (k,) * d, box), the dense oracle."""
    if k < 3:
        raise ValueError("degree must be >= 3")
    return bernstein_tensor(f, (k,) * f.dim, box)


def rung_nd(f: SeparableFunction, N: int, box=None) -> SeparableRung:
    """The ladder's rung of index N for a sum of products.

    Each term's factor along each axis is sampled on 8N uniform points of
    the box axis and replaced by its de la Vallee-Poussin mean V_N.  On an
    action axis the factor must vanish to round-off at both box ends (the
    cut-off target does: its support stops r/2 inside them), so that it
    extends periodically with every derivative.  V_N reproduces
    trigonometric polynomials of degree <= N and its error is at most
    4 E_N, so each factor converges at Jackson's rate and matches with
    every derivative across the period's seam.
    """
    N = int(N)
    if N < 3:
        raise ValueError("degree must be >= 3")
    box = _as_box(box, f.dim)
    factors = []
    for i in range(box.dim):
        u = box.lo[i] + box.widths()[i] * np.arange(8 * N + 1) / (8 * N)
        samples = _axis_tables(f, i, u, 0)[0]
        ends = np.max(np.abs(samples[:, [0, -1]]), axis=1)
        if not box.periodic[i] and np.any(ends > 1e-14 * np.max(np.abs(samples), axis=1)):
            raise ValueError(f"action axis {i}: a factor does not vanish at both box "
                             "ends, so it has no periodic extension for V_N")
        factors.append(_vallee_poussin_half(samples[:, :-1], N))
    return SeparableRung(box, tuple(factors))


# -- cutoff extension ---------------------------------------------------------


def _exp_inverse_polys(count: int) -> np.ndarray:
    """(count, 2 count - 1): coefficients of P_0..P_{count-1} in powers of
    u, where P_0 = 1 and P_{j+1} = u^2 (P_j - P_j')."""
    out = np.zeros((count, 2 * count - 1))
    p = np.ones(1)
    for j in range(count):
        out[j, : p.size] = p
        p = P.polymulx(P.polymulx(P.polysub(p, P.polyder(p))))
    return out


_EXP_INVERSE_POLYS = _exp_inverse_polys(6)


def _exp_inverse_jet(t: np.ndarray, q: int) -> np.ndarray:
    """(q + 1, len(t)): D^0..D^q of g(t) = e^{-1/t} at t in (0, 1].

    With u = 1/t, D^j g = P_j(u) e^{-u} (_exp_inverse_polys).  Below
    t = 1/745, where e^{-u} underflows, t is raised to 1/745 so that no
    power of u overflows; every order there is below 1e-300.
    """
    u = 1.0 / np.maximum(t, 1.0 / 745.0)
    polys = (_EXP_INVERSE_POLYS if q < len(_EXP_INVERSE_POLYS)
             else _exp_inverse_polys(q + 1))[: q + 1, : 2 * q + 1]
    return (polys @ np.vander(u, 2 * q + 1, increasing=True).T) * np.exp(-u)


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

    @staticmethod
    def smoothstep_jet(t: np.ndarray, q: int) -> np.ndarray:
        """(q + 1, *t.shape): D^0..D^q of smoothstep at t, exact.

        s = g / (g + h) with g(t) = e^{-1/t} and h(t) = g(1 - t), whose
        derivatives are (-1)^j (D^j g)(1 - t); differentiating
        s (g + h) = g by Leibniz gives D^j s from the lower orders.  Order 0
        is smoothstep itself; outside (0, 1) every higher order is 0.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros((q + 1,) + t.shape)
        out[0] = PlateauBump.smoothstep(t)
        if not q:
            return out
        inside = (t > 0) & (t < 1)
        g = _exp_inverse_jet(t[inside], q)
        gh = g + _exp_inverse_jet(1.0 - t[inside], q) * (-1.0) ** np.arange(q + 1)[:, None]
        s = [out[0][inside]]
        for j in range(1, q + 1):
            lower = sum(math.comb(j, i) * s[i] * gh[j - i] for i in range(j))
            s.append((g[j] - lower) / gh[0])
        for j in range(1, q + 1):
            out[j][inside] = s[j]
        return out

    def distance(self, z: np.ndarray) -> np.ndarray:
        """Per-axis gaps g_i of the non-periodic coordinates to the hull."""
        y = np.asarray(z, dtype=float)[..., ~self.periodic]
        lo, hi = self.anchors
        return np.maximum(np.maximum(lo - y, y - hi), 0.0)

    def _profile(self, g: np.ndarray) -> np.ndarray:
        return self.smoothstep((2.5 * self.r - g) / (1.5 * self.r))

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.prod(self._profile(self.distance(z)), axis=-1)

    def axis_jet(self, i: int, y: np.ndarray, q: int) -> np.ndarray:
        """(q + 1, len(y)): D^0..D^q at y of phi's factor along the i-th
        non-periodic coordinate, exact; order 0 is the factor itself.

        The profile's argument t = (5r/2 - g_i(y)) / (3r/2) is affine off
        the hull, with dt/dy = -1/(3r/2) above it and +1/(3r/2) below it;
        on the hull t > 1, where the smoothstep is flat.
        """
        lo, hi = self.anchors[:, i]
        y = np.asarray(y, dtype=float)
        t = (2.5 * self.r - np.maximum(np.maximum(lo - y, y - hi), 0.0)) / (1.5 * self.r)
        slope = np.where(y > hi, -1.0, np.where(y < lo, 1.0, 0.0)) / (1.5 * self.r)
        out = self.smoothstep_jet(t, q)
        for j in range(1, q + 1):
            out[j] *= slope**j
        return out


class CutoffHamiltonian(SumModel):
    """Rough summands localized near a torus image; analytic part kept exact.

    The value is analytic(z) + bump(z) * sum of rough terms; cut_values
    exposes the localized summand alone (it vanishes identically where some
    action lies 5r/2 or more outside the image's action hull and equals the
    rough part exactly where every action lies within r of it).  As a sum
    it is the analytic model plus separable(); only values are offered:
    the smoothing operators sample, they never differentiate this object.
    """

    def __init__(self, analytic, rough, bump: PlateauBump, box: Box):
        self.rough = tuple(rough)
        self.bump = bump
        super().__init__([analytic, self._cut_part(box)])
        self.analytic = analytic
        self.smoothness_class = min(t.profile.smoothness_class for t in self.rough)

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
        """cut_values as a sum of products of 1-D functions of the coordinates:
        the model's own rough part, so that every bound of a run reads one
        set of its grid tables."""
        return self.parts[1]

    def _cut_part(self, box: Box) -> SeparableFunction:
        """The rough part as a SeparableFunction on box, the model's.

        One term per rough coordinate c (in order of first appearance):
        the sum of the profiles on c, times the bump's factor on every
        action axis (on c itself too when c is an action).  Periodic
        factors wrap like cut_values does.  Every factor has exact
        derivative tables (jet).
        """
        action_axes = np.nonzero(~box.periodic)[0]
        terms = []
        for c in dict.fromkeys(t.coordinate for t in self.rough):
            funcs = [None] * box.dim
            for i, axis in enumerate(action_axes):
                funcs[axis] = _BumpFactor(self.bump, i)
            on_c = tuple(t for t in self.rough if t.coordinate == c)
            funcs[c] = _RoughFactor(box, c, on_c, funcs[c])
            terms.append(funcs)
        return SeparableFunction(terms, box)


@dataclass(frozen=True)
class _BumpFactor:
    """The bump's factor along its i-th action coordinate."""

    bump: PlateauBump
    i: int

    def __call__(self, u):
        return self.jet(u, 0)[0]

    def jet(self, u, q: int) -> np.ndarray:
        return self.bump.axis_jet(self.i, u, q)


@dataclass(frozen=True)
class _RoughFactor:
    """Sum of the rough profiles on one axis, times the bump's factor there
    (bump None on an angle axis)."""

    box: Box
    axis: int
    terms: tuple
    bump: _BumpFactor | None

    def __call__(self, u):
        return self.jet(u, 0)[0]

    def jet(self, u, q: int) -> np.ndarray:
        """Exact orders 0..q: the profiles' own, and Leibniz with the bump's."""
        u = self.box.wrap_axis(self.axis, u)
        rough = sum(t.amplitude * t.profile.jet(u, q) for t in self.terms)
        if self.bump is None:
            return rough
        bump = self.bump.jet(u, q)
        out = rough * bump[0]
        for j in range(1, q + 1):
            out[j] += sum(math.comb(j, i) * rough[i] * bump[j - i] for i in range(j))
        return out


def _hull_box(K: TorusEmbedding, margin: float) -> Box:
    """Box hull of the margin-neighborhood of the torus image: the angle
    chart [0, 1]^n (periodic) times the action range of K's samples on its
    sampling grid, inflated by margin."""
    n = K.dim_domain
    pts = K.grid_samples().reshape(-1, 2 * n)
    lo = np.concatenate([np.zeros(n), pts[:, n:].min(axis=0) - margin])
    hi = np.concatenate([np.ones(n), pts[:, n:].max(axis=0) + margin])
    return Box(lo, hi, np.concatenate([np.ones(n, bool), np.zeros(n, bool)]))


def cutoff_extend(hamiltonian, K0: TorusEmbedding, r: float,
                  rho: float = 0.0) -> CutoffHamiltonian:
    """Localize the rough part of a Hamiltonian to a box around K0's image.

    The box is _hull_box(K0, 3r): the angle chart times K0's action range,
    inflated by 3r.  The cutoff does not depend on the strip width: rho is
    accepted and not read.  Only a CompositeHamiltonian with rough terms
    is cut off.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if not (isinstance(hamiltonian, CompositeHamiltonian) and hamiltonian.rough):
        raise TypeError("a model without rough terms needs no cut-off")
    box = _hull_box(K0, 3 * r)
    bump = PlateauBump(K0.grid_samples(), r, box.periodic)
    return CutoffHamiltonian(hamiltonian.analytic, hamiltonian.rough, bump, box)


# -- the smoothing sequence ----------------------------------------------------


class SmoothingUnachievable(ValueError):
    """No ladder gap reached e0_norm by MAX_DEGREE."""


@dataclass
class SmoothingSequence:
    """Approximants H_0..H_K with bounded consecutive C^3 gaps.

    a_const is the fitted envelope max_k gap_k * 4^(k(l+2 sigma)), so every
    stored gap satisfies gap_k <= a_const * 4^(-k(l+2 sigma)) by
    construction.  A ladder is re-anchored: index 0 is its first entry
    whose outgoing gap dropped below e0_norm.  tails_c3[k] bounds entry
    k's C^3 distance to the cut rough target (0 in the constant sequence
    of a model without rough terms); methods names how the gaps and the
    tails were taken (cl_bound).
    """

    approximants: list
    degrees: list[int]
    gaps_c3: list[float]
    gaps_c0: list[float]
    a_const: float
    l: int
    sigma: float
    anchor_index: int
    history: dict
    tails_c3: list[float] = field(default_factory=list)
    methods: dict = field(default_factory=dict)

    def bound(self, k: int) -> float:
        return self.a_const * 4.0 ** (-k * (self.l + 2 * self.sigma))

    @classmethod
    def constant(cls, model, count: int, l: int, sigma: float) -> "SmoothingSequence":
        """count copies of model itself, with zero gaps and tails."""
        zeros = [0.0] * max(count - 1, 0)
        return cls(
            approximants=[model] * count,
            degrees=[0] * count,
            gaps_c3=zeros,
            gaps_c0=list(zeros),
            a_const=0.0,
            l=l,
            sigma=sigma,
            anchor_index=0,
            history={"ladder_degrees": [], "ladder_gaps_c3": []},
            tails_c3=[0.0] * count,
            methods={"gaps": "coefficient_bound", "tails": "coefficient_bound"},
        )


# the ladder's first degree (rung_nd needs 3 for the C^3 gaps it measures)
# and the last it builds before it gives up
START_DEGREE = 8
MAX_DEGREE = 4096


def build_smoothing_sequence(
    h_ext,
    l: int,
    sigma: float,
    count: int,
    e0_norm: float,
) -> SmoothingSequence:
    """Doubling-degree ladder of rungs (rung_nd) for the cut rough part, re-anchored.

    Builds rungs at degrees START_DEGREE * 2^j, bounds consecutive C^3
    gaps (cl_bound, from coefficients), and re-anchors the sequence at the
    first entry whose outgoing gap is <= e0_norm; count entries are kept
    from there; the last kept one's tail to the cut target is bounded,
    and each earlier tail by its gap plus the next tail.
    The envelope constant is fitted to the kept gaps.  h_ext is a cut-off
    model (cutoff_extend), so it has rough terms.  Raises when no gap
    reaches e0_norm by MAX_DEGREE.
    """
    if l < 4:
        raise ValueError("smoothness class l must be >= 4")
    if count < 1:
        raise ValueError("count must be >= 1")
    if e0_norm < 0:
        raise ValueError("e0_norm must be >= 0")
    if not isinstance(h_ext, CutoffHamiltonian):
        raise TypeError("expected a CutoffHamiltonian, which has rough terms")

    box = h_ext.box
    target = h_ext.separable()
    approx: list[SeparableRung] = []
    degrees: list[int] = []
    raw_gaps_c3: list[float] = []
    raw_gaps_c0: list[float] = []
    methods = {}

    def emit(deg):
        approx.append(rung_nd(target, deg, box))
        degrees.append(deg)
        if len(approx) > 1:
            # one C^3 bound gives both gaps: the C^0 gap is its |alpha| = 0 term
            sups, methods["gaps"] = cl_bound(approx[-2:], box)
            raw_gaps_c3.append(max(sups))
            raw_gaps_c0.append(sups[0])

    deg = START_DEGREE
    emit(deg)
    anchor = None
    while True:
        deg *= 2
        if deg > MAX_DEGREE:
            break
        emit(deg)
        if anchor is None and raw_gaps_c3[-1] <= e0_norm:
            anchor = len(approx) - 2
        if anchor is not None and len(approx) - anchor >= count:
            break
    if anchor is None:
        raise SmoothingUnachievable(
            f"smoothing bound unachievable at max degree {MAX_DEGREE}: smallest "
            f"C^3 gap {min(raw_gaps_c3, default=np.inf):.3e} > e0_norm {e0_norm:.3e}"
        )

    kept = approx[anchor : anchor + count]
    kept_deg = degrees[anchor : anchor + count]
    kept_g3 = raw_gaps_c3[anchor : anchor + len(kept) - 1]
    kept_g0 = raw_gaps_c0[anchor : anchor + len(kept) - 1]
    # the last kept rung's tail is bounded directly, each earlier one by
    # its gap to the next plus that one's tail (the triangle inequality)
    sups, methods["tails"] = cl_bound([kept[-1], target], box)
    tails = [max(sups)]
    for gap in reversed(kept_g3):
        tails.insert(0, gap + tails[0])
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
        anchor_index=anchor,
        history={
            "ladder_degrees": degrees,
            "ladder_gaps_c3": raw_gaps_c3,
            "rungs": kept,
        },
        tails_c3=tails,
        methods=methods,
    )
