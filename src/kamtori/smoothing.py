"""Analytic smoothing of finitely differentiable Hamiltonians.

Three layers:

1. Bernstein operators: 1-D and tensor-product polynomial approximants on
   boxes, with exact derivative calculus in the Bernstein basis (forward
   differences of coefficients) and exact degree elevation.  Evaluation
   goes through the binomial pmf, which stays stable at degrees far past
   the point where explicit binomial coefficients overflow.
2. Cutoff extension: a C-infinity plateau bump, a product of per-axis
   e^{-1/t} smoothsteps in the action variables, equal to 1 on a
   neighbourhood of the action hull of an initial torus and to 0 outside
   a larger one, used to localize the rough (finitely differentiable)
   part of a Hamiltonian to a compact box.  It keeps only the hull
   bounds and costs O(points) per evaluation.
3. The smoothing sequence: polynomial models H_0, H_1, ... at doubling
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
from itertools import product as iter_product

import numpy as np
from scipy.special import gammaln
from scipy.stats import hypergeom

from .fourier import TorusEmbedding
from .hamiltonian import Box, CompositeHamiltonian, HamiltonianModel, RoughTerm

__all__ = [
    "BernsteinApproximant",
    "BernsteinHamiltonian",
    "CutoffHamiltonian",
    "PlateauBump",
    "SmoothingSequence",
    "SumModel",
    "bernstein_1d",
    "bernstein_derivative",
    "bernstein_nd",
    "build_smoothing_sequence",
    "cl_gap",
    "cl_norm",
    "cutoff_extend",
    "unit_box",
]


def unit_box(dim: int) -> Box:
    return Box(np.zeros(dim), np.ones(dim), np.zeros(dim, dtype=bool))


def _as_box(box, dim: int) -> Box:
    if box is None:
        return unit_box(dim)
    if isinstance(box, Box):
        if box.dim != dim:
            raise ValueError(f"box has {box.dim} axes, expected {dim}")
        return box
    arr = np.atleast_2d(np.asarray(box, dtype=float))
    if arr.shape != (dim, 2):
        raise ValueError("box must be a Box or an array of (lo, hi) pairs")
    return Box(arr[:, 0], arr[:, 1], np.zeros(dim, dtype=bool))


def _box_dim(box) -> int:
    if isinstance(box, Box):
        return box.dim
    return np.atleast_2d(np.asarray(box, dtype=float)).shape[0]


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


def _measure_grid(
    box: Box, points_per_axis: int, margin: np.ndarray, stagger: bool = False
) -> np.ndarray:
    axes = []
    for i in range(box.dim):
        lo, hi = box.lo[i], box.hi[i]
        if box.periodic[i]:
            idx = np.arange(points_per_axis) + (0.5 if stagger else 0.0)
            axes.append(lo + (hi - lo) * idx / points_per_axis)
        else:
            axes.append(np.linspace(lo + margin[i], hi - margin[i], points_per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _stencil_step(box: Box, points_per_axis: int, step) -> np.ndarray:
    """Step sizes whose 2h stencil reach stays off seams and boundaries.

    On periodic axes the measurement grid is staggered off the chart seam,
    where a wrapped polynomial has derivative kinks; h is capped so no
    shifted point crosses it.
    """
    h = np.asarray(step if step is not None else box.widths() / 100.0, dtype=float)
    if h.ndim == 0:
        h = np.full(box.dim, float(h))
    cap = box.widths() * 0.25 / points_per_axis
    return np.where(box.periodic, np.minimum(h, cap), h)


def cl_norm(fun, box, order: int = 3, points_per_axis: int = 64, step=None) -> float:
    """Max over |alpha| <= order of sup |D^alpha fun| on a dense box grid.

    Derivatives are exact (Bernstein coefficient calculus) when fun
    supports .derivative(alpha); otherwise 5-point central stencils with
    per-axis step h (default width/100).  The grid density is a declared
    approximation of the sup.
    """
    box = _as_box(box, getattr(fun, "dim", None) or _box_dim(box))
    exact = hasattr(fun, "derivative")
    if exact:
        pts = _measure_grid(box, points_per_axis, np.zeros(box.dim))
        out = 0.0
        for alpha in _multi_indices(box.dim, order):
            vals = fun.derivative(alpha)(pts)
            out = max(out, float(np.max(np.abs(vals))))
        return out
    h = _stencil_step(box, points_per_axis, step)
    pts = _measure_grid(box, points_per_axis, np.where(box.periodic, 0.0, 2 * h), True)
    out = 0.0
    for vals in _stencil_all(fun, pts, order, h).values():
        out = max(out, float(np.max(np.abs(vals))))
    return out


def cl_gap(f, g, box, order: int = 3, points_per_axis: int = 64, step=None) -> float:
    """Max over |alpha| <= order of sup |D^alpha (f - g)| on a box grid."""
    box = _as_box(box, getattr(f, "dim", None) or getattr(g, "dim", None) or _box_dim(box))
    both_exact = hasattr(f, "derivative") and hasattr(g, "derivative")
    if both_exact:
        pts = _measure_grid(box, points_per_axis, np.zeros(box.dim))
        out = 0.0
        for alpha in _multi_indices(box.dim, order):
            vals = f.derivative(alpha)(pts) - g.derivative(alpha)(pts)
            out = max(out, float(np.max(np.abs(vals))))
        return out
    h = _stencil_step(box, points_per_axis, step)
    pts = _measure_grid(box, points_per_axis, np.where(box.periodic, 0.0, 2 * h), True)
    diff = lambda z: np.asarray(f(z), dtype=float) - np.asarray(g(z), dtype=float)
    out = 0.0
    for vals in _stencil_all(diff, pts, order, h).values():
        out = max(out, float(np.max(np.abs(vals))))
    return out


# -- Bernstein approximants --------------------------------------------------


_LOG_BINOM: dict[int, np.ndarray] = {}


def _log_binom(degree: int) -> np.ndarray:
    tab = _LOG_BINOM.get(degree)
    if tab is None:
        i = np.arange(degree + 1)
        tab = gammaln(degree + 1) - gammaln(i + 1) - gammaln(degree - i + 1)
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


@dataclass(frozen=True)
class BernsteinApproximant:
    """Tensor-product polynomial in Bernstein form over a box.

    coefficients has shape (k_1+1, ..., k_d+1).  For operators built
    directly from samples, source_values retains the f(p/k) lattice and
    the convex-combination property pins the range to [min, max] of the
    samples; derived objects (derivatives) carry source_values = None.
    """

    degrees: tuple[int, ...]
    box: Box
    coefficients: np.ndarray
    source_values: np.ndarray | None = None
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
        if self.source_values is not None:
            sv = np.array(self.source_values, dtype=float)
            sv.flags.writeable = False
            object.__setattr__(self, "source_values", sv)

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
        """Exact D^orders in Bernstein form: scaled forward differences.

        The q-th derivative along an axis of degree k has coefficients
        k(k-1)...(k-q+1) * Delta^q c at degree k-q, divided by the box
        width^q (chain rule of the affine chart).
        """
        orders = tuple(int(q) for q in orders)
        if len(orders) != self.dim:
            raise ValueError("orders must give one entry per axis")
        coeff = self.coefficients
        new_deg = []
        for axis, (k, q) in enumerate(zip(self.degrees, orders)):
            if q < 0:
                raise ValueError("derivative orders must be >= 0")
            if q > k:
                raise ValueError(f"order {q} exceeds degree {k} on axis {axis}")
            if q:
                coeff = np.diff(coeff, n=q, axis=axis)
                scale = math.prod(range(k - q + 1, k + 1)) / self.box.widths()[axis] ** q
                coeff = coeff * scale
            new_deg.append(k - q)
        return BernsteinApproximant(tuple(new_deg), self.box, coeff)

    def elevate(self, axis: int, new_degree: int) -> "BernsteinApproximant":
        """Exact degree elevation along one axis (hypergeometric weights)."""
        k = self.degrees[axis]
        if new_degree < k:
            raise ValueError("elevation cannot lower the degree")
        if new_degree == k:
            return self
        j = np.arange(new_degree + 1)
        w = hypergeom.pmf(np.arange(k + 1)[None, :], new_degree, k, j[:, None])
        coeff = np.moveaxis(
            np.tensordot(w, np.moveaxis(self.coefficients, axis, 0), axes=([1], [0])),
            0,
            axis,
        )
        deg = list(self.degrees)
        deg[axis] = new_degree
        return BernsteinApproximant(tuple(deg), self.box, coeff)

    def corner_values(self) -> np.ndarray:
        idx = np.ix_(*[np.array([0, k]) for k in self.degrees])
        return self.coefficients[idx]

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
    return BernsteinApproximant((k,), box, samples, source_values=samples)


def bernstein_derivative(approx: BernsteinApproximant, q: int) -> BernsteinApproximant:
    """q-th derivative of a 1-D approximant in finite-difference form."""
    if approx.dim != 1:
        raise ValueError("bernstein_derivative expects a 1-D approximant")
    return approx.derivative((q,))


def _axis_box(box: Box, axis: int) -> Box:
    return Box(
        box.lo[axis : axis + 1], box.hi[axis : axis + 1], box.periodic[axis : axis + 1]
    )


def _drop_axis(box: Box, axis: int) -> Box:
    keep = [i for i in range(box.dim) if i != axis]
    return Box(box.lo[keep], box.hi[keep], box.periodic[keep])


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
    return BernsteinApproximant(degrees, box, samples, source_values=samples)


def _axis_error_scale(f, k: int, box: Box, measure_points: int) -> float:
    """Worst single-axis error scale of the degree-k operator.

    For each axis, 1-D Bernstein operators are fitted along probe fibers
    (corners, center, quarter points of the complementary coordinates) and
    their C^3 gaps measured.  The max over all axes and probes is the
    natural budget for the inner slices: every axis is approximated to the
    level the roughest axis forces anyway.
    """
    d = box.dim
    scale = 0.0
    for axis in range(d):
        rest = [i for i in range(d) if i != axis]
        lo_r, hi_r = box.lo[rest], box.hi[rest]
        mid = (lo_r + hi_r) / 2.0
        probes = {tuple(lo_r), tuple(hi_r), tuple(mid)}
        for frac in (0.25, 0.75):
            probes.add(tuple(lo_r + frac * (hi_r - lo_r)))
        for j in range(d - 1):
            for end in (lo_r[j], hi_r[j]):
                c = np.array(mid)
                c[j] = end
                probes.add(tuple(c))
        fiber_box = _axis_box(box, axis)
        for c in sorted(probes):
            head = np.asarray(c, dtype=float)

            def fiber(t, head=head, axis=axis):
                t = np.asarray(t, dtype=float).reshape(-1)
                pts = np.empty((t.size, d))
                pts[:, rest] = head
                pts[:, axis] = t
                return f(pts)

            cand = bernstein_1d(fiber, k, fiber_box)
            scale = max(scale, cl_gap(cand, fiber, fiber_box, 3, measure_points))
    return scale


def _slice_cohort(f, nodes, pending, degree, inner_box, measure_points):
    """Fit and gap-measure all pending 1-D slices of a 2-D function at once.

    The slices share sample nodes, measurement grid and stencil plan, so a
    single batched evaluation of f serves every slice and one basis product
    evaluates every candidate.  Gap values match the per-slice cl_gap path.
    """
    lo, w = inner_box.lo[0], inner_box.widths()[0]
    t = lo + w * np.arange(degree + 1) / degree
    cols = np.asarray(nodes, dtype=float)[list(pending)]
    npend = cols.size
    pts = np.stack(np.meshgrid(t, cols, indexing="ij"), axis=-1)
    samples = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    samples = samples.reshape(degree + 1, npend)

    h = _stencil_step(inner_box, measure_points, None)
    grid = _measure_grid(
        inner_box, measure_points, np.where(inner_box.periodic, 0.0, 2 * h), True
    )
    shift, rows = _stencil_plan(1, 3, h)
    shifted = (grid.reshape(1, -1, 1) + shift[:, None, :]).reshape(-1)
    eval_pts = np.stack(np.meshgrid(shifted, cols, indexing="ij"), axis=-1)
    fv = np.asarray(f(eval_pts.reshape(-1, 2)), dtype=float)
    fv = fv.reshape(shifted.size, npend)
    bv = _basis(degree, (shifted - lo) / w) @ samples
    dv = (bv - fv).reshape(shift.shape[0], -1, npend)
    gaps = np.zeros(npend)
    for alpha, combos, scale in rows:
        acc = np.zeros((dv.shape[1], npend))
        for wgt, idx in combos:
            acc += wgt * dv[idx]
        np.maximum(gaps, np.max(np.abs(acc), axis=0) / scale, out=gaps)
    cands = [
        BernsteinApproximant(
            (degree,), inner_box, samples[:, j], source_values=samples[:, j]
        )
        for j in range(npend)
    ]
    return cands, gaps


def bernstein_nd(
    f,
    k: int,
    box=None,
    inner_tolerance=None,
    max_inner_degree: int | None = None,
    measure_points: int = 33,
) -> BernsteinApproximant:
    """Inductive multivariate Bernstein approximant of outer degree k.

    The operator along the last axis is applied to slice functions at the
    nodes p/k; each slice is replaced by its own analytic approximant at
    the least degree in a doubling schedule whose measured C^3 error
    meets the inner tolerance.  Inner approximants are then elevated to a
    common degree and collapsed, exactly, into a single tensor-product
    form (degree elevation and the outer sum are both exact), so equal
    slice degrees reproduce the plain tensor operator.

    inner_tolerance: None uses the measured outer-axis error scale, so
    every axis gets the same error budget; "paper" uses the conservative
    analytic schedule eps_k / (8(k+1)k(k-1)(k-2)) with eps_k = (max|f|+1)/k,
    which is only reachable for slices that are already polynomial of low
    degree; a float is used verbatim.  Tolerances are never loosened: an
    unreachable slice raises.
    """
    k = int(k)
    if k < 3:
        raise ValueError("outer degree must be >= 3")
    dims = getattr(box, "dim", None)
    if dims is None:
        box_arr = np.asarray(box, dtype=float) if box is not None else None
        dims = 1 if box_arr is None else box_arr.shape[0]
    box = _as_box(box, dims)
    d = box.dim
    if d == 1:
        out = bernstein_1d(f, k, box)
        object.__setattr__(out, "report", {"mode": "direct", "inner_degrees": []})
        return out

    axis = d - 1
    nodes = box.lo[axis] + box.widths()[axis] * np.arange(k + 1) / k
    inner_box = _drop_axis(box, axis)

    if inner_tolerance == "paper":
        probe = bernstein_tensor(f, (4,) * d, box).source_values
        m_hat = float(np.max(np.abs(probe))) + 1.0
        eps_k = m_hat / k
        tol = eps_k / (8.0 * (k + 1) * k * (k - 1) * (k - 2))
        mode = "paper"
    elif inner_tolerance is None:
        tol = _axis_error_scale(f, k, box, measure_points)
        eps_k = tol
        mode = "budget"
    else:
        tol = float(inner_tolerance)
        eps_k = tol
        mode = "explicit"
    scale = 1.0 + abs(tol)
    max_inner = max_inner_degree if max_inner_degree is not None else 64 * k

    def slice_fun(p):
        def g(x, node=nodes[p]):
            x = np.asarray(x, dtype=float)
            if d - 1 == 1 and (x.ndim == 0 or x.shape[-1] != 1):
                x = x[..., None]
            pts = np.concatenate(
                [x, np.full(x.shape[:-1] + (1,), node)], axis=-1
            )
            return f(pts)

        return g

    inner: list[BernsteinApproximant | None] = [None] * (k + 1)
    achieved = [np.inf] * (k + 1)
    pending = list(range(k + 1))
    degree = k
    # slack covers stencil noise (~1e-10 after 1/h^3 amplification), so two
    # float paths measuring the same gap cannot flip an acceptance decision
    while pending and degree <= max_inner:
        still = []
        if d - 1 == 1:
            cands, gaps = _slice_cohort(f, nodes, pending, degree, inner_box,
                                        measure_points)
            for p, cand, gap in zip(pending, cands, gaps):
                achieved[p] = float(gap)
                if gap <= tol + 1e-9 * scale:
                    inner[p] = cand
                else:
                    still.append(p)
        else:
            for p in pending:
                g = slice_fun(p)
                cand = bernstein_nd(
                    g, degree, inner_box, tol, max_inner_degree, measure_points
                )
                gap = cl_gap(cand, g, inner_box, 3, measure_points)
                achieved[p] = gap
                if gap <= tol + 1e-9 * scale:
                    inner[p] = cand
                else:
                    still.append(p)
        pending = still
        degree *= 2
    if pending:
        worst = max(pending, key=lambda p: achieved[p])
        raise ValueError(
            f"slice tolerance unreachable: slice p={worst} reached C^3 gap "
            f"{achieved[worst]:.3e} > tol {tol:.3e} at max inner degree {max_inner}"
        )

    common = [
        max(ap.degrees[j] for ap in inner) for j in range(d - 1)
    ]
    stacked = []
    for ap in inner:
        for j, kk in enumerate(common):
            ap = ap.elevate(j, kk)
        stacked.append(ap.coefficients)
    coeff = np.stack(stacked, axis=-1)
    out = BernsteinApproximant(tuple(common) + (k,), box, coeff)

    comp_gap = cl_gap(out, f, box, 3, measure_points)
    factor = 2.0 if d <= 2 else float(d)
    if mode != "explicit" and comp_gap > factor * eps_k + 1e-9 * scale:
        raise ValueError(
            f"composite C^3 gap {comp_gap:.3e} exceeds {factor:g}*eps_k = "
            f"{factor * eps_k:.3e}; inner tolerance scheme failed"
        )
    object.__setattr__(
        out,
        "report",
        {
            "mode": mode,
            "inner_tolerance": tol,
            "eps_k": eps_k,
            "inner_degrees": [ap.degrees for ap in inner],
            "composite_c3_gap": comp_gap,
            "slice_gaps": achieved,
        },
    )
    return out


# -- models over boxes --------------------------------------------------------


class BernsteinHamiltonian:
    """Polynomial Hamiltonian over a box chart with exact Bernstein jets."""

    def __init__(self, approx: BernsteinApproximant, n: int):
        if approx.dim != 2 * n:
            raise ValueError("approximant must live on a 2n-dimensional box")
        self.approx = approx
        self.n = n
        self.box = approx.box
        self.smoothness_class = math.inf
        self._derivs: dict[tuple[int, ...], BernsteinApproximant] = {}

    def _d(self, alpha: tuple[int, ...]) -> BernsteinApproximant:
        if alpha not in self._derivs:
            self._derivs[alpha] = self.approx.derivative(alpha)
        return self._derivs[alpha]

    def derivative(self, alpha):
        return self._d(tuple(int(q) for q in alpha))

    def __call__(self, z):
        return self.approx(z)

    def jet_batch(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        dim = 2 * self.n
        val = self.approx(z)
        grad = np.empty(z.shape[:-1] + (dim,))
        hess = np.empty(z.shape[:-1] + (dim, dim))
        for a in range(dim):
            ea = tuple(1 if i == a else 0 for i in range(dim))
            grad[..., a] = self._d(ea)(z)
            for b in range(a, dim):
                ab = tuple(
                    (1 if i == a else 0) + (1 if i == b else 0) for i in range(dim)
                )
                hess[..., a, b] = self._d(ab)(z)
                hess[..., b, a] = hess[..., a, b]
        return val, grad, hess


class SumModel:
    """Pointwise sum of jet-bearing Hamiltonian models."""

    def __init__(self, parts):
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValueError("need at least one part")
        self.parts = tuple(parts)
        self.n = parts[0].n
        box = None
        for p in parts:
            if getattr(p, "box", None) is not None:
                box = p.box
        self.box = box
        self.smoothness_class = min(p.smoothness_class for p in parts)

    def jet_batch(self, z):
        val, grad, hess = self.parts[0].jet_batch(z)
        for p in self.parts[1:]:
            v, g, h = p.jet_batch(z)
            val, grad, hess = val + v, grad + g, hess + h
        return val, grad, hess


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

    def __call__(self, z: np.ndarray) -> np.ndarray:
        g = self.distance(z)
        return np.prod(self.smoothstep((2.5 * self.r - g) / (1.5 * self.r)), axis=-1)

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


class CutoffHamiltonian:
    """Rough summands localized near a torus image; analytic part kept exact.

    The value is analytic(z) + phi(z) * sum of rough terms; cut_values
    exposes the localized summand alone (it vanishes identically where some
    action lies 5r/2 or more outside the image's action hull and equals the
    rough part exactly where every action lies within r of it).  Only
    values are offered: the smoothing operators sample, they never
    differentiate this object.
    """

    def __init__(self, analytic, rough, bump: PlateauBump, box: Box, n: int, rho: float):
        self.analytic = analytic
        self.rough = tuple(rough)
        self.bump = bump
        self.box = box
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

    def __call__(self, z):
        z = self.box.wrap(np.asarray(z, dtype=float))
        out = self.cut_values(z)
        if self.analytic is not None:
            av, _, _ = self.analytic.jet_batch(z)
            out = out + av
        return out


def cutoff_extend(hamiltonian, K0: TorusEmbedding, r: float, rho: float = 0.0,
                  grid_size: int | None = None) -> CutoffHamiltonian:
    """Localize the rough part of a Hamiltonian to a box around K0's image.

    The box spans the full angle chart [0, 1]^n (periodic) and the sampled
    action range inflated by 3r; the 3r-neighborhood of the image must sit
    inside the Hamiltonian's own domain.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    n = K0.dim_domain
    periodic = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
    bump = PlateauBump(K0.grid_samples(grid_size), r, periodic)
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
    """Doubling-degree Bernstein ladder for the cut rough part, re-anchored.

    Builds approximants at degrees start_degree * 2^j, measures consecutive
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
    analytic_input = (
        isinstance(h_ext, HamiltonianModel)
        or (isinstance(h_ext, CutoffHamiltonian) and not h_ext.rough)
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
    target = h_ext.cut_values
    approx: list[BernsteinApproximant] = []
    degrees: list[int] = []
    raw_gaps_c3: list[float] = []
    raw_gaps_c0: list[float] = []

    def emit(deg):
        b = bernstein_nd(target, deg, box, measure_points=measure_points)
        approx.append(b)
        degrees.append(deg)

    deg = start_degree
    emit(deg)
    anchor = None
    while True:
        deg *= 2
        if deg > max_degree:
            break
        emit(deg)
        g3 = cl_gap(approx[-2], approx[-1], box, 3, measure_points)
        g0 = cl_gap(approx[-2], approx[-1], box, 0, measure_points)
        raw_gaps_c3.append(g3)
        raw_gaps_c0.append(g0)
        if anchor is None and g3 <= e0_norm:
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
        raw_gaps_c3.append(cl_gap(approx[-2], approx[-1], box, 3, measure_points))
        raw_gaps_c0.append(cl_gap(approx[-2], approx[-1], box, 0, measure_points))

    kept = approx[anchor : anchor + count]
    kept_deg = degrees[anchor : anchor + count]
    kept_g3 = raw_gaps_c3[anchor : anchor + len(kept) - 1]
    kept_g0 = raw_gaps_c0[anchor : anchor + len(kept) - 1]
    rate = l + 2.0 * sigma
    a_const = max(
        (g * 4.0 ** (k * rate) for k, g in enumerate(kept_g3)), default=0.0
    )
    models = [
        SumModel([h_ext.analytic, BernsteinHamiltonian(b, h_ext.n)])
        if h_ext.analytic is not None
        else BernsteinHamiltonian(b, h_ext.n)
        for b in kept
    ]
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
            "bernstein": kept,
        },
    )
