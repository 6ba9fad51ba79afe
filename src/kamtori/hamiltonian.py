"""Hamiltonian models as sums of products of 1-D functions, and their jets.

A model is a short sum over terms r of prod_i t_{r,i}(z_i), one factor
per coordinate of z = (x, y) in T^n x R^n.  It offers rank, box (or
None), support(axis) (the terms whose factor along axis is not 1) and,
where that is not empty, axis_values(axis, u, q): the (q + 1,
len(support(axis)), len(u)) table of those factors' derivatives of orders
0..q at u, complex if need be as long as the sum is real; a model whose
derivative_tables is false offers order 0 only.  product_jet builds every
model's jet from its tables.  axis_sups(axis, lo, hi, q) gives, per
supported term, sup |D^j factor| on [lo, hi] for j <= q, the per-axis
sups that smoothing's C^l bounds multiply out: closed forms or
coefficient bounds where sup_method is "coefficient_bound", else sampled
from axis_values (sampled_sups), whose grid tables a model keeps
(grid_table).  The analytic model is a Fourier-Taylor term table
sum c e^{2 pi i k.x} y^m (the file format); rough summands are 1-D C^l
profiles of one coordinate; SumModel is the one sum of models.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .fourier import canonical

__all__ = [
    "Box",
    "BSplineProfile",
    "CompositeHamiltonian",
    "HamiltonianModel",
    "RoughTerm",
    "SinPowerProfile",
    "SumModel",
    "evaluate_jet",
    "product_jet",
    "symplectic_matrix",
]

# uniform points of a sampled factor sup on an interval, endpoints included
SAMPLE_POINTS = 129

_NO_TERMS = np.zeros(0, dtype=int)
_ONE_TERM = np.zeros(1, dtype=int)


def symplectic_matrix(n: int) -> np.ndarray:
    """J = [[0, I_n], [-I_n, 0]] acting on (x, y) blocks."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


@dataclass(frozen=True)
class Box:
    """Axis-aligned validity region in phase space.

    Angle coordinates are flagged periodic: queries are wrapped into the
    chart instead of rejected, since the chart covers the whole circle.
    """

    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        per = np.asarray(self.periodic, dtype=bool)
        if not (lo.shape == hi.shape == per.shape) or lo.ndim != 1:
            raise ValueError("box arrays must be 1-D and congruent")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent")
        for a in (lo, hi, per):
            a.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return self.lo.size

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def wrap(self, z: np.ndarray) -> np.ndarray:
        """Map periodic coordinates into the chart; others pass through."""
        z = np.array(z, dtype=float)
        for i in np.nonzero(self.periodic)[0]:
            z[..., i] = self.wrap_axis(i, z[..., i])
        return z

    def wrap_axis(self, axis: int, u: np.ndarray) -> np.ndarray:
        """wrap for the values u of one coordinate."""
        u = np.asarray(u, dtype=float)
        if not self.periodic[axis]:
            return u
        lo = self.lo[axis]
        return lo + np.mod(u - lo, self.hi[axis] - lo)

    def contains(self, z: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        z = self.wrap(z)
        ok = np.ones(z.shape[:-1], dtype=bool)
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            ok &= (z[..., i] >= self.lo[i] - slack) & (z[..., i] <= self.hi[i] + slack)
        return ok


# -- the one jet routine -------------------------------------------------------


def _product(tables, orders):
    """Real part of the product over a term's axes of D^orders of its factors."""
    out = tables[0][orders[0]]
    for table, q in zip(tables[1:], orders[1:]):
        out = out * table[q]
    return out.real


def product_jet(model, z: np.ndarray):
    """Value, gradient and Hessian of a sum of products at points z (..., dim).

    Each axis's table of orders 0-2 is evaluated once, for the terms in its
    support.  A term's products run over its own support axes only, so it
    adds to the gradient and Hessian entries of those axes alone.  The
    gradient and Hessian are views of component-major (dim, *base) and
    (dim, dim, *base) arrays.
    """
    z = np.asarray(z, dtype=float)
    base, dim = z.shape[:-1], z.shape[-1]
    pts = z.reshape(-1, dim)
    # axes[r] and tables[r]: term r's support axes, ascending, and their tables
    axes = [[] for _ in range(model.rank)]
    tables = [[] for _ in range(model.rank)]
    for axis in range(dim):
        terms = model.support(axis)
        if len(terms):
            table = model.axis_values(axis, pts[:, axis], 2)
            for row, r in enumerate(terms.tolist()):
                axes[r].append(axis)
                tables[r].append(table[:, row])
    val = np.zeros(pts.shape[0])
    grad = np.zeros((dim,) + val.shape)
    hess = np.zeros((dim, dim) + val.shape)
    for term_axes, term_tables in zip(axes, tables):
        s = range(len(term_axes))
        val += _product(term_tables, [0 for _ in s])
        for j in s:
            grad[term_axes[j]] += _product(term_tables, [int(i == j) for i in s])
        for j, l in combinations_with_replacement(s, 2):
            orders = [(i == j) + (i == l) for i in s]
            hess[term_axes[j], term_axes[l]] += _product(term_tables, orders)
    for a, b in combinations(range(dim), 2):
        hess[b, a] = hess[a, b]
    grid = tuple(range(1, len(base) + 1))
    return (
        val.reshape(base),
        grad.reshape((dim,) + base).transpose(grid + (0,)),
        hess.reshape((dim, dim) + base).transpose(tuple(g + 1 for g in grid) + (0, 1)),
    )


def product_values(model, z: np.ndarray) -> np.ndarray:
    """Values of a sum of products at points z (..., dim)."""
    z = np.asarray(z, dtype=float)
    pts = z.reshape(-1, z.shape[-1])
    prod = np.ones((model.rank, pts.shape[0]))
    for axis in range(pts.shape[1]):
        rows = model.support(axis)
        if len(rows):
            # grids and stencils repeat few values per axis: evaluate each once
            u, inv = np.unique(pts[:, axis], return_inverse=True)
            table = model.axis_values(axis, u, 0)[0][:, inv.reshape(-1)]
            prod = prod.astype(np.result_type(prod, table), copy=False)
            prod[rows] *= table
    return prod.sum(axis=0).real.reshape(z.shape[:-1])


def sampled_max(table: np.ndarray, step: float) -> np.ndarray:
    """Sups of orders 0..q from a (q + 2, ..., points) table on a uniform
    grid of spacing step: each order's max |.| plus step/2 times the next
    order's, which bounds the sup when the next order's max is its sup."""
    peak = np.max(np.abs(table), axis=-1)
    return peak[:-1] + 0.5 * step * peak[1:]


def grid_table(model, axis: int, span, points: int, q: int):
    """(u, axis_values(axis, u, q)) on points uniform points u of the
    interval span, endpoints included.  Kept read-only per model, axis,
    span, points and q: every bound of a run that reads the same axis
    interval of a model shares one evaluation."""
    # a model with __slots__ (HamiltonianModel) keeps none
    memo = vars(model).setdefault("_grid_tables", {}) if hasattr(model, "__dict__") else {}
    key = (axis, float(span[0]), float(span[1]), points, q)
    if key not in memo:
        u = np.linspace(span[0], span[1], points)
        table = model.axis_values(axis, u, q)
        table.flags.writeable = False
        memo[key] = u, table
    return memo[key]


def bracket(u: np.ndarray, lo: float, hi: float) -> slice:
    """The points of the increasing grid u from the last at or below lo to
    the first at or above hi, as far as the grid reaches."""
    return slice(max(int(np.searchsorted(u, lo, "right")) - 1, 0),
                 int(np.searchsorted(u, hi, "left")) + 1)


def sampled_sups(model, axis: int, lo: float, hi: float, q: int) -> np.ndarray:
    """(q + 1, len(support(axis))): sampled_max of axis_values over the
    points that bracket [lo, hi] of a grid_table of SAMPLE_POINTS points:
    on the model's box axis when [lo, hi] lies in it, else on [lo, hi]."""
    box = getattr(model, "box", None)
    span = (lo, hi)
    if box is not None and box.lo[axis] <= lo and hi <= box.hi[axis]:
        span = (box.lo[axis], box.hi[axis])
    u, table = grid_table(model, axis, span, SAMPLE_POINTS, q + 1)
    return sampled_max(table[..., bracket(u, lo, hi)], u[1] - u[0])


class SumOfProducts:
    """Base of every model: its values and jet come from its axis tables,
    and its factor sups, unless it has closed forms, from sampled ones."""

    __slots__ = ()

    derivative_tables = True
    sup_method = "sampled"
    jet_batch = product_jet
    __call__ = product_values
    axis_sups = sampled_sups


# -- the analytic model ----------------------------------------------------------


def _angle_table(u: np.ndarray, ks: np.ndarray, coef: np.ndarray, q: int) -> np.ndarray:
    """Orders 0..q of coef e^{2 pi i k u}, one row per (k, coef).

    e^{2 pi i u} is computed once; integer powers and conjugates of it
    give every row, and D multiplies a row by 2 pi i k.
    """
    e = np.exp(2j * np.pi * u)
    powers = [np.ones_like(e), e]
    for _ in range(2, int(np.abs(ks).max(initial=0)) + 1):
        powers.append(powers[-1] * e)
    out = np.empty((q + 1, ks.size, u.size), dtype=complex)
    for row, (k, c) in enumerate(zip(ks.tolist(), coef.tolist())):
        np.multiply(powers[k] if k >= 0 else powers[-k].conj(), c, out=out[0, row])
    for j in range(1, q + 1):
        np.multiply(out[j - 1], (2j * np.pi * ks)[:, None], out=out[j])
    return out


def _action_table(u: np.ndarray, ms: np.ndarray, coef: np.ndarray, q: int) -> np.ndarray:
    """Orders 0..q of coef y^m at y = u, one row per (m, coef)."""
    powers = [np.ones_like(u), u]
    for _ in range(2, int(ms.max(initial=0)) + 1):
        powers.append(powers[-1] * u)
    out = np.zeros((q + 1, ms.size, u.size))
    for row, (m, c) in enumerate(zip(ms.tolist(), coef.tolist())):
        for j in range(min(q, m) + 1):
            np.multiply(powers[m - j], c, out=out[j, row])
            c *= m - j
    return out


class HamiltonianModel(SumOfProducts):
    """Fourier-Taylor Hamiltonian: entire, with exact per-axis tables.

    A term c e^{2 pi i k.x} y^m with k != 0 stands for itself plus its
    conjugate: it enters the sum with weight 2 and its real part counts.
    Its factors are e^{2 pi i k_j x_j} on each angle with k_j != 0 and
    y_j^{m_j} on each action with m_j > 0; the weighted coefficient rides
    on the first of them (on x_0 for a constant term).
    """

    __slots__ = ("n", "terms", "smoothness_class", "box", "_axes")

    def __init__(self, n: int, terms, smoothness_class: float = math.inf, box=None):
        folded: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for k, m, c in terms:
            k = tuple(int(v) for v in k)
            m = tuple(int(v) for v in m)
            if len(k) != n or len(m) != n:
                raise ValueError(f"term ({k}, {m}) has wrong dimension for n={n}")
            if any(mj < 0 for mj in m):
                raise ValueError("action exponents must be nonnegative")
            c = complex(c)
            if canonical(k):
                key, contrib = (k, m), c
            else:
                key, contrib = (tuple(-v for v in k), m), np.conj(c)
            folded[key] = folded.get(key, 0.0) + contrib
        for (k, m), c in folded.items():
            if all(v == 0 for v in k):
                if abs(c.imag) > 1e-13 * max(1.0, abs(c)):
                    raise ValueError(
                        f"zero-mode term {m} has non-real coefficient {c}: "
                        "term table violates reality"
                    )
                folded[(k, m)] = complex(c.real, 0.0)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "terms", tuple(sorted(folded.items())))
        object.__setattr__(self, "smoothness_class", float(smoothness_class))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "_axes", self._axis_rows())

    def __setattr__(self, *a):
        raise AttributeError("HamiltonianModel is immutable")

    def _axis_rows(self):
        """Per axis: the supported terms, their exponents there, and each
        row's coefficient (the weighted c on a term's first axis, else 1;
        real on actions, which lead only terms with k = 0)."""
        expo = np.array([k + m for (k, m), _ in self.terms], dtype=int)
        expo = expo.reshape(len(self.terms), 2 * self.n)
        coef = np.array([c * (2.0 if any(k) else 1.0) for (k, _), c in self.terms])
        on = expo != 0
        lead = on.argmax(axis=1)
        on[np.arange(len(lead)), lead] = True
        terms = [np.flatnonzero(on[:, axis]) for axis in range(2 * self.n)]
        return tuple(
            (t, expo[t, axis], np.where(lead[t] == axis, coef[t], 1.0)
             if axis < self.n else np.where(lead[t] == axis, coef[t].real, 1.0))
            for axis, t in enumerate(terms)
        )

    @property
    def rank(self) -> int:
        return len(self.terms)

    def support(self, axis: int) -> np.ndarray:
        return self._axes[axis][0]

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        _, powers, coef = self._axes[axis]
        table = _angle_table if axis < self.n else _action_table
        return table(np.asarray(u, dtype=float), powers, coef, q)

    sup_method = "coefficient_bound"

    def axis_sups(self, axis: int, lo: float, hi: float, q: int) -> np.ndarray:
        """Closed forms: |c| (2 pi |k|)^j for c e^{2 pi i k x}, and
        |c| m!/(m-j)! max(|lo|, |hi|)^(m-j) for c y^m on [lo, hi]."""
        _, powers, coef = self._axes[axis]
        out = np.zeros((q + 1, powers.size))
        if axis < self.n:
            for j in range(q + 1):
                out[j] = np.abs(coef) * (2 * np.pi * np.abs(powers)) ** j
            return out
        y = max(abs(lo), abs(hi))
        for row, (m, c) in enumerate(zip(powers.tolist(), np.abs(coef).tolist())):
            for j in range(min(q, m) + 1):
                out[j, row] = c * y ** (m - j)
                c *= m - j
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        records = [
            {
                "k": list(k),
                "m": list(m),
                "re": float(np.real(c)),
                "im": float(np.imag(c)),
            }
            for (k, m), c in self.terms
        ]
        cls = None if math.isinf(self.smoothness_class) else self.smoothness_class
        return json.dumps(
            {"n": self.n, "smoothness_class": cls, "terms": records}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "HamiltonianModel":
        doc = json.loads(text)
        if "n" not in doc or "terms" not in doc:
            raise ValueError("hamiltonian spec needs keys 'n' and 'terms'")
        n = int(doc["n"])
        terms = []
        for rec in doc["terms"]:
            missing = {"k", "m", "re", "im"} - set(rec)
            if missing:
                raise ValueError(f"term {rec} missing keys {sorted(missing)}")
            terms.append((rec["k"], rec["m"], complex(rec["re"], rec["im"])))
        sc = doc.get("smoothness_class")
        return cls(n, terms, math.inf if sc is None else float(sc))

    def __repr__(self):
        return f"HamiltonianModel(n={self.n}, {len(self.terms)} terms)"

    # convenience constructors

    @classmethod
    def free_rotator(cls, n: int = 1) -> "HamiltonianModel":
        """H = |y|^2 / 2."""
        eye = np.eye(n, dtype=int)
        terms = [((0,) * n, tuple(2 * eye[j]), 0.5) for j in range(n)]
        return cls(n, terms)

    @classmethod
    def pendulum(cls, eps: float) -> "HamiltonianModel":
        """H = y^2/2 + eps cos(2 pi x)."""
        return cls(1, [((0,), (2,), 0.5), ((1,), (0,), eps / 2.0)])


# -- C^l profiles -----------------------------------------------------------


class SinPowerProfile:
    """psi(u) = scale * |sin(pi (u - shift))|^power, periodic, C^(ceil(power)-1).

    Derivatives up to order 4 are closed-form; power = 4.5 gives the
    C^4-but-not-C^5 regularity used by the finitely differentiable test
    problems.
    """

    def __init__(self, power: float = 4.5, scale: float = 1.0, shift: float = 0.0):
        if power <= 4:
            raise ValueError("power must exceed 4 for C^4 regularity")
        self.power = float(power)
        self.scale = float(scale)
        self.shift = float(shift)
        self.smoothness_class = int(math.ceil(power) - 1)
        # term lists for d^q/du^q |t|^p with t = sin(pi u), c = cos(pi u):
        # entries (coef, e, a, b) meaning coef * |t|^e * sgn(t)^a * c^b
        self._jets = [[(1.0, self.power, 0, 0)]]
        for _ in range(4):
            cur = self._jets[-1]
            nxt: dict[tuple[float, int, int], float] = {}
            for coef, e, a, b in cur:
                if e != 0.0:
                    key = (e - 1, a + 1, b + 1)
                    nxt[key] = nxt.get(key, 0.0) + coef * e * np.pi
                if b != 0:
                    key = (e + 1, a + 1, b - 1)
                    nxt[key] = nxt.get(key, 0.0) - coef * b * np.pi
            self._jets.append([(c, e, a, b) for (e, a, b), c in nxt.items()])

    def deriv(self, u: np.ndarray, q: int = 0) -> np.ndarray:
        if q > 4:
            raise ValueError("derivatives available up to order 4")
        u = np.asarray(u, dtype=float) - self.shift
        t = np.sin(np.pi * u)
        c = np.cos(np.pi * u)
        at = np.abs(t)
        sg = np.sign(t)
        out = np.zeros_like(at)
        for coef, e, a, b in self._jets[q]:
            term = np.full_like(at, coef)
            if e != 0.0:
                # |t|^e with e > 0 vanishes continuously at t = 0
                term = term * np.where(at > 0, at**e, 0.0 if e > 0 else np.inf)
            if a % 2 == 1:
                term = term * sg
            if b != 0:
                term = term * c**b
            out += term
        return self.scale * out

    def jet(self, u: np.ndarray, q: int) -> np.ndarray:
        """(q + 1, len(u)): deriv(u, j) for j = 0..q."""
        return np.stack([self.deriv(u, j) for j in range(q + 1)])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.deriv(u, 0)


class BSplineProfile:
    """Periodic uniform B-spline profile of odd degree (degree 5 -> C^4).

    The N coefficients sit on a uniform knot grid over one period.  On the
    piece [p/N, (p+1)/N) the spline is the polynomial
    sum_l c[(p + l) mod N] B(t + d - l) of t = N u - p, with B the cardinal
    B-spline of degree d, B(s + t) = sum_{i <= s} (-1)^i C(d+1, i)
    (s - i + t)^d / d! on [s, s + 1).  A (pieces, degree + 1) table of
    coefficients in powers of t gives exact values, and its derivative
    tables, built once, exact derivatives up to order 4.
    """

    def __init__(self, coefficients: Sequence[float], degree: int = 5):
        c = np.asarray(coefficients, dtype=float)
        if c.size < degree + 1:
            raise ValueError("need at least degree + 1 coefficients")
        self.degree = int(degree)
        self.coefficients = c
        self.smoothness_class = self.degree - 1
        d = self.degree
        segments = np.array([  # integer-valued, so exact up to the 1/d!
            sum((-1) ** i * math.comb(d + 1, i) * P.polypow([s - i, 1.0], d)
                for i in range(s + 1)) / math.factorial(d)
            for s in range(d, -1, -1)
        ])
        window = np.arange(c.size)[:, None] + np.arange(d + 1)
        table = c[window % c.size] @ segments
        # d/du = N d/dt on every piece
        self._tables = tuple(P.polyder(table, q, scl=c.size, axis=1) for q in range(5))

    def deriv(self, u: np.ndarray, q: int = 0) -> np.ndarray:
        return self._orders(u, (q,))[0]

    def jet(self, u: np.ndarray, q: int) -> np.ndarray:
        """(q + 1, *u.shape): deriv(u, j) for j = 0..q, the pieces looked up once."""
        return self._orders(u, range(q + 1))

    def _orders(self, u: np.ndarray, orders) -> np.ndarray:
        if not all(0 <= q <= 4 for q in orders):
            raise ValueError("derivatives available up to order 4")
        pieces = self.coefficients.size
        x = np.mod(np.asarray(u, dtype=float), 1.0) * pieces
        piece = np.minimum(x.astype(int), pieces - 1)
        t = x - piece
        return np.stack([P.polyval(t, np.moveaxis(self._tables[q][piece], -1, 0), tensor=False)
                         for q in orders])

    def __call__(self, u):
        return self.deriv(u, 0)


# -- sums of models -------------------------------------------------------------


@dataclass(frozen=True)
class RoughTerm(SumOfProducts):
    """amplitude * profile(z[coordinate]): a 1-D C^l summand of rank 1."""

    coordinate: int
    profile: object
    amplitude: float = 1.0

    rank = 1
    box = None

    @property
    def smoothness_class(self):
        return self.profile.smoothness_class

    def support(self, axis: int) -> np.ndarray:
        return _ONE_TERM if axis == self.coordinate else _NO_TERMS

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        return (self.amplitude * self.profile.jet(u, q))[:, None, :]


class SumModel(SumOfProducts):
    """Pointwise sum of models: the terms of every part, part after part.

    Its box is the last part's that has one, unless a subclass set its own
    before calling __init__.
    """

    def __init__(self, parts):
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValueError("need at least one part")
        self.parts = tuple(parts)
        self.n = getattr(parts[0], "n", None)
        if getattr(self, "box", None) is None:
            self.box = next((p.box for p in reversed(parts)
                             if getattr(p, "box", None) is not None), None)
        self.smoothness_class = min(getattr(p, "smoothness_class", math.inf)
                                    for p in parts)
        self._offsets = np.cumsum([0] + [p.rank for p in parts])[:-1]
        self.rank = sum(p.rank for p in parts)
        self.derivative_tables = all(p.derivative_tables for p in parts)
        self.sup_method = ("coefficient_bound" if all(
            p.sup_method == "coefficient_bound" for p in parts) else "sampled")

    def support(self, axis: int) -> np.ndarray:
        return np.concatenate([p.support(axis) + offset
                               for p, offset in zip(self.parts, self._offsets)])

    def axis_values(self, axis: int, u: np.ndarray, q: int) -> np.ndarray:
        tables = [p.axis_values(axis, u, q) for p in self.parts if len(p.support(axis))]
        return tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)

    def axis_sups(self, axis: int, lo: float, hi: float, q: int) -> np.ndarray:
        return np.concatenate([p.axis_sups(axis, lo, hi, q) for p in self.parts
                               if len(p.support(axis))], axis=1)


class CompositeHamiltonian(SumModel):
    """Analytic base model plus finitely differentiable rough summands."""

    def __init__(self, analytic: HamiltonianModel, rough: Sequence[RoughTerm]):
        for t in rough:
            if not 0 <= t.coordinate < 2 * analytic.n:
                raise ValueError(f"rough term coordinate {t.coordinate} outside "
                                 f"[0, {2 * analytic.n}) for n={analytic.n}")
        super().__init__([analytic, *rough])
        self.analytic = analytic
        self.rough = tuple(rough)
        classes = [t.profile.smoothness_class for t in self.rough]
        self.smoothness_class = min(classes) if classes else math.inf


# -- operations --------------------------------------------------------------


def _check_box(hamiltonian, z: np.ndarray) -> np.ndarray:
    box = getattr(hamiltonian, "box", None)
    if box is None:
        return np.asarray(z, dtype=float)
    z = box.wrap(z)
    ok = box.contains(z)
    if not np.all(ok):
        bad = np.asarray(z)[~ok]
        raise ValueError(
            f"evaluation point outside validity box: {bad.reshape(-1, box.dim)[0]}"
        )
    return z


def evaluate_jet(hamiltonian, z: np.ndarray):
    """(value, gradient, Hessian) at a single phase-space point."""
    z = _check_box(hamiltonian, np.asarray(z, dtype=float))
    val, grad, hess = hamiltonian.jet_batch(z)
    return float(val), grad, hess


def jet_grid(hamiltonian, z: np.ndarray):
    """Batched jets with box checking; z has shape (..., 2n)."""
    z = _check_box(hamiltonian, z)
    return hamiltonian.jet_batch(z)
