"""Hamiltonian models and their exact jets.

The file format and the core in-memory model is a Fourier-Taylor term
table: H(x, y) = sum over terms of c * exp(2 pi i k . x) * y^m with
x in T^n, y in R^n.  Such models are entire, so their jets (value,
gradient, Hessian) come from term-wise differentiation with no numerical
error beyond rounding.

Finitely differentiable Hamiltonians are represented by attaching rough
summands (1-D C^l profiles in a single coordinate) to an analytic base
model; every model answers the same jet interface, which is all the
torus solver consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fourier import FourierMap, TorusEmbedding, canonical

__all__ = [
    "Box",
    "BSplineProfile",
    "CompositeHamiltonian",
    "HamiltonianModel",
    "LinearizedField",
    "RoughTerm",
    "SinPowerProfile",
    "evaluate_jet",
    "linearization",
    "symplectic_matrix",
    "vector_field",
]


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

    def grid(self, points_per_axis: int) -> np.ndarray:
        axes = [
            np.linspace(self.lo[i], self.hi[i], points_per_axis)
            for i in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


class HamiltonianModel:
    """Fourier-Taylor Hamiltonian: entire, with exact term-wise jets."""

    __slots__ = ("n", "terms", "smoothness_class", "box")

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

    def __setattr__(self, *a):
        raise AttributeError("HamiltonianModel is immutable")

    # -- jets ------------------------------------------------------------

    @staticmethod
    def _monomial(y: np.ndarray, expo: np.ndarray) -> np.ndarray:
        out = np.ones(y.shape[:-1])
        for j, e in enumerate(expo):
            if e > 0:
                out = out * y[..., j] ** e
        return out

    def jet_batch(self, z: np.ndarray):
        """Value, gradient and Hessian at a batch of points (..., 2n)."""
        z = np.asarray(z, dtype=float)
        n = self.n
        if z.shape[-1] != 2 * n:
            raise ValueError(f"points must have {2 * n} coordinates")
        x, y = z[..., :n], z[..., n:]
        base = z.shape[:-1]
        val = np.zeros(base)
        grad = np.zeros(base + (2 * n,))
        hess = np.zeros(base + (2 * n, 2 * n))
        for (k, m), c in self.terms:
            kv = np.asarray(k, dtype=float)
            mv = np.asarray(m, dtype=int)
            weight = 1.0 if not any(k) else 2.0
            phase = c * np.exp(2j * np.pi * (x @ kv))
            mono = self._monomial(y, mv)
            re, im = phase.real, phase.imag
            val += weight * re * mono
            # d/dx_a: factor 2 pi i k_a
            for a in range(n):
                if k[a] != 0:
                    grad[..., a] += weight * (-2 * np.pi * k[a]) * im * mono
            # d/dy_a: lower the monomial
            dmono = [None] * n
            for a in range(n):
                if m[a] > 0:
                    dmono[a] = self._monomial(y, mv - np.eye(n, dtype=int)[a])
                    grad[..., n + a] += weight * re * m[a] * dmono[a]
            for a in range(n):
                for b in range(a, n):
                    if k[a] != 0 and k[b] != 0:
                        h = weight * (-4 * np.pi**2 * k[a] * k[b]) * re * mono
                        hess[..., a, b] += h
                        if a != b:
                            hess[..., b, a] += h
                for b in range(n):
                    if k[a] != 0 and m[b] > 0:
                        h = weight * (-2 * np.pi * k[a]) * im * m[b] * dmono[b]
                        hess[..., a, n + b] += h
                        hess[..., n + b, a] += h
            for a in range(n):
                for b in range(a, n):
                    ea = np.eye(n, dtype=int)[a]
                    eb = np.eye(n, dtype=int)[b]
                    if a == b:
                        if m[a] >= 2:
                            dd = self._monomial(y, mv - 2 * ea)
                            hess[..., n + a, n + a] += (
                                weight * re * m[a] * (m[a] - 1) * dd
                            )
                    elif m[a] > 0 and m[b] > 0:
                        dd = self._monomial(y, mv - ea - eb)
                        h = weight * re * m[a] * m[b] * dd
                        hess[..., n + a, n + b] += h
                        hess[..., n + b, n + a] += h
        return val, grad, hess

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

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.deriv(u, 0)


class BSplineProfile:
    """Periodic uniform B-spline profile of odd degree (degree 5 -> C^4).

    Coefficients live on a uniform knot grid over one period; evaluation
    and derivatives delegate to scipy's piecewise polynomial machinery,
    so jets are exact where they exist.
    """

    def __init__(self, coefficients: Sequence[float], degree: int = 5):
        from scipy.interpolate import BSpline

        c = np.asarray(coefficients, dtype=float)
        if c.size < degree + 1:
            raise ValueError("need at least degree + 1 coefficients")
        self.degree = int(degree)
        self.coefficients = c
        self.smoothness_class = self.degree - 1
        npts = c.size
        # periodic extension: wrap degree extra coefficients on each side
        cext = np.concatenate([c, c[: self.degree]])
        knots = np.arange(-self.degree, cext.size + 1) / npts
        self._splines = [BSpline(knots, cext, self.degree)]
        for _ in range(4):
            self._splines.append(self._splines[-1].derivative())

    def deriv(self, u: np.ndarray, q: int = 0) -> np.ndarray:
        if q > 4:
            raise ValueError("derivatives available up to order 4")
        u = np.mod(np.asarray(u, dtype=float), 1.0)
        return self._splines[q](u)

    def __call__(self, u):
        return self.deriv(u, 0)


@dataclass(frozen=True)
class RoughTerm:
    """amplitude * profile(z[coordinate]): a 1-D C^l summand."""

    coordinate: int
    profile: object
    amplitude: float = 1.0

    def jet_batch(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        dim = z.shape[-1]
        u = z[..., self.coordinate]
        val = self.amplitude * self.profile.deriv(u, 0)
        grad = np.zeros(z.shape)
        grad[..., self.coordinate] = self.amplitude * self.profile.deriv(u, 1)
        hess = np.zeros(z.shape[:-1] + (dim, dim))
        hess[..., self.coordinate, self.coordinate] = (
            self.amplitude * self.profile.deriv(u, 2)
        )
        return val, grad, hess


class CompositeHamiltonian:
    """Analytic base model plus finitely differentiable rough summands."""

    def __init__(self, analytic: HamiltonianModel, rough: Sequence[RoughTerm]):
        self.analytic = analytic
        self.rough = tuple(rough)
        self.n = analytic.n
        self.box = analytic.box
        classes = [t.profile.smoothness_class for t in self.rough]
        self.smoothness_class = min(classes) if classes else math.inf

    def jet_batch(self, z: np.ndarray):
        val, grad, hess = self.analytic.jet_batch(z)
        for term in self.rough:
            v, g, h = term.jet_batch(z)
            val = val + v
            grad = grad + g
            hess = hess + h
        return val, grad, hess

    def __repr__(self):
        return (
            f"CompositeHamiltonian(n={self.n}, C^{self.smoothness_class}, "
            f"{len(self.rough)} rough terms)"
        )


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


def vector_field(hamiltonian, K: TorusEmbedding, grid_size: int | None = None):
    """The composed Hamiltonian field J grad H (K(theta)) as a FourierMap."""
    samples = K.grid_samples(grid_size)
    _, grad, _ = jet_grid(hamiltonian, samples)
    j = symplectic_matrix(hamiltonian.n)
    field_vals = grad @ j.T
    return FourierMap.from_samples(field_vals, K.dim_domain)


@dataclass(frozen=True)
class LinearizedField:
    """A(theta) = D(J grad H)(K(theta)), infinitesimally symplectic."""

    a_map: FourierMap
    trace_max: float

    def grid(self) -> np.ndarray:
        return self.a_map.synthesize()


def linearization(
    hamiltonian, K: TorusEmbedding, grid_size: int | None = None
) -> LinearizedField:
    samples = K.grid_samples(grid_size)
    _, _, hess = jet_grid(hamiltonian, samples)
    j = symplectic_matrix(hamiltonian.n)
    a_vals = np.einsum("ij,...jk->...ik", j, hess)
    trace_max = float(np.max(np.abs(np.trace(a_vals, axis1=-2, axis2=-1))))
    a_map = FourierMap.from_samples(a_vals, K.dim_domain)
    return LinearizedField(a_map=a_map, trace_max=trace_max)
