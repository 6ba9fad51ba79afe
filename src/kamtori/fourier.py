"""Truncated real Fourier series on the n-torus.

The central data type is :class:`FourierMap`, a real-valued trigonometric
polynomial T^n -> R^(range_shape).  It holds one dense complex array
``coeffs`` of shape (2M+1,)*n + range_shape: the amplitude of wavevector
k sits at index k + M, over the full spectrum |k|_inf <= M.  Analysis
and synthesis are one real FFT each (rfftn / irfftn) on an odd grid of
N >= 2M+1 points per axis, over the k_n >= 0 half of that array, which
they place by index; derivatives, shifts, norms and the cohomological
solve are broadcasts against the wavevector grid.  Reality is the
Hermitian symmetry coeffs[-k] = conj(coeffs[k]), which analysis builds in
exactly and every operation preserves.

Files keep the canonical half-spectrum: one wavevector of each conjugate
pair, the one whose first nonzero component is positive.  ``modes`` is
the read-only mapping of the nonzero canonical modes that serialization
writes.

Torus embeddings K(theta) = W theta + P(theta), which wind around the
angle coordinates and therefore are not themselves periodic, are handled
by :class:`TorusEmbedding` (integer winding matrix W plus a periodic
FourierMap P).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "FourierMap",
    "StripNormEstimate",
    "TorusEmbedding",
    "analyze",
]


def canonical(k) -> np.ndarray:
    """True where the first nonzero component of k (last axis) is positive.

    k = 0 counts as canonical.  Works on one wavevector or on an array of
    them.
    """
    k = np.asarray(k)
    mask = np.ones(k.shape[:-1], dtype=bool)
    for j in reversed(range(k.shape[-1])):
        mask = (k[..., j] > 0) | ((k[..., j] == 0) & mask)
    return mask


@lru_cache(maxsize=64)
def wavevectors(dim_domain: int, trunc_order: int) -> np.ndarray:
    """Integer wavevector grid, shape (2M+1,)*n + (n,), k at index k + M.

    Cached per (n, M) and returned read-only.
    """
    ks = np.arange(-trunc_order, trunc_order + 1)
    grid = np.stack(np.meshgrid(*[ks] * dim_domain, indexing="ij"), axis=-1)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=64)
def _strip_weights(dim_domain: int, trunc_order: int, rho: float):
    """Per-mode weights and tail mask of strip_norm on the k_n >= 0 half.

    The weight is exp(2 pi |k|_1 rho), doubled where k_n > 0 to count the
    conjugate mode -k; the tail is the last dyadic block |k|_inf > M/2.
    Both have shape (2M+1,)*(n-1) + (M+1,), cached per (n, M, rho) and
    read-only.  The weight overflows to inf for large |k|_1 rho.
    """
    ks = np.abs(wavevectors(dim_domain, trunc_order)[..., trunc_order:, :])
    with np.errstate(over="ignore"):
        weight = np.exp(2 * np.pi * ks.sum(axis=-1) * rho)
    weight[..., 1:] *= 2.0
    tail = ks.max(axis=-1) > trunc_order / 2.0
    weight.flags.writeable = False
    tail.flags.writeable = False
    return weight, tail


def _fft_index(trunc_order: int, size: int, dim_domain: int) -> tuple:
    """Index of the k_n >= 0 half of a centered spectrum in an rfftn array.

    Wavevector k with |k|_inf <= M sits at k mod N on the first n - 1 axes
    of a grid of N points and at k_n on the last one; the returned tuple
    indexes that (2M+1,)*(n-1) + (M+1,) block.
    """
    wrap = np.arange(-trunc_order, trunc_order + 1) % size
    return np.ix_(*[wrap] * (dim_domain - 1), np.arange(trunc_order + 1))


@dataclass(frozen=True)
class StripNormEstimate:
    """Certified upper bound for the sup of a map over a complex strip.

    ``value`` is the coefficient bound sum_k |amp(k)| exp(2 pi |k|_1 rho),
    which dominates sup over the strip of half-width rho.  ``grid_max`` is
    the observed maximum on the real sampling grid (a lower bound for the
    true sup), synthesized from ``source`` on first use.  ``tail_flag``
    trips when the last dyadic block of modes (|k|_inf > M/2) contributes
    more than 1e-10 of the total, signalling that the truncation order is
    suspect.
    """

    value: float
    rho: float
    tail_flag: bool
    source: FourierMap = field(repr=False, compare=False)

    @cached_property
    def grid_max(self) -> float:
        return self.source.grid_sup()


class FourierMap:
    """Real trigonometric polynomial on T^n with values in R^(range_shape)."""

    __slots__ = ("dim_domain", "coeffs")

    def __init__(
        self,
        dim_domain: int,
        range_shape: tuple[int, ...],
        modes: Mapping[tuple[int, ...], np.ndarray],
        trunc_order: int | None = None,
    ):
        """Build from amplitudes {k: amp}; the conjugate of each k is implied.

        When both k and -k are given, the amplitude at k is the average of
        amp(k) and conj(amp(-k)); the zero mode keeps its real part.
        """
        if dim_domain < 1:
            raise ValueError("dim_domain must be >= 1")
        range_shape = tuple(range_shape)
        items = []
        for k, amp in modes.items():
            k = tuple(int(ki) for ki in k)
            if len(k) != dim_domain:
                raise ValueError(f"wavevector {k} has wrong dimension")
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != range_shape:
                raise ValueError(
                    f"amplitude for {k} has shape {amp.shape}, expected {range_shape}"
                )
            items.append((k, amp))
        max_order = max((max(map(abs, k), default=0) for k, _ in items), default=0)
        if trunc_order is None:
            trunc_order = max_order
        if trunc_order < max_order:
            raise ValueError("trunc_order smaller than largest stored mode")
        m = int(trunc_order)
        grid = (2 * m + 1,) * dim_domain
        total = np.zeros(grid + range_shape, dtype=complex)
        count = np.zeros(grid + (1,) * len(range_shape))
        for k, amp in items:
            for idx, a in (
                (tuple(m + ki for ki in k), amp),
                (tuple(m - ki for ki in k), np.conj(amp)),
            ):
                total[idx] += a
                count[idx] += 1
        self._adopt(dim_domain, total / np.maximum(count, 1))

    def _adopt(self, dim_domain: int, coeffs: np.ndarray) -> None:
        """Take a Hermitian coefficient array that no one else writes to."""
        coeffs.flags.writeable = False
        object.__setattr__(self, "dim_domain", dim_domain)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _wrap(cls, dim_domain: int, coeffs: np.ndarray) -> "FourierMap":
        self = object.__new__(cls)
        self._adopt(dim_domain, coeffs)
        return self

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("FourierMap is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def range_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[self.dim_domain :]

    @property
    def dim_range(self) -> int:
        return int(np.prod(self.range_shape)) if self.range_shape else 1

    @property
    def grid_size(self) -> int:
        return 2 * self.trunc_order + 1

    def support(self) -> np.ndarray:
        """Per-mode mask of nonzero amplitudes, shape (2M+1,)*n."""
        axes = tuple(range(self.dim_domain, self.coeffs.ndim))
        return np.any(self.coeffs != 0, axis=axes)

    def _kdot(self, v: np.ndarray) -> np.ndarray:
        """k . v over the wavevector grid, shape (2M+1,)*n."""
        return wavevectors(self.dim_domain, self.trunc_order) @ np.asarray(
            v, dtype=float
        )

    @property
    def modes(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Read-only {k: amplitude} of the nonzero canonical modes, k sorted.

        Derived from ``coeffs`` on each access; compute paths use the array.
        """
        m = self.trunc_order
        ks = wavevectors(self.dim_domain, m)
        keep = canonical(ks) & self.support()
        keys = map(tuple, ks[keep].tolist())
        return MappingProxyType(dict(zip(keys, self.coeffs[keep])))

    def amplitude(self, k: Iterable[int]) -> np.ndarray:
        """Complex amplitude of wavevector k (zero beyond the truncation)."""
        idx = tuple(int(ki) + self.trunc_order for ki in k)
        if min(idx) < 0 or max(idx) >= self.grid_size:
            return np.zeros(self.range_shape, complex)
        return self.coeffs[idx].copy()

    def _at_order(self, trunc_order: int) -> np.ndarray:
        """Coefficients zero-padded or cut to another truncation order."""
        n, m = self.dim_domain, self.trunc_order
        if trunc_order >= m:
            pad = [(trunc_order - m,) * 2] * n + [(0, 0)] * len(self.range_shape)
            return np.pad(self.coeffs, pad)
        cut = slice(m - trunc_order, m + trunc_order + 1)
        return self.coeffs[(cut,) * n]

    # -- construction from grids ---------------------------------------

    @classmethod
    def from_samples(cls, samples: np.ndarray, dim_domain: int) -> "FourierMap":
        """Discrete Fourier analysis of samples on the uniform odd grid.

        ``samples`` has shape (N, ..., N, *range_shape) with N odd; grid
        point j corresponds to theta = j / N in [0, 1)^n.  One rfftn gives
        the k_n >= 0 half; the k_n < 0 half is its exact conjugate, and on
        the k_n = 0 plane k is averaged with the conjugate of -k.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim < dim_domain:
            raise ValueError("sample array has fewer axes than dim_domain")
        nshape = samples.shape[:dim_domain]
        if len(set(nshape)) > 1:
            raise ValueError("grid must have equal size per axis")
        size = nshape[0]
        if size % 2 == 0:
            raise ValueError("grid size must be odd")
        m = (size - 1) // 2
        axes = tuple(range(dim_domain))
        half = np.fft.rfftn(samples, axes=axes) / size**dim_domain
        coeff = np.empty(samples.shape, dtype=complex)
        last = (slice(None),) * (dim_domain - 1)
        coeff[last + (slice(m, None),)] = half[_fft_index(m, size, dim_domain)]
        coeff[last + (slice(None, m),)] = np.conj(
            np.flip(coeff[last + (slice(m + 1, None),)], axis=axes)
        )
        plane = coeff[last + (slice(m, m + 1),)]
        plane[...] = (plane + np.conj(np.flip(plane, axis=axes[:-1]))) / 2.0
        return cls._wrap(dim_domain, coeff)

    # -- evaluation -----------------------------------------------------

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary points; theta has shape (..., n)."""
        theta = np.asarray(theta, dtype=float)
        n, m = self.dim_domain, self.trunc_order
        pts = theta.reshape(-1, n)
        # e^{2 pi i k_j theta_j} per axis, contracted one axis at a time
        phase = np.exp(2j * np.pi * np.multiply.outer(pts, np.arange(-m, m + 1)))
        out = np.tensordot(phase[:, 0], self.coeffs, axes=(1, 0))
        for j in range(1, n):
            out = np.einsum("pk,pk...->p...", phase[:, j], out)
        return out.real.reshape(theta.shape[:-1] + self.range_shape)

    def synthesize(self, grid_size: int | None = None) -> np.ndarray:
        """Sample on the uniform grid; inverse of :meth:`from_samples`.

        One irfftn of the k_n >= 0 half of ``coeffs``, placed by index on
        a grid of any odd size N >= 2M+1.
        """
        size = self.grid_size if grid_size is None else int(grid_size)
        if size % 2 == 0:
            raise ValueError("grid size must be odd")
        n, m = self.dim_domain, self.trunc_order
        if size < self.grid_size:
            raise ValueError("grid too small for stored modes")
        axes = tuple(range(n))
        half = np.zeros(
            (size,) * (n - 1) + ((size + 1) // 2,) + self.range_shape, dtype=complex
        )
        last = (slice(None),) * (n - 1)
        half[_fft_index(m, size, n)] = self.coeffs[last + (slice(m, None),)]
        return np.fft.irfftn(half, s=(size,) * n, axes=axes) * size**n

    # -- calculus --------------------------------------------------------

    def _times(self, factor: np.ndarray) -> "FourierMap":
        """Multiply each mode by a per-mode factor of shape (2M+1,)*n."""
        per_mode = (...,) + (None,) * len(self.range_shape)
        return FourierMap._wrap(self.dim_domain, self.coeffs * factor[per_mode])

    def partial(self, axis: int) -> "FourierMap":
        """Exact partial derivative with respect to theta_axis."""
        ks = wavevectors(self.dim_domain, self.trunc_order)[..., axis]
        return self._times(2j * np.pi * ks)

    def directional(self, omega: np.ndarray) -> "FourierMap":
        return self._times(2j * np.pi * self._kdot(omega))

    def average(self) -> np.ndarray:
        """Zero mode; reality makes the imaginary part vanish exactly."""
        return self.coeffs[(self.trunc_order,) * self.dim_domain].real.copy()

    # -- norms -----------------------------------------------------------

    def strip_norm(self, rho: float) -> StripNormEstimate:
        """Coefficient bound for the sup over the complex strip of width rho.

        Sums over the k_n >= 0 half of ``coeffs``: |amp(-k)| = |amp(k)|,
        so each mode with k_n > 0 stands for its conjugate pair.
        """
        if rho < 0:
            raise ValueError("rho must be >= 0")
        n, m = self.dim_domain, self.trunc_order
        weight, tail = _strip_weights(n, m, float(rho))
        half = self.coeffs[(slice(None),) * (n - 1) + (slice(m, None),)]
        axes = tuple(range(n, self.coeffs.ndim))
        amax = np.max(np.abs(half), axis=axes, initial=0.0)
        nz = amax > 0  # zero modes add nothing, even where the weight overflows
        terms = amax[nz] * weight[nz]
        total = float(np.sum(terms))
        flag = total > 0 and float(np.sum(terms[tail[nz]])) > 1e-10 * total
        return StripNormEstimate(value=total, rho=rho, tail_flag=flag, source=self)

    def grid_sup(self) -> float:
        """Max-norm maximum over the native sampling grid."""
        vals = self.synthesize()
        return float(np.max(np.abs(vals))) if vals.size else 0.0

    def power(self) -> float:
        """Sum over all modes of |amp|^2 (Parseval partner of the grid mean)."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    # -- algebra ----------------------------------------------------------

    def _binary(self, other: "FourierMap", sign: float) -> "FourierMap":
        if (
            other.dim_domain != self.dim_domain
            or other.range_shape != self.range_shape
        ):
            raise ValueError("incompatible FourierMaps")
        m = max(self.trunc_order, other.trunc_order)
        total = self._at_order(m) + sign * other._at_order(m)
        return FourierMap._wrap(self.dim_domain, total)

    def __add__(self, other: "FourierMap") -> "FourierMap":
        return self._binary(other, 1.0)

    def __sub__(self, other: "FourierMap") -> "FourierMap":
        return self._binary(other, -1.0)

    def scaled(self, c: float) -> "FourierMap":
        return FourierMap._wrap(self.dim_domain, c * self.coeffs)

    def resized(self, trunc_order: int) -> "FourierMap":
        """Embed into (or truncate to) a different truncation order."""
        return FourierMap._wrap(self.dim_domain, self._at_order(trunc_order))

    def shifted(self, theta0: np.ndarray) -> "FourierMap":
        """Precompose with the rigid rotation theta -> theta + theta0."""
        return self._times(np.exp(2j * np.pi * self._kdot(theta0)))

    @classmethod
    def constant(cls, value: np.ndarray, dim_domain: int, trunc_order: int = 0):
        value = np.asarray(value, dtype=float)
        zero = (0,) * dim_domain
        return cls(dim_domain, value.shape, {zero: value.astype(complex)}, trunc_order)

    def allclose(self, other: "FourierMap", tol: float = 1e-12) -> bool:
        m = max(self.trunc_order, other.trunc_order)
        return np.allclose(self._at_order(m), other._at_order(m), rtol=0, atol=tol)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        records = [
            {"k": list(k), "amp": [[float(z.real), float(z.imag)] for z in np.ravel(a)]}
            for k, a in self.modes.items()
        ]
        doc = {
            "n": self.dim_domain,
            "m": self.dim_range,
            "range_shape": list(self.range_shape),
            "trunc_order": self.trunc_order,
            "canonical": True,
            "modes": records,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FourierMap":
        doc = json.loads(text)
        shape = tuple(doc["range_shape"])
        modes = {}
        for rec in doc["modes"]:
            amp = np.array([complex(re, im) for re, im in rec["amp"]]).reshape(shape)
            modes[tuple(rec["k"])] = amp
        return cls(doc["n"], shape, modes, doc["trunc_order"])

    def to_csv(self) -> str:
        """One record per stored mode: wavevector, then (re, im) pairs."""
        out = io.StringIO()
        out.write(
            f"# n={self.dim_domain} m={self.dim_range} "
            f"trunc_order={self.trunc_order} canonical=1\n"
        )
        writer = csv.writer(out)
        header = [f"k{j}" for j in range(self.dim_domain)]
        for j in range(self.dim_range):
            header += [f"re{j}", f"im{j}"]
        writer.writerow(header)
        for k, a in self.modes.items():
            row = list(k)
            for z in np.ravel(a):
                row += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(row)
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, range_shape: tuple[int, ...] | None = None):
        lines = text.splitlines()
        meta = {}
        for token in lines[0].lstrip("# ").split():
            key, _, val = token.partition("=")
            meta[key] = int(val)
        n, m = meta["n"], meta["m"]
        if range_shape is None:
            range_shape = (m,) if m > 1 else ()
        modes = {}
        for row in csv.reader(lines[2:]):
            if not row:
                continue
            k = tuple(int(v) for v in row[:n])
            vals = [float(v) for v in row[n:]]
            amp = np.array(
                [complex(vals[2 * j], vals[2 * j + 1]) for j in range(m)]
            ).reshape(range_shape)
            modes[k] = amp
        return cls(n, range_shape, modes, meta["trunc_order"])

    def __repr__(self) -> str:
        return (
            f"FourierMap(n={self.dim_domain}, range={self.range_shape}, "
            f"M={self.trunc_order}, {len(self.modes)} stored modes)"
        )


# -- module-level analysis entry point --------------------------------------


def analyze(samples: np.ndarray, dim_domain: int) -> FourierMap:
    """Discrete Fourier analysis on the uniform odd grid over [0,1)^n."""
    return FourierMap.from_samples(samples, dim_domain)


@dataclass(frozen=True)
class TorusEmbedding:
    """Embedding K(theta) = winding @ theta + periodic(theta).

    ``winding`` is the (m, n) integer matrix of degrees with which K wraps
    the angle coordinates; for the standard graph setup over T^n it is
    [I_n; 0].  All solver corrections act on the periodic part only.
    """

    winding: np.ndarray
    periodic: FourierMap

    def __post_init__(self):
        w = np.array(self.winding, dtype=float)
        if w.shape != (self.periodic.dim_range, self.periodic.dim_domain):
            raise ValueError("winding shape must be (dim_range, dim_domain)")
        w.flags.writeable = False
        object.__setattr__(self, "winding", w)

    @property
    def dim_domain(self) -> int:
        return self.periodic.dim_domain

    @property
    def dim_range(self) -> int:
        return self.periodic.dim_range

    @property
    def trunc_order(self) -> int:
        return self.periodic.trunc_order

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return theta @ self.winding.T + self.periodic(theta)

    def grid(self, grid_size: int | None = None) -> np.ndarray:
        """Uniform grid of parameter points, shape (N,)*n + (n,)."""
        size = self.periodic.grid_size if grid_size is None else grid_size
        axes = [np.arange(size) / size for _ in range(self.dim_domain)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def grid_samples(self, grid_size: int | None = None) -> np.ndarray:
        theta = self.grid(grid_size)
        return theta @ self.winding.T + self.periodic.synthesize(
            grid_size or self.periodic.grid_size
        )

    def dk(self) -> FourierMap:
        """Jacobian DK as an (m, n) matrix-valued FourierMap (exact)."""
        per = self.periodic
        ks = wavevectors(per.dim_domain, per.trunc_order)
        coeffs = per.coeffs[..., None] * (2j * np.pi * ks)[..., None, :]
        coeffs[(per.trunc_order,) * per.dim_domain] += self.winding
        return FourierMap._wrap(per.dim_domain, coeffs)

    def directional(self, omega) -> FourierMap:
        """d/dt K(theta + t omega): periodic (the winding shift is constant)."""
        om = np.asarray(getattr(omega, "omega", omega), dtype=float)
        const = FourierMap.constant(self.winding @ om, self.dim_domain)
        return self.periodic.directional(om) + const

    def difference(self, other: "TorusEmbedding") -> FourierMap:
        if not np.array_equal(self.winding, other.winding):
            raise ValueError("embeddings have different winding")
        return self.periodic - other.periodic

    def with_periodic(self, periodic: FourierMap) -> "TorusEmbedding":
        return TorusEmbedding(self.winding, periodic)

    def resized(self, trunc_order: int) -> "TorusEmbedding":
        return TorusEmbedding(self.winding, self.periodic.resized(trunc_order))

    def shifted(self, theta0) -> "TorusEmbedding":
        theta0 = np.asarray(theta0, dtype=float)
        shifted = self.periodic.shifted(theta0)
        const = FourierMap.constant(self.winding @ theta0, self.dim_domain)
        return TorusEmbedding(self.winding, shifted + const)

    @classmethod
    def circle(
        cls, y0, trunc_order: int = 16, dim_domain: int | None = None
    ) -> "TorusEmbedding":
        """Zero-section torus K(theta) = (theta, y0) over T^n."""
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        n = dim_domain if dim_domain is not None else y0.size
        winding = np.vstack([np.eye(n), np.zeros((n, n))])
        zero = (0,) * n
        const = np.concatenate([np.zeros(n), y0]).astype(complex)
        per = FourierMap(n, (2 * n,), {zero: const}, trunc_order)
        return cls(winding, per)

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """Winding header line followed by the periodic part's mode table."""
        flat = " ".join(str(int(w)) for w in np.ravel(self.winding))
        return f"# winding={flat}\n" + self.periodic.to_csv()

    @classmethod
    def from_csv(cls, text: str) -> "TorusEmbedding":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# winding="):
            raise ValueError("torus csv must start with a '# winding=' line")
        entries = [int(v) for v in lines[0].split("=", 1)[1].split()]
        per = FourierMap.from_csv("\n".join(lines[1:]))
        m, n = per.dim_range, per.dim_domain
        winding = np.array(entries, dtype=float).reshape(m, n)
        return cls(winding, per)

    def to_json(self) -> str:
        doc = {
            "winding": [[int(w) for w in row] for row in self.winding],
            "periodic": json.loads(self.periodic.to_json()),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TorusEmbedding":
        doc = json.loads(text)
        per = FourierMap.from_json(json.dumps(doc["periodic"]))
        return cls(np.array(doc["winding"], dtype=float), per)
