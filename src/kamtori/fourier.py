"""Truncated real Fourier series on the n-torus.

The central data type is :class:`FourierMap`, a real-valued trigonometric
polynomial T^n -> R^(range_shape).  It stores only the k_n >= 0 half of
its spectrum, the half that rfftn and irfftn use: one complex array
``half`` of shape (2M+1,)*(n-1) + (M+1,) + range_shape, with the amplitude
of wavevector k at index (k_1 + M, ..., k_{n-1} + M, k_n).  The k_n < 0
half is implied by reality, amp(-k) = conj(amp(k)); on the k_n = 0 plane,
which holds both k and -k, analysis builds that symmetry in exactly and
every operation preserves it.  Analysis is one rfftn over the grid axes, a
gather of the |k|_inf <= M block and the average of the k_n = 0 plane with
its conjugate.  Synthesis is one scatter and one irfftn on an odd grid of
N >= 2M+1 points per axis, into a component-major (*range_shape, *grid)
buffer that it returns as a grid-major view, so a caller that wants the
components first gets them without a copy.  Both keep ``half``
component-major in memory.  Derivatives, shifts, sums, resizing and strip
norms act on the half against cached wavevector tables.

The cold paths derive what they need from the half: ``coeffs`` (the full
centered spectrum, amplitude of k at index k + M), ``modes``,
``amplitude``, evaluation at points, ``power``, ``allclose`` and
serialization.  Files keep the canonical half-spectrum: one wavevector of
each conjugate pair, the one whose first nonzero component is positive.
``modes`` is the read-only mapping of the nonzero canonical modes that
serialization writes.

Torus embeddings K(theta) = W theta + P(theta), which wind around the
angle coordinates and therefore are not themselves periodic, are handled
by :class:`TorusEmbedding` (integer winding matrix W plus a periodic
FourierMap P).

An order-M embedding is sampled on :func:`sampling_size` points per axis:
the smallest odd N >= 2M+1 with no prime factor above 13, a fast length
for pocketfft (2M+1 itself is 129 = 3 * 43 at M = 64 and prime at
M = 128).  Any odd N >= 2M+1 samples an order-M map exactly, so the
analysis of such samples keeps the order it is given, ``from_samples(...,
trunc_order=M)``, and an iterate's order never follows its grid; the
solver's Newton steps take no grid size of their own.
``FourierMap.grid_size`` is 2M+1, the smallest exact grid, on which
``synthesize`` and ``grid_sup`` sample by default.
"""

from __future__ import annotations

import csv
import io
import itertools
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
    "sampling_size",
]

# the odd primes a sampling grid size may have: a (4, N, N) rfftn on a Xeon
# core takes 0.61 ms at N = 135 = 3^3 5 against 1.12 ms at 129 = 3 * 43,
# and 3.6 ms at 273 = 3 7 13 against 8.7 ms at the prime 257
FAST_FACTORS = (3, 5, 7, 11, 13)


def sampling_size(trunc_order: int) -> int:
    """Grid points per axis on which an order-M map is sampled.

    The smallest odd N >= 2M+1 whose prime factors are all at most 13.
    """
    size = 2 * int(trunc_order) + 1
    while True:
        rest = size
        for p in FAST_FACTORS:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 2


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


def half_wavevectors(dim_domain: int, trunc_order: int) -> np.ndarray:
    """The k_n >= 0 half of :func:`wavevectors`, indexed like ``half``.

    Shape (2M+1,)*(n-1) + (M+1,) + (n,), a read-only view of the cached grid.
    """
    return wavevectors(dim_domain, trunc_order)[..., trunc_order:, :]


@lru_cache(maxsize=64)
def _strip_weights(dim_domain: int, trunc_order: int, rho: float):
    """Per-mode weights and tail mask of strip_norm on the k_n >= 0 half.

    The weight is exp(2 pi |k|_1 rho), doubled where k_n > 0 to count the
    conjugate mode -k; the tail is the last dyadic block |k|_inf > M/2.
    Both have shape (2M+1,)*(n-1) + (M+1,), cached per (n, M, rho) and
    read-only.  The weight overflows to inf for large |k|_1 rho.
    """
    ks = np.abs(half_wavevectors(dim_domain, trunc_order))
    with np.errstate(over="ignore"):
        weight = np.exp(2 * np.pi * ks.sum(axis=-1) * rho)
    weight[..., 1:] *= 2.0
    tail = ks.max(axis=-1) > trunc_order / 2.0
    weight.flags.writeable = False
    tail.flags.writeable = False
    return weight, tail


@lru_cache(maxsize=64)
def _fft_blocks(trunc_order: int, size: int, dim_domain: int) -> tuple:
    """Where the stored half sits in the rfftn array of a grid of N points.

    Along each of the first n - 1 axes, k in [0, M] sits at index k and
    k in [-M, -1] at N + k; along the last, k_n sits at k_n.  Returns the
    pairs (index into ``half``, index into the rfftn array) of the
    2^(n-1) blocks that this splits the half into, as tuples of slices;
    cached per (M, N, n).
    """
    m = trunc_order
    axis = [(slice(m, 2 * m + 1), slice(0, m + 1))]
    if m:
        axis.append((slice(0, m), slice(size - m, size)))
    last = slice(0, m + 1)
    return tuple(
        (tuple(h for h, _ in lead) + (last,), tuple(f for _, f in lead) + (last,))
        for lead in itertools.product(axis, repeat=dim_domain - 1)
    )


def _range_first(x: np.ndarray, rank: int) -> np.ndarray:
    """(*modes, *comp) as a (*comp, *modes) view; rank counts the comp axes."""
    g = x.ndim - rank
    return x.transpose(tuple(range(g, x.ndim)) + tuple(range(g)))


def _grid_major(x: np.ndarray, rank: int) -> np.ndarray:
    """Component-major (*comp, *grid) as a grid-major (*grid, *comp) view."""
    return x.transpose(tuple(range(rank, x.ndim)) + tuple(range(rank)))


@dataclass(frozen=True)
class StripNormEstimate:
    """Certified upper bound for the sup of a map over a complex strip.

    ``value`` is the coefficient bound sum_k |amp(k)| exp(2 pi |k|_1 rho),
    which dominates sup over the strip of half-width rho.  ``grid_max`` is
    the observed maximum on the real sampling grid (a lower bound for the
    true sup), synthesized from ``source`` on first use.  ``tail_flag``
    trips when the last dyadic block of modes (|k|_inf > M/2) contributes
    more than 1e-10 of the total, signalling that the truncation order is
    suspect.  ``tail_max`` is the largest unweighted amplitude max|amp(k)|
    in that block, the scale to hold against round-off.  ``tail_sum`` is
    that block's share of ``value``, sum over |k|_inf > M/2 of
    |amp(k)| exp(2 pi |k|_1 rho), which bounds the sup of the tail block
    alone over the strip.
    """

    value: float
    rho: float
    tail_flag: bool
    tail_max: float
    tail_sum: float
    source: FourierMap = field(repr=False, compare=False)

    @cached_property
    def grid_max(self) -> float:
        return self.source.grid_sup()


class FourierMap:
    """Real trigonometric polynomial on T^n with values in R^(range_shape)."""

    __slots__ = ("dim_domain", "half")

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
        grid = (2 * m + 1,) * (dim_domain - 1) + (m + 1,)
        total = np.zeros(grid + range_shape, dtype=complex)
        count = np.zeros(grid + (1,) * len(range_shape))
        for k, amp in items:
            for kk, a in ((k, amp), (tuple(-ki for ki in k), np.conj(amp))):
                if kk[-1] >= 0:  # the k_n < 0 member of a pair is not stored
                    idx = tuple(m + ki for ki in kk[:-1]) + (kk[-1],)
                    total[idx] += a
                    count[idx] += 1
        self._adopt(dim_domain, total / np.maximum(count, 1))

    def _adopt(self, dim_domain: int, half: np.ndarray) -> None:
        """Take a Hermitian half-spectrum array that no one else writes to.

        It is stored component-major, as a view of a contiguous
        (*range_shape, *modes) array, copied into one if it is not.
        """
        rank = half.ndim - dim_domain
        if not _range_first(half, rank).flags.c_contiguous:
            half = _grid_major(np.ascontiguousarray(_range_first(half, rank)), rank)
        half.flags.writeable = False
        object.__setattr__(self, "dim_domain", dim_domain)
        object.__setattr__(self, "half", half)

    @classmethod
    def _wrap(cls, dim_domain: int, half: np.ndarray) -> "FourierMap":
        self = object.__new__(cls)
        self._adopt(dim_domain, half)
        return self

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("FourierMap is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return self.half.shape[self.dim_domain - 1] - 1

    @property
    def range_shape(self) -> tuple[int, ...]:
        return self.half.shape[self.dim_domain :]

    @property
    def dim_range(self) -> int:
        return int(np.prod(self.range_shape)) if self.range_shape else 1

    @property
    def grid_size(self) -> int:
        return 2 * self.trunc_order + 1

    def _zero_mode(self) -> tuple:
        """Index of k = 0 in ``half``."""
        return (self.trunc_order,) * (self.dim_domain - 1) + (0,)

    def support(self) -> np.ndarray:
        """Mask of nonzero amplitudes over the stored half, shaped like it."""
        axes = tuple(range(self.dim_domain, self.half.ndim))
        return np.any(self.half != 0, axis=axes)

    def _kdot(self, v: np.ndarray) -> np.ndarray:
        """k . v over the stored half, shape (2M+1,)*(n-1) + (M+1,)."""
        return half_wavevectors(self.dim_domain, self.trunc_order) @ np.asarray(
            v, dtype=float
        )

    @property
    def coeffs(self) -> np.ndarray:
        """The full centered spectrum, shape (2M+1,)*n + range_shape, read-only.

        Amplitude of k at index k + M.  Derived from ``half`` on each access:
        the k_n < 0 half is the conjugate of the stored one.
        """
        n, m = self.dim_domain, self.trunc_order
        full = np.empty((2 * m + 1,) * n + self.range_shape, dtype=complex)
        lead = (slice(None),) * (n - 1)
        full[lead + (slice(m, None),)] = self.half
        full[lead + (slice(None, m),)] = np.conj(
            np.flip(self.half[lead + (slice(1, None),)], axis=tuple(range(n)))
        )
        full.flags.writeable = False
        return full

    @property
    def modes(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Read-only {k: amplitude} of the nonzero canonical modes, k sorted.

        Derived from the half on each access; compute paths use the array.
        """
        full = self.coeffs
        ks = wavevectors(self.dim_domain, self.trunc_order)
        axes = tuple(range(self.dim_domain, full.ndim))
        keep = canonical(ks) & np.any(full != 0, axis=axes)
        keys = map(tuple, ks[keep].tolist())
        return MappingProxyType(dict(zip(keys, full[keep])))

    def amplitude(self, k: Iterable[int]) -> np.ndarray:
        """Complex amplitude of wavevector k (zero beyond the truncation)."""
        k = tuple(int(ki) for ki in k)
        m = self.trunc_order
        if max(map(abs, k)) > m:
            return np.zeros(self.range_shape, complex)
        conj = k[-1] < 0  # stored as the conjugate of -k
        if conj:
            k = tuple(-ki for ki in k)
        amp = self.half[tuple(m + ki for ki in k[:-1]) + (k[-1],)]
        return np.conj(amp) if conj else amp.copy()

    def _at_order(self, trunc_order: int) -> np.ndarray:
        """The half zero-padded or cut to another truncation order.

        At the same order this is ``half`` itself, read-only.
        """
        n, m = self.dim_domain, self.trunc_order
        if trunc_order == m:
            return self.half
        if trunc_order > m:
            d = trunc_order - m
            pad = [(d, d)] * (n - 1) + [(0, d)] + [(0, 0)] * len(self.range_shape)
            return np.pad(self.half, pad)
        cut = slice(m - trunc_order, m + trunc_order + 1)
        return self.half[(cut,) * (n - 1) + (slice(trunc_order + 1),)]

    # -- construction from grids ---------------------------------------

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, dim_domain: int, trunc_order: int | None = None
    ) -> "FourierMap":
        """Discrete Fourier analysis of samples on the uniform odd grid.

        ``samples`` has shape (N, ..., N, *range_shape) with N odd; grid
        point j corresponds to theta = j / N in [0, 1)^n.  The map keeps
        the modes |k|_inf <= trunc_order, by default (N - 1) // 2, all the
        grid resolves; 2 trunc_order + 1 may not exceed N.  One rfftn over
        the grid axes of the component-major view gives the k_n >= 0 half;
        on its k_n = 0 plane, k is averaged with the conjugate of -k.
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
        m = (size - 1) // 2 if trunc_order is None else int(trunc_order)
        if not 0 <= m <= (size - 1) // 2:
            raise ValueError(
                f"trunc_order {m} needs a grid of {2 * m + 1} points, got {size}"
            )
        rank = samples.ndim - dim_domain
        axes = tuple(range(rank, samples.ndim))
        spec = np.fft.rfftn(_range_first(samples, rank), axes=axes)
        modes = (2 * m + 1,) * (dim_domain - 1) + (m + 1,)
        half = np.empty(spec.shape[:rank] + modes, dtype=complex)
        for h, f in _fft_blocks(m, size, dim_domain):
            np.divide(spec[(...,) + f], size**dim_domain, out=half[(...,) + h])
        plane = half[..., 0]
        plane[...] = (plane + np.conj(np.flip(plane, axis=axes[:-1]))) / 2.0
        return cls._wrap(dim_domain, _grid_major(half, rank))

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

        One irfftn of the half, scattered by index into a component-major
        (*range_shape, *grid) buffer on a grid of any odd size N >= 2M+1.
        The result has shape (*grid, *range_shape): a grid-major view of
        that contiguous buffer.
        """
        size = self.grid_size if grid_size is None else int(grid_size)
        if size % 2 == 0:
            raise ValueError("grid size must be odd")
        n, m, shape = self.dim_domain, self.trunc_order, self.range_shape
        if size < self.grid_size:
            raise ValueError("grid too small for stored modes")
        rank = len(shape)
        spec = np.zeros(shape + (size,) * (n - 1) + ((size + 1) // 2,), dtype=complex)
        half = _range_first(self.half, rank)
        for h, f in _fft_blocks(m, size, n):
            spec[(...,) + f] = half[(...,) + h]
        out = np.fft.irfftn(spec, s=(size,) * n, axes=tuple(range(rank, rank + n)))
        out *= size**n
        return _grid_major(out, rank)

    # -- calculus --------------------------------------------------------

    def _scaled_modes(self, factor: np.ndarray) -> np.ndarray:
        """The half times a per-mode factor of shape (2M+1,)*(n-1) + (M+1,)."""
        return self.half * factor[(...,) + (None,) * len(self.range_shape)]

    def _times(self, factor: np.ndarray) -> "FourierMap":
        return FourierMap._wrap(self.dim_domain, self._scaled_modes(factor))

    def partial(self, axis: int) -> "FourierMap":
        """Exact partial derivative with respect to theta_axis."""
        ks = half_wavevectors(self.dim_domain, self.trunc_order)[..., axis]
        return self._times(2j * np.pi * ks)

    def directional(self, omega: np.ndarray) -> "FourierMap":
        return self._times(2j * np.pi * self._kdot(omega))

    def average(self) -> np.ndarray:
        """Zero mode; reality makes the imaginary part vanish exactly."""
        return self.half[self._zero_mode()].real.copy()

    # -- norms -----------------------------------------------------------

    def strip_norm(self, rho: float) -> StripNormEstimate:
        """Coefficient bound for the sup over the complex strip of width rho.

        Sums over the stored half: |amp(-k)| = |amp(k)|, so each mode with
        k_n > 0 stands for its conjugate pair.
        """
        if rho < 0:
            raise ValueError("rho must be >= 0")
        n, m = self.dim_domain, self.trunc_order
        weight, tail = _strip_weights(n, m, float(rho))
        axes = tuple(range(n, self.half.ndim))
        amax = np.max(np.abs(self.half), axis=axes, initial=0.0)
        nz = amax > 0  # zero modes add nothing, even where the weight overflows
        terms = amax[nz] * weight[nz]
        total = float(np.sum(terms))
        tail_sum = float(np.sum(terms[tail[nz]]))
        return StripNormEstimate(
            value=total, rho=rho, tail_flag=total > 0 and tail_sum > 1e-10 * total,
            tail_max=float(np.max(amax[tail], initial=0.0)), tail_sum=tail_sum,
            source=self,
        )

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
        return FourierMap._wrap(self.dim_domain, c * self.half)

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
        """Every amplitude within tol; |amp(-k)| differences equal |amp(k)|'s,
        so comparing the stored halves compares the full spectra."""
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


@lru_cache(maxsize=16)
def _angle_grid(dim_domain: int, size: int) -> np.ndarray:
    """theta = j / N on the uniform grid, shape (N,)*n + (n,), cached per
    (n, N) and read-only."""
    axes = [np.arange(size) / size for _ in range(dim_domain)]
    theta = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    theta.flags.writeable = False
    return theta


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
        """Uniform grid of parameter points, shape (N,)*n + (n,), read-only.

        N defaults to sampling_size(M).
        """
        size = sampling_size(self.trunc_order) if grid_size is None else grid_size
        return _angle_grid(self.dim_domain, int(size))

    def grid_samples(self, grid_size: int | None = None) -> np.ndarray:
        """K on :meth:`grid`, shape (N,)*n + (m,).

        The default grid's samples are synthesized once per embedding and
        shared read-only; an explicit grid_size is synthesized on each call.
        """
        return self._default_samples if grid_size is None else self._synthesized(grid_size)

    @cached_property
    def _default_samples(self) -> np.ndarray:
        out = self._synthesized(None)
        out.flags.writeable = False
        return out

    def _synthesized(self, grid_size: int | None) -> np.ndarray:
        theta = self.grid(grid_size)
        return theta @ self.winding.T + self.periodic.synthesize(theta.shape[0])

    def dk(self) -> FourierMap:
        """Jacobian DK as an (m, n) matrix-valued FourierMap (exact)."""
        per = self.periodic
        ks = half_wavevectors(per.dim_domain, per.trunc_order)
        factor = np.moveaxis(2j * np.pi * ks, -1, 0)
        # component-major (2n, n, *modes): row i, column j is 2 pi i k_j amp_i
        half = np.empty(per.range_shape + factor.shape, dtype=complex)
        np.multiply(_range_first(per.half, 1)[:, None], factor[None], out=half)
        half[(...,) + per._zero_mode()] += self.winding
        return FourierMap._wrap(per.dim_domain, _grid_major(half, 2))

    def directional(self, omega) -> FourierMap:
        """d/dt K(theta + t omega): periodic (the winding shift is constant)."""
        om = np.asarray(getattr(omega, "omega", omega), dtype=float)
        per = self.periodic
        half = per._scaled_modes(2j * np.pi * per._kdot(om))
        half[per._zero_mode()] += self.winding @ om
        return FourierMap._wrap(per.dim_domain, half)

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
