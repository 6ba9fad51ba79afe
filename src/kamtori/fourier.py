"""Truncated real Fourier series on the n-torus.

The central data type is :class:`FourierMap`, a real-valued trigonometric
polynomial T^n -> R^(range_shape).  It stores only the k_n >= 0 half of
its spectrum, the half that rfftn and irfftn use: one complex array
``half`` of shape (2M+1,)*(n-1) + (M+1,) + range_shape, with the amplitude
of wavevector k at index (k_1 + M, ..., k_{n-1} + M, k_n).  The k_n < 0
half is implied by reality, amp(-k) = conj(amp(k)); on the k_n = 0 plane,
which holds both k and -k, analysis builds that symmetry in exactly and
every operation preserves it.  Analysis runs rfftn's passes (rfft on the
last grid axis, cut to k_n <= M, then fft on each other axis from the last
but one down), one scaling gather and the k_n = 0 plane average.
Synthesis is one scatter and irfftn's passes (ifft on each leading axis,
irfft on the last) on an odd grid of N >= 2M+1 points per axis, into a
component-major (*range_shape, *grid) buffer returned as a grid-major
view.  Both equal numpy's n-D transforms bit for bit.  Derivatives,
sums, resizing and strip norms act on the half against cached
wavevector tables.  Every transform and product writes its half into a
new component-major (*range_shape, *modes) array, and FourierMap._wrap
adopts such a half as it is.

The cold paths derive what they need from the half: ``coeffs`` (the full
centered spectrum, amplitude of k at index k + M), evaluation at points,
``allclose`` and the mode table, the arrays (ks, amps) of the nonzero
canonical modes (of each conjugate pair the k whose first nonzero
component is positive).  ``modes`` maps that table and a file lists it,
one CSV row per mode; one np.loadtxt reads the rows back, and one array
fold turns them, or the constructor's {k: amp}, into the half.

Torus embeddings K(theta) = W theta + P(theta), which wind around the
angle coordinates and therefore are not themselves periodic, are handled
by :class:`TorusEmbedding` (integer winding matrix W plus a periodic
FourierMap P).

An order-M embedding is sampled on :func:`sampling_size` points per axis:
the smallest odd N >= 2M+1 with no prime factor above 13, a fast length
for pocketfft (2M+1 itself is 129 = 3 * 43 at M = 64 and prime at
M = 128), searched once per M and memoised.  Any odd N >= 2M+1 samples
an order-M map exactly, so the analysis of such samples keeps the order
it is given, ``from_samples(..., trunc_order=M)``, and an iterate's
order never follows its grid; the solver's Newton steps take no grid
size of their own.
``FourierMap.grid_size`` is 2M+1, the smallest exact grid, on which
``synthesize`` and ``grid_sup`` sample by default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "FourierMap",
    "StripNormEstimate",
    "TorusEmbedding",
    "sampling_size",
]

# the odd primes a sampling grid size may have: a (4, N, N) rfftn on a Xeon
# core takes 0.61 ms at N = 135 = 3^3 5 against 1.12 ms at 129 = 3 * 43,
# and 3.6 ms at 273 = 3 7 13 against 8.7 ms at the prime 257
FAST_FACTORS = (3, 5, 7, 11, 13)


@lru_cache(maxsize=1024)
def sampling_size(trunc_order: int) -> int:
    """Grid points per axis on which an order-M map is sampled.

    The smallest odd N >= 2M+1 whose prime factors are all at most 13,
    found by a factor search once per M and memoised.
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
def _dk_factor(dim_domain: int, trunc_order: int) -> np.ndarray:
    """2 pi i k_j on the k_n >= 0 half, component-major (n, *modes): the
    factor of the derivative along each axis, cached per (n, M), read-only."""
    ks = half_wavevectors(dim_domain, trunc_order)
    factor = np.ascontiguousarray(np.moveaxis(2j * np.pi * ks, -1, 0))
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=64)
def _directional_factor(dim_domain: int, trunc_order: int, omega: tuple) -> np.ndarray:
    """2 pi i k . omega on the k_n >= 0 half, shape (2M+1,)*(n-1) + (M+1,):
    the factor of the derivative along omega, cached per (n, M, omega),
    read-only."""
    factor = 2j * np.pi * (half_wavevectors(dim_domain, trunc_order)
                           @ np.asarray(omega, dtype=float))
    factor.flags.writeable = False
    return factor


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


@lru_cache(maxsize=64)
def _last_first(ndim: int, count: int) -> tuple:
    """The axis order that moves the last count of ndim axes to the front."""
    return tuple(range(ndim - count, ndim)) + tuple(range(ndim - count))


def _range_first(x: np.ndarray, rank: int) -> np.ndarray:
    """(*modes, *comp) as a (*comp, *modes) view; rank counts the comp axes."""
    return x.transpose(_last_first(x.ndim, rank))


def _grid_major(x: np.ndarray, rank: int) -> np.ndarray:
    """Component-major (*comp, *grid) as a grid-major (*grid, *comp) view."""
    return x.transpose(_last_first(x.ndim, x.ndim - rank))


def _mode_order(ks: np.ndarray, trunc_order: int | None) -> int:
    """The order of the modes k (rows of ks, integer-valued) at trunc_order
    (default: the largest |k|_inf).  A ValueError names an order below the
    largest |k|_inf or a k given twice; nothing of the grid's size is
    allocated."""
    max_order = np.abs(ks).max(initial=0)
    m = int(max_order if trunc_order is None else trunc_order)
    if m < max_order:
        raise ValueError("trunc_order smaller than largest stored mode")
    distinct, given = np.unique(ks.astype(np.intp), axis=0, return_counts=True)
    if given.max(initial=0) > 1:
        raise ValueError(f"wavevector {tuple(distinct[given.argmax()].tolist())} "
                         "is given twice")
    return m


def _fold(ks: np.ndarray, amps: np.ndarray, m: int) -> np.ndarray:
    """The half of the modes k (rows of ks, checked by _mode_order) with
    amplitudes amps (rows, *range_shape) at order m, a grid-major view of a
    new component-major array: amp at k and conj(amp) at -k of the full
    centered grid, a slot given twice averaged, one given once kept bit for
    bit (sums start from -0.0); no k is given twice, so each += is exact."""
    n, rank, shape = ks.shape[1], amps.ndim - 1, amps.shape[1:]
    side = 2 * m + 1
    # k's flat index in the (2M+1)^n grid, k at k + M; -k's is its mirror
    slot = (ks.astype(np.intp) + m) @ side ** np.arange(n - 1, -1, -1)
    given = np.bincount(slot, minlength=side**n)
    total = np.full((side**n,) + shape, complex(-0.0, -0.0))
    total[slot] += amps
    total[::-1][slot] += np.conj(amps)
    keep = (slice(None),) * (n - 1) + (slice(m, None),)  # the k_n >= 0 half
    count = (given + given[::-1]).reshape((side,) * n)[keep]
    total = _range_first(total.reshape((side,) * n + shape)[keep], rank)
    # part by part, as complex division by count + 0j turns -0.0 into 0.0
    half = np.zeros(total.shape, dtype=complex)
    np.divide(total.real, count, out=half.real, where=count > 0)
    np.divide(total.imag, count, out=half.imag, where=count > 0)
    return _grid_major(half, rank)


@dataclass(frozen=True)
class StripNormEstimate:
    """Certified upper bound for the sup of a map over a complex strip.

    ``value`` is the coefficient bound sum_k |amp(k)| exp(2 pi |k|_1 rho),
    which dominates sup over the strip of half-width rho (the map's
    grid_sup, its maximum on the real sampling grid, is a lower bound for
    the true sup).  ``tail_max`` is the largest unweighted amplitude
    max|amp(k)| in the last dyadic block of modes (|k|_inf > M/2), the
    scale to hold against round-off.  ``tail_sum`` is that block's share
    of ``value``, sum over |k|_inf > M/2 of |amp(k)| exp(2 pi |k|_1 rho),
    which bounds the sup of the tail block alone over the strip.
    ``tail_beyond`` is the share past M that the decay from the head
    (``value - tail_sum``) to the tail block predicts for one more block
    of M/2 orders.
    """

    value: float
    rho: float
    tail_max: float
    tail_sum: float

    @property
    def tail_beyond(self) -> float:
        """tail_sum^2 / head, with head = value - tail_sum: inf where the
        head is not positive and the tail is, 0 without a tail."""
        head = self.value - self.tail_sum
        if head > 0:
            return self.tail_sum * (self.tail_sum / head)
        return math.inf if self.tail_sum > 0 else 0.0


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
        ks, amps = [], []
        for k, amp in modes.items():
            k = tuple(int(ki) for ki in k)
            if len(k) != dim_domain:
                raise ValueError(f"wavevector {k} has wrong dimension")
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != range_shape:
                raise ValueError(f"amplitude for {k} has shape {amp.shape}, "
                                 f"expected {range_shape}")
            ks.append(k)
            amps.append(amp)
        ks = np.array(ks, dtype=int).reshape(-1, dim_domain)
        amps = np.array(amps, dtype=complex).reshape((-1,) + range_shape)
        self._adopt(dim_domain, _fold(ks, amps, _mode_order(ks, trunc_order)))

    def _adopt(self, dim_domain: int, half: np.ndarray) -> None:
        """Hold a Hermitian half-spectrum array that no one else writes to,
        read-only from here on."""
        half.flags.writeable = False
        object.__setattr__(self, "dim_domain", dim_domain)
        object.__setattr__(self, "half", half)

    @classmethod
    def _wrap(cls, dim_domain: int, half: np.ndarray) -> "FourierMap":
        """The map of a half that this package's transforms and products
        made, adopted without a layout check: each makes it a grid-major
        view of a new contiguous component-major array."""
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
        return math.prod(self.range_shape)

    @property
    def grid_size(self) -> int:
        return 2 * self.trunc_order + 1

    def _zero_mode(self) -> tuple:
        """Index of k = 0 in ``half``."""
        return (self.trunc_order,) * (self.dim_domain - 1) + (0,)

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

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero canonical modes, k sorted: (ks, amps), rows first."""
        full = self.coeffs
        ks = wavevectors(self.dim_domain, self.trunc_order)
        axes = tuple(range(self.dim_domain, full.ndim))
        keep = canonical(ks) & np.any(full != 0, axis=axes)
        return ks[keep], full[keep]

    @property
    def modes(self) -> Mapping[tuple[int, ...], np.ndarray]:
        """Read-only {k: amplitude} of the nonzero canonical modes, k sorted,
        derived from the half on each access; compute paths use the array."""
        ks, amps = self._rows()
        return MappingProxyType(dict(zip(map(tuple, ks.tolist()), amps)))

    def _at_order(self, trunc_order: int) -> np.ndarray:
        """The half zero-padded or cut to another truncation order.

        At the same order this is ``half`` itself, read-only, and a cut is
        a view of it; a padded half is a grid-major view of a new
        component-major array.
        """
        n, m = self.dim_domain, self.trunc_order
        if trunc_order == m:
            return self.half
        if trunc_order > m:
            d, rank = trunc_order - m, len(self.range_shape)
            pad = [(0, 0)] * rank + [(d, d)] * (n - 1) + [(0, d)]
            return _grid_major(np.pad(_range_first(self.half, rank), pad), rank)
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
        grid resolves; 2 trunc_order + 1 may not exceed N.  rfftn's passes
        over the grid axes of the component-major view give the k_n >= 0
        half; on its k_n = 0 plane, k is averaged with the conjugate of -k.
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
        rank, n = samples.ndim - dim_domain, dim_domain
        # rfftn's passes: rfft on the last grid axis, then fft on each other
        # one from the last but one down, over the k_n <= M columns only
        spec = np.fft.rfft(_range_first(samples, rank), size, -1)[..., : m + 1]
        for axis in range(samples.ndim - 2, rank - 1, -1):
            spec = np.fft.fft(spec, size, axis)
        half = np.empty(spec.shape[:rank] + (2 * m + 1,) * (n - 1) + (m + 1,),
                        dtype=complex)
        for h, f in _fft_blocks(m, size, n):
            np.divide(spec[(...,) + f], size**n, out=half[(...,) + h])
        # k with the conjugate of -k on the k_n = 0 plane
        plane = half[..., :1]
        flip = (...,) + (slice(None, None, -1),) * (n - 1) + (slice(None),)
        mirror = np.conj(plane[flip])
        np.add(plane, mirror, out=mirror)
        np.divide(mirror, 2.0, out=plane)
        return cls._wrap(n, _grid_major(half, rank))

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

        The half scattered by index into the rfftn layout, then irfftn's
        passes, into a component-major (*range_shape, *grid) buffer on a
        grid of any odd size N >= 2M+1.  The result has shape (*grid,
        *range_shape): a grid-major view of that contiguous buffer.
        """
        n, m, shape = self.dim_domain, self.trunc_order, self.range_shape
        size = 2 * m + 1 if grid_size is None else int(grid_size)
        if size % 2 == 0:
            raise ValueError("grid size must be odd")
        if size < 2 * m + 1:
            raise ValueError("grid too small for stored modes")
        rank = len(shape)
        # irfftn's passes: ifft on each leading grid axis, then irfft on the
        # last; the zero columns k_n > M go through the iffts as in irfftn,
        # which turns some of their zeros into -0.0 at sizes such as 89
        spec = np.zeros(shape + (size,) * (n - 1) + ((size + 1) // 2,), dtype=complex)
        half = _range_first(self.half, rank)
        for h, f in _fft_blocks(m, size, n):
            spec[(...,) + f] = half[(...,) + h]
        for axis in range(rank, rank + n - 1):
            spec = np.fft.ifft(spec, size, axis)
        out = np.fft.irfft(spec, size, -1)
        out *= size**n
        return _grid_major(out, rank)

    # -- calculus --------------------------------------------------------

    def _scaled_modes(self, factor: np.ndarray) -> np.ndarray:
        """The half times a per-mode factor of shape (2M+1,)*(n-1) + (M+1,),
        a grid-major view of a new component-major array."""
        rank = self.half.ndim - self.dim_domain
        return _grid_major(_range_first(self.half, rank) * factor, rank)

    def directional(self, omega: np.ndarray) -> "FourierMap":
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        factor = _directional_factor(self.dim_domain, self.trunc_order, tuple(om.tolist()))
        return FourierMap._wrap(self.dim_domain, self._scaled_modes(factor))

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
        weight, tail = _strip_weights(self.dim_domain, self.trunc_order, float(rho))
        amp = np.abs(_range_first(self.half, len(self.range_shape)))
        amax = np.maximum.reduce(amp.reshape((-1,) + weight.shape), 0, initial=0.0)
        nz = amax > 0  # zero modes add nothing, even where the weight overflows
        terms = amax[nz] * weight[nz]
        total = float(np.add.reduce(terms))
        return StripNormEstimate(
            value=total, rho=rho,
            tail_max=float(np.maximum.reduce(amax, None, where=tail, initial=0.0)),
            tail_sum=float(np.add.reduce(terms[tail[nz]])),
        )

    def grid_sup(self) -> float:
        """Max-norm maximum over the native sampling grid."""
        vals = self.synthesize()
        return float(np.max(np.abs(vals))) if vals.size else 0.0

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

    def resized(self, trunc_order: int) -> "FourierMap":
        """Embed into (or truncate to) a different truncation order."""
        half = self._at_order(trunc_order)
        if trunc_order < self.trunc_order:  # a cut is a view: copy it
            rank = len(self.range_shape)
            half = _grid_major(np.ascontiguousarray(_range_first(half, rank)), rank)
        return FourierMap._wrap(self.dim_domain, half)

    def allclose(self, other: "FourierMap", tol: float = 1e-12) -> bool:
        """Every amplitude within tol; |amp(-k)| differences equal |amp(k)|'s,
        so comparing the stored halves compares the full spectra."""
        m = max(self.trunc_order, other.trunc_order)
        return np.allclose(self._at_order(m), other._at_order(m), rtol=0, atol=tol)

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """Meta line, header row, then per :meth:`_rows` row k and the repr of
        each (re, im) pair; rows end in \\r\\n, as csv.writer ends them."""
        ks, amps = self._rows()
        pairs = amps.reshape(len(ks), self.dim_range).view(float)
        header = [f"k{j}" for j in range(self.dim_domain)] + [
            f"{part}{j}" for j in range(self.dim_range) for part in ("re", "im")]
        row = ",".join(["%d"] * self.dim_domain + ["%r"] * pairs.shape[1]) + "\r\n"
        return (f"# n={self.dim_domain} m={self.dim_range} trunc_order={self.trunc_order} "
                "canonical=1\n" + ",".join(header) + "\r\n"
                + "".join([row % (*k, *v) for k, v in zip(ks.tolist(), pairs.tolist())]))

    @classmethod
    def from_csv(cls, text: str) -> "FourierMap":
        """The map of a :meth:`to_csv` text: read_csv's rows, folded."""
        ks, amps, order = cls.read_csv(text)
        return cls._wrap(ks.shape[1], _fold(ks, amps, order))

    @staticmethod
    def read_csv(text: str) -> tuple[np.ndarray, np.ndarray, int]:
        """(ks, amps, trunc_order) of a :meth:`to_csv` text, its rows read by
        one np.loadtxt and not yet folded onto the (2M+1)^n grid: the
        integer wavevectors, their amplitudes (rows, *range_shape) and the
        header's order.  A ValueError names rows of the wrong field count, a
        wavevector entry that is not an integer, an amplitude entry that is
        not finite, a wavevector given twice and an order below the largest
        |k|_inf."""
        lines = text.splitlines()
        meta = {key: int(val) for key, _, val in
                (token.partition("=") for token in lines[0].lstrip("# ").split())}
        n, m = meta["n"], meta["m"]
        data = lines[2:]  # below the header row
        rows = (np.loadtxt(data, delimiter=",", ndmin=2) if any(data)
                else np.empty((0, n + 2 * m)))
        if rows.shape[1] != n + 2 * m:
            raise ValueError(f"mode rows need n + 2 m = {n + 2 * m} fields (n = {n}, "
                             f"m = {m}), got {rows.shape[1]}")
        ks, parts = rows[:, :n], rows[:, n:]
        whole = np.isfinite(ks) & (ks == np.round(ks))
        if not whole.all():
            raise ValueError(f"wavevector entry {ks[~whole][0]} is not an integer")
        finite = np.isfinite(parts)
        if not finite.all():
            raise ValueError(f"amplitude entry {parts[~finite][0]} is not finite")
        # the (re, im) pairs as complex by a view, every bit kept
        amps = np.ascontiguousarray(parts).view(complex)
        amps = amps.reshape((-1,) + ((m,) if m > 1 else ()))
        order = _mode_order(ks, meta["trunc_order"])
        return ks.astype(np.intp), amps, order

    def __repr__(self) -> str:
        return (f"FourierMap(n={self.dim_domain}, range={self.range_shape}, "
                f"M={self.trunc_order}, {len(self._rows()[0])} stored modes)")


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
        w = self.winding
        # a read-only float array that owns its data, such as another
        # embedding's winding, is adopted as it is
        if not (isinstance(w, np.ndarray) and w.dtype == float
                and w.flags.owndata and not w.flags.writeable):
            w = np.array(w, dtype=float)
            w.flags.writeable = False
        if w.shape != (self.periodic.dim_range, self.periodic.dim_domain):
            raise ValueError("winding shape must be (dim_range, dim_domain)")
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
        Like synthesize's, the samples are a grid-major view of a
        component-major (m, *grid) buffer.
        """
        return self._default_samples if grid_size is None else self._synthesized(grid_size)

    @cached_property
    def _default_samples(self) -> np.ndarray:
        out = self._synthesized(None)
        out.flags.writeable = False
        return out

    def _synthesized(self, grid_size: int | None) -> np.ndarray:
        n = self.dim_domain
        size = sampling_size(self.trunc_order) if grid_size is None else int(grid_size)
        out = self.periodic.synthesize(size)
        # W theta, added column by column into the component-major buffer:
        # column j times the angle theta_j = i / N, i < N, along grid axis j
        buf, axis = _range_first(out, 1), np.arange(size) / size
        for j, column in enumerate(self.winding.T):
            buf += np.multiply.outer(column, axis).reshape(
                (-1,) + (1,) * j + (size,) + (1,) * (n - 1 - j))
        return out

    def dk(self) -> FourierMap:
        """Jacobian DK as an (m, n) matrix-valued FourierMap (exact)."""
        per = self.periodic
        factor = _dk_factor(per.dim_domain, per.trunc_order)
        # component-major (2n, n, *modes): row i, column j is 2 pi i k_j amp_i
        half = np.empty(per.range_shape + factor.shape, dtype=complex)
        np.multiply(_range_first(per.half, 1)[:, None], factor[None], out=half)
        half[(...,) + per._zero_mode()] += self.winding
        return FourierMap._wrap(per.dim_domain, _grid_major(half, 2))

    def directional(self, omega) -> FourierMap:
        """d/dt K(theta + t omega): periodic (the winding shift is constant)."""
        om = np.asarray(getattr(omega, "omega", omega), dtype=float)
        per = self.periodic
        factor = _directional_factor(per.dim_domain, per.trunc_order,
                                     tuple(np.atleast_1d(om).tolist()))
        half = per._scaled_modes(factor)
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

    @classmethod
    def circle(cls, y0, trunc_order: int = 16) -> "TorusEmbedding":
        """Zero-section torus K(theta) = (theta, y0) over T^n."""
        y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        n = y0.size
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
        return cls.from_rows(*cls.read_csv(text))

    @staticmethod
    def read_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(winding, ks, amps, trunc_order) of a :meth:`to_csv` text: the
        (m, n) winding and the periodic part's FourierMap.read_csv rows,
        validated as those are and not yet folded, so that a caller can
        check the order first."""
        head, _, table = text.partition("\n")
        if not head.startswith("# winding="):
            raise ValueError("torus csv must start with a '# winding=' line")
        winding = np.array([int(v) for v in head.split("=", 1)[1].split()], dtype=float)
        ks, amps, order = FourierMap.read_csv(table)
        return winding.reshape(math.prod(amps.shape[1:]), ks.shape[1]), ks, amps, order

    @classmethod
    def from_rows(cls, winding: np.ndarray, ks: np.ndarray, amps: np.ndarray,
                  trunc_order: int) -> "TorusEmbedding":
        """The embedding of read_csv's (winding, ks, amps, trunc_order)."""
        return cls(winding, FourierMap._wrap(ks.shape[1], _fold(ks, amps, trunc_order)))
