"""Fourier analysis, calculus and norms on the torus."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamtori import FourierMap, FrequencyVector, TorusEmbedding, solve_cohomological

import kamtori.solver as solver
from kamtori.fourier import (
    _directional_factor, _dk_factor, _fft_blocks, _range_first, _strip_weights,
    canonical, sampling_size, wavevectors,
)

from conftest import GOLDEN, random_trig


def brute_dft(samples, n):
    """Direct O(N^2) DFT sum, the reference for FourierMap.from_samples."""
    size = samples.shape[0]
    m = (size - 1) // 2
    grid = [np.arange(size) / size for _ in range(n)]
    mesh = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1)
    flat_t = mesh.reshape(-1, n)
    flat_s = samples.reshape(flat_t.shape[0], -1)
    out = {}
    for idx in np.ndindex(*((size,) * n)):
        k = tuple(i - m for i in idx)
        phase = np.exp(-2j * np.pi * (flat_t @ np.array(k, dtype=float)))
        out[k] = (phase[:, None] * flat_s).sum(axis=0) / size**n
    return out


class TestAnalyze:
    def test_constant_field(self):
        samples = np.full((9,), 3.5)
        f = FourierMap.from_samples(samples, 1)
        assert set(f.modes) == {(0,)}
        assert f.coeffs[f.trunc_order] == pytest.approx(3.5)

    def test_cosine_amplitudes(self):
        theta = np.arange(11) / 11
        f = FourierMap.from_samples(np.cos(2 * np.pi * theta), 1)
        assert f.coeffs[f.trunc_order + 1] == pytest.approx(0.5, abs=1e-14)
        for k, amp in f.modes.items():
            if k != (1,):
                assert abs(amp) < 1e-14

    def test_matches_brute_dft(self):
        rng = np.random.default_rng(7)
        g = random_trig(rng, 2, 4)
        samples = g.synthesize(9)
        f = FourierMap.from_samples(samples, 2)
        ref = brute_dft(samples, 2)
        for k, amp in f.modes.items():
            want = ref[k]
            assert abs(complex(amp) - complex(want[0])) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        g = random_trig(rng, 2, 3, (2,))
        samples = g.synthesize()
        back = FourierMap.from_samples(samples, 2)
        again = back.synthesize()
        scale = np.max(np.abs(samples))
        assert np.max(np.abs(again - samples)) < 1e-12 * scale

    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            FourierMap.from_samples(np.zeros((8,)), 1)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        s1 = random_trig(rng, 1, 5).synthesize(11)
        s2 = random_trig(rng, 1, 5).synthesize(11)
        a, b = 1.7, -0.3
        lhs = FourierMap.from_samples(a * s1 + b * s2, 1)
        f1, f2 = FourierMap.from_samples(s1, 1), FourierMap.from_samples(s2, 1)
        assert np.allclose(lhs.coeffs, a * f1.coeffs + b * f2.coeffs, rtol=0, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        g = random_trig(rng, 2, 3)
        samples = g.synthesize()
        power = float(np.sum(np.abs(FourierMap.from_samples(samples, 2).coeffs) ** 2))
        mean_sq = float(np.mean(samples**2))
        assert power == pytest.approx(mean_sq, rel=1e-10)


def centered_fft(samples, n):
    """Full complex fftn, centered at k = 0: the reference for from_samples."""
    axes = tuple(range(n))
    spec = np.fft.fftshift(np.fft.fftn(samples, axes=axes), axes=axes)
    return spec / samples.shape[0] ** n


def full_ifft(f, size):
    """Full complex ifftn of the zero-padded spectrum: reference for synthesize."""
    n, pad = f.dim_domain, (size - f.grid_size) // 2
    full = np.pad(f.coeffs, [(pad, pad)] * n + [(0, 0)] * len(f.range_shape))
    axes = tuple(range(n))
    return np.fft.ifftn(np.fft.ifftshift(full, axes=axes), axes=axes) * size**n


class TestHalfSpectrumOracles:
    """The half-spectrum transforms against full complex FFTs."""

    @pytest.mark.parametrize("n, range_shape, size", [
        (1, (), 9), (1, (2,), 1), (2, (4,), 7), (2, (), 1), (3, (2, 2), 5),
        (3, (), 7),
    ])
    def test_analysis_matches_full_fft(self, n, range_shape, size):
        rng = np.random.default_rng(size + n)
        samples = rng.standard_normal((size,) * n + range_shape)
        want = centered_fft(samples, n)
        got = FourierMap.from_samples(samples, n).coeffs
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, range_shape, order, size", [
        (1, (), 4, 9), (1, (2,), 4, 15), (2, (4,), 3, 7), (2, (), 3, 11),
        (3, (2, 2), 2, 5), (3, (), 2, 9), (2, (), 0, 5),
    ])
    def test_synthesis_matches_full_ifft(self, n, range_shape, order, size):
        f = random_trig(np.random.default_rng(order + size), n, order, range_shape)
        want = full_ifft(f, size)
        got = f.synthesize(size)
        tol = 1e-13 * np.max(np.abs(want))
        assert got.shape == (size,) * n + range_shape
        assert np.max(np.abs(want.imag)) <= tol  # the oracle is real too
        assert np.max(np.abs(got - want.real)) <= tol

    def test_wavevectors_cached_read_only(self):
        ks = wavevectors(2, 3)
        assert ks is wavevectors(2, 3)
        assert not ks.flags.writeable
        with pytest.raises(ValueError):
            ks[0, 0, 0] = 1

    def test_fft_blocks_cached(self):
        blocks = _fft_blocks(3, 9, 2)
        assert blocks is _fft_blocks(3, 9, 2)
        # k_1 in [0, 3] at rfftn rows 0..3, k_1 in [-3, -1] at rows 6..8
        assert blocks == (
            ((slice(3, 7), slice(0, 4)), (slice(0, 4), slice(0, 4))),
            ((slice(0, 3), slice(0, 4)), (slice(6, 9), slice(0, 4))),
        )
        assert _fft_blocks(0, 5, 3) == (((slice(0, 1),) * 3,) * 2,)


def same_bits(a, b):
    """Equal shapes and equal bytes: bit-for-bit, the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def rfftn_half(samples, n, order):
    """The stored half from one np.fft.rfftn over the component-major grid:
    the |k|_inf <= M rows gathered, scaled by N^-n, the k_n = 0 plane
    averaged with its conjugate mirror."""
    size, rank = samples.shape[0], samples.ndim - n
    comp = np.moveaxis(samples, tuple(range(n)), tuple(range(rank, rank + n)))
    spec = np.fft.rfftn(comp, axes=tuple(range(rank, rank + n)))
    rows = np.arange(-order, order + 1) % size
    for axis in range(rank, rank + n - 1):
        spec = np.take(spec, rows, axis=axis)
    half = spec[..., : order + 1] / size**n
    plane = half[..., 0]
    plane[...] = (plane + np.conj(np.flip(plane, axis=tuple(range(rank, plane.ndim))))) / 2.0
    return np.moveaxis(half, tuple(range(rank)), tuple(range(n, n + rank)))


def irfftn_samples(f, size):
    """Samples of f from one np.fft.irfftn of its half scattered into the
    zero-filled rfftn layout, scaled by N^n."""
    n, m, rank = f.dim_domain, f.trunc_order, len(f.range_shape)
    half = np.moveaxis(f.half, tuple(range(n)), tuple(range(rank, rank + n)))
    spec = np.zeros(f.range_shape + (size,) * (n - 1) + ((size + 1) // 2,), dtype=complex)
    rows = np.arange(-m, m + 1) % size
    spec[(...,) + np.ix_(*[rows] * (n - 1), np.arange(m + 1))] = half
    out = np.fft.irfftn(spec, s=(size,) * n, axes=tuple(range(rank, rank + n)))
    out *= size**n
    return np.moveaxis(out, tuple(range(rank)), tuple(range(n, n + rank)))


# (n, M, N): the smallest grid 2M + 1 and larger odd ones, 135 at M = 64,
# and 89, a size whose zero lines pocketfft turns into some -0.0
SPECTRAL_GRIDS = [(1, 64, 129), (1, 64, 135), (1, 4, 13), (2, 5, 11), (2, 5, 15),
                  (2, 5, 89), (3, 2, 5), (3, 2, 9)]


class TestSpectralCoreOracles:
    """Analysis and synthesis bit for bit against numpy's n-D transforms."""

    @pytest.mark.parametrize("n, order, size", SPECTRAL_GRIDS)
    @pytest.mark.parametrize("shape", ["scalar", "vector", "matrix"])
    def test_from_samples_equals_rfftn(self, n, order, size, shape):
        range_shape = {"scalar": (), "vector": (2 * n,), "matrix": (n, n)}[shape]
        rng = np.random.default_rng(10 * n + size)
        samples = rng.standard_normal((size,) * n + range_shape)
        f = FourierMap.from_samples(samples, n, order)
        want = rfftn_half(samples, n, order)
        if n < 3 or np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert same_bits(f.half, want)
        else:  # numpy 1.x runs rfftn's fft passes from the first axis up
            assert np.max(np.abs(f.half - want)) <= 1e-15 * np.max(np.abs(want))
        # a grid-major view of component-major samples, as the solver passes
        comp = np.ascontiguousarray(np.moveaxis(samples, tuple(range(n)), tuple(
            range(len(range_shape), len(range_shape) + n))))
        view = np.moveaxis(comp, tuple(range(len(range_shape))), tuple(
            range(n, n + len(range_shape))))
        assert same_bits(FourierMap.from_samples(view, n, order).half, f.half)

    @pytest.mark.parametrize("n, order, size", SPECTRAL_GRIDS)
    @pytest.mark.parametrize("shape", ["scalar", "vector", "matrix"])
    def test_synthesize_equals_irfftn(self, n, order, size, shape):
        range_shape = {"scalar": (), "vector": (2 * n,), "matrix": (n, n)}[shape]
        f = random_trig(np.random.default_rng(20 * n + size), n, order, range_shape)
        assert same_bits(f.synthesize(size), irfftn_samples(f, size))
        # a sparse map: its zero grid lines keep the sign of zero too
        sparse = FourierMap(n, range_shape, {(1,) * n: np.full(range_shape, 0.5j)}, order)
        assert same_bits(sparse.synthesize(size), irfftn_samples(sparse, size))
        zero = FourierMap(n, range_shape, {}, order)
        assert same_bits(zero.synthesize(size), irfftn_samples(zero, size))


def plain_strip_norm(f, rho):
    """(value, tail_max, tail_sum) from a loop over the stored
    half in k order: max |amp| times the cached weight for every mode with
    a nonzero amplitude, summed by np.sum; the tail is |k|_inf > M/2."""
    weight, _ = _strip_weights(f.dim_domain, f.trunc_order, float(rho))
    ks = np.abs(wavevectors(f.dim_domain, f.trunc_order)[..., f.trunc_order:, :])
    terms, tail_terms, tail_max = [], [], 0.0
    for idx in np.ndindex(weight.shape):
        amp = float(np.max(np.abs(f.half[idx]), initial=0.0))
        tail = ks[idx].max() > f.trunc_order / 2.0
        if tail:
            tail_max = max(tail_max, amp)
        if amp > 0:
            terms.append(amp * weight[idx])
            if tail:
                tail_terms.append(terms[-1])
    total = float(np.sum(np.array(terms)))
    tail_sum = float(np.sum(np.array(tail_terms)))
    return total, tail_max, tail_sum


class TestStripNormOracle:
    """strip_norm bit for bit against a plain loop over the modes."""

    # at rho = 50 the weight of |k|_1 >= 3 overflows: zero amplitudes there
    # add nothing, a nonzero one makes the bound infinite
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("range_shape", [(), (4,), (2, 2)])
    @pytest.mark.parametrize("rho", [0.0, 0.02, 50.0])
    def test_equals_plain_sum(self, n, range_shape, rho):
        rng = np.random.default_rng(30 * n + len(range_shape))
        maps = [
            random_trig(rng, n, 1, range_shape).resized(3),  # empty tail
            random_trig(rng, n, 3, range_shape),
            FourierMap(n, range_shape, {(3,) * n: np.ones(range_shape)}, 3),
            FourierMap(n, range_shape, {(0,) * n: np.ones(range_shape)}, 3),  # the zero mode only
            FourierMap(n, range_shape, {}, 3),  # no nonzero mode
        ]
        for f in maps:
            est = f.strip_norm(rho)
            value, tail_max, tail_sum = plain_strip_norm(f, rho)
            assert same_bits(est.value, value) and same_bits(est.tail_sum, tail_sum)
            assert same_bits(est.tail_max, tail_max)
        assert np.isinf(maps[2].strip_norm(50.0).value)
        # order 1 reaches |k|_1 = n, whose weight overflows at n = 3 only
        assert np.isfinite(maps[0].strip_norm(50.0).value) == (n < 3)

    def test_weights_are_the_strip_exponentials(self):
        weight, tail = _strip_weights(2, 3, 0.02)
        for idx in np.ndindex(weight.shape):
            k = wavevectors(2, 3)[idx[0], idx[1] + 3]
            want = np.exp(2 * np.pi * np.abs(k).sum() * 0.02) * (2.0 if k[-1] > 0 else 1.0)
            assert weight[idx] == pytest.approx(want, rel=1e-15)
            assert tail[idx] == (np.abs(k).max() > 1.5)


class TestDirectionalDerivative:
    def test_constant_is_annihilated(self):
        f = FourierMap(2, (2,), {(0, 0): [2.0, -1.0]})
        d = f.directional(np.array([0.3, 0.7]))
        assert d.grid_sup() == 0.0

    def test_single_mode_chain_rule(self):
        # K = sin(2 pi theta) = Im e^{2 pi i theta}: stored amp -i/2 at k=1
        f = FourierMap(1, (), {(1,): -0.5j})
        omega = np.array([0.4])
        d = f.directional(omega)
        theta = np.linspace(0, 1, 17)[:, None]
        want = 2 * np.pi * 0.4 * np.cos(2 * np.pi * theta[:, 0])
        assert np.max(np.abs(d(theta) - want)) < 1e-13

    def test_against_finite_differences(self):
        # omega small enough that the h^2 truncation error stays below tol
        f = FourierMap(2, (), {(1, 2): 0.5})  # cos(2 pi (t1 + 2 t2))
        omega = np.array([0.31, 0.40])
        d = f.directional(omega)
        rng = np.random.default_rng(2)
        h = 1e-5
        for theta in rng.random((10, 2)):
            fd = (f(theta + h * omega) - f(theta - h * omega)) / (2 * h)
            assert d(theta) == pytest.approx(fd, abs=1e-8)

    def test_average_annihilated_exactly(self):
        rng = np.random.default_rng(9)
        g = random_trig(rng, 2, 4, (3,))
        d = g.directional(np.array([0.3, np.sqrt(2)]))
        assert np.all(d.average() == 0.0)


class TestAverage:
    def test_constant(self):
        f = FourierMap(1, (), {(0,): 3.5})
        assert f.average() == pytest.approx(3.5)

    def test_cosine_mean_free(self):
        f = FourierMap(1, (), {(1,): 0.5})
        assert f.average() == pytest.approx(0.0)

    def test_riemann_sum(self):
        rng = np.random.default_rng(13)
        g = random_trig(rng, 1, 6)
        theta = (np.arange(10_000) / 10_000)[:, None]
        quad = float(np.mean(g(theta)))
        assert g.average() == pytest.approx(quad, abs=1e-9)


class TestStripNorm:
    def test_constant(self):
        f = FourierMap(1, (), {(0,): -2.5})
        assert f.strip_norm(0.7).value == pytest.approx(2.5)

    def test_single_mode_weight(self):
        f = FourierMap(2, (), {(1, -2): 0.3 + 0.4j})
        est = f.strip_norm(0.1)
        want = 2.0 * 0.5 * np.exp(2 * np.pi * 3 * 0.1)
        assert est.value == pytest.approx(want, rel=1e-14)

    def test_cosine_value_and_grid_bound(self):
        f = FourierMap(1, (), {(1,): 0.5})
        est = f.strip_norm(0.1)
        assert est.value == pytest.approx(np.exp(0.2 * np.pi), rel=1e-14)
        theta = (np.arange(1000) / 1000)[:, None]
        assert est.value >= np.max(np.abs(f(theta)))

    @pytest.mark.parametrize("rho", [0.0, 0.05, 0.3])
    def test_dominates_grid_sup(self, rho):
        rng = np.random.default_rng(17)
        g = random_trig(rng, 2, 4)
        est = g.strip_norm(rho)
        assert est.value >= g.grid_sup() - 1e-12

    def test_negative_rho_rejected(self):
        f = FourierMap(1, (), {(0,): 1.0})
        with pytest.raises(ValueError):
            f.strip_norm(-0.1)


def full_spectrum_strip_norm(f, rho):
    """(value, tail_sum) summed over every mode of the full spectrum: the
    reference for strip_norm's half-spectrum sum."""
    ks = np.abs(wavevectors(f.dim_domain, f.trunc_order))
    axes = tuple(range(f.dim_domain, f.coeffs.ndim))
    amax = np.max(np.abs(f.coeffs), axis=axes, initial=0.0)
    nz = amax > 0
    with np.errstate(over="ignore"):
        terms = amax[nz] * np.exp(2 * np.pi * ks.sum(axis=-1)[nz] * rho)
    total = float(np.sum(terms))
    tail = float(np.sum(terms[ks.max(axis=-1)[nz] > f.trunc_order / 2.0]))
    return total, tail


class TestHalfSpectrumStripNorm:
    """strip_norm's cached half-spectrum weights against the full sum."""

    # filled order 1 keeps every mode out of the tail |k|_inf > 3/2 at M = 3;
    # at rho = 50 the weight of |k|_1 >= 3 overflows, and the zero modes
    # there must still add 0
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("range_shape", [(), (4,), (4, 2)])
    @pytest.mark.parametrize("rho", [0.0, 0.02, 50.0])
    @pytest.mark.parametrize("filled", [1, 2])
    def test_matches_full_spectrum_sum(self, n, range_shape, rho, filled):
        rng = np.random.default_rng(100 * n + 10 * len(range_shape) + filled)
        f = random_trig(rng, n, filled, range_shape).resized(3)
        value, tail_sum = full_spectrum_strip_norm(f, rho)
        est = f.strip_norm(rho)
        assert est.value == pytest.approx(value, rel=1e-13, abs=0.0)
        assert est.tail_sum == pytest.approx(tail_sum, rel=1e-13, abs=0.0)
        assert (tail_sum > 0) == (filled == 2)
        if n == 1:
            assert np.isfinite(est.value)  # the overflowing weights hit zeros

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("range_shape", [(), (4,), (4, 2)])
    @pytest.mark.parametrize("filled", [1, 2, 3])
    def test_tail_max_matches_full_spectrum(self, n, range_shape, filled):
        rng = np.random.default_rng(200 * n + 10 * len(range_shape) + filled)
        f = random_trig(rng, n, filled, range_shape).resized(3)
        ks = np.abs(wavevectors(n, 3))
        axes = tuple(range(n, f.coeffs.ndim))
        amp = np.max(np.abs(f.coeffs), axis=axes)[ks.max(axis=-1) > 1.5]
        want = float(np.max(amp))
        assert f.strip_norm(0.02).tail_max == want
        assert (want > 0) == (filled > 1)  # filled order 1 leaves the tail empty

    def test_tail_max_is_unweighted(self):
        f = FourierMap(1, (2,), {(1,): [1.0, 0.0], (3,): [0.0, -2e-5j]},
                       trunc_order=4)
        assert [f.strip_norm(rho).tail_max for rho in (0.0, 1.0)] == [2e-5, 2e-5]
        assert FourierMap(1, (), {(0,): 1.0}).strip_norm(0.0).tail_max == 0.0

    def test_weight_tables_cached_read_only(self):
        weight, tail = _strip_weights(2, 3, 0.02)
        assert weight.shape == tail.shape == (7, 4)
        assert _strip_weights(2, 3, 0.02)[0] is weight
        for table in (weight, tail):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0


def dense_spectrum(samples, n):
    """The full centered spectrum of samples, amplitude of k at index k + M,
    from the direct DFT sum: the reference every operation is held to."""
    size = samples.shape[0]
    m, shape = (size - 1) // 2, samples.shape[n:]
    dense = np.zeros((size,) * n + shape, dtype=complex)
    for k, amp in brute_dft(samples, n).items():
        dense[tuple(v + m for v in k)] = amp.reshape(shape)
    return dense


def dense_eval(dense, theta):
    """sum_k dense[k] exp(2 pi i k . theta) at points theta of shape (..., n)."""
    n = theta.shape[-1]
    m = (dense.shape[0] - 1) // 2
    ks = wavevectors(n, m).reshape(-1, n)
    phase = np.exp(2j * np.pi * (theta.reshape(-1, n) @ ks.T))
    out = phase @ dense.reshape(ks.shape[0], -1)
    return out.real.reshape(theta.shape[:-1] + dense.shape[n:])


def dense_at(dense, n, order):
    """A dense spectrum zero-padded or cut to another truncation order."""
    m = (dense.shape[0] - 1) // 2
    d = order - m
    if d >= 0:
        return np.pad(dense, [(d, d)] * n + [(0, 0)] * (dense.ndim - n))
    return dense[(slice(-d, d),) * n]


class TestHalfSpectrumMap:
    """Every FourierMap operation on the stored k_n >= 0 half against the
    dense full spectrum of a direct DFT."""

    @staticmethod
    def make(n, range_shape):
        """(map, dense reference, generator) from random samples at M = 5 - n."""
        m = 5 - n
        rng = np.random.default_rng(10 * n + len(range_shape))
        samples = rng.standard_normal((2 * m + 1,) * n + range_shape)
        return FourierMap.from_samples(samples, n), dense_spectrum(samples, n), rng

    @pytest.fixture(params=[1, 2, 3])
    def case(self, request, range_shape):
        return self.make(request.param, range_shape)

    @pytest.fixture(params=[(), (2,), (2, 2)], ids=["scalar", "vector", "matrix"])
    def range_shape(self, request):
        return request.param

    @staticmethod
    def close(got, want, tol=1e-12):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= tol * max(
            1.0, np.max(np.abs(want), initial=0.0))

    def test_analysis_stores_the_half(self, case):
        f, dense, _ = case
        n, m = f.dim_domain, f.trunc_order
        self.close(f.half, dense[(slice(None),) * (n - 1) + (slice(m, None),)])
        self.close(f.coeffs, dense)
        assert not f.half.flags.writeable and not f.coeffs.flags.writeable
        # the k_n = 0 plane is exactly Hermitian, also on a grid where the
        # rfftn's own plane misses that by round-off
        size = 33 if n < 3 else 9
        big = np.random.default_rng(n).standard_normal((size,) * n + f.range_shape)
        for g in (f, FourierMap.from_samples(big, n)):
            plane = g.half[(slice(None),) * (n - 1) + (0,)]
            flipped = np.flip(plane, axis=tuple(range(n - 1)))
            assert np.array_equal(plane, np.conj(flipped))

    @pytest.mark.parametrize("extra", [0, 3])
    def test_synthesis_on_native_and_larger_grids(self, case, extra):
        f, dense, _ = case
        size = f.grid_size + 2 * extra
        theta = TorusEmbedding.circle(np.zeros(f.dim_domain)).grid(size)
        vals = f.synthesize(size)
        self.close(vals, dense_eval(dense, theta))
        rank = len(f.range_shape)
        if rank:
            assert np.shares_memory(vals, solver._components(vals, rank))

    def test_calculus(self, case):
        f, dense, rng = case
        n, m = f.dim_domain, f.trunc_order
        ks = wavevectors(n, m)
        per_mode = (...,) + (None,) * len(f.range_shape)
        def times(factor):
            return dense * factor[per_mode]

        omega = rng.standard_normal(n)
        self.close(f.directional(omega).coeffs, times(2j * np.pi * ks @ omega))
        self.close(np.asarray(f.average()), dense[(m,) * n].real)

    def test_sums_and_resizing(self, case):
        f, dense, rng = case
        n, m = f.dim_domain, f.trunc_order
        low = rng.standard_normal((2 * m - 1,) * n + f.range_shape)
        g, g_dense = FourierMap.from_samples(low, n), dense_spectrum(low, n)
        self.close((f + g).coeffs, dense + dense_at(g_dense, n, m))
        self.close((g - f).coeffs, dense_at(g_dense, n, m) - dense)
        for order in (m + 2, m - 1, 0):
            self.close(f.resized(order).coeffs, dense_at(dense, n, order))
        assert f.resized(m + 2).resized(m).allclose(f, tol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_torus_jacobian(self, n):
        f, dense, _ = self.make(n, (2,))
        m = f.trunc_order
        winding = np.arange(2 * n).reshape(2, n) % 3
        K = TorusEmbedding(winding, f)
        ks = wavevectors(n, m)
        want = dense[..., :, None] * (2j * np.pi * ks)[..., None, :]
        want[(m,) * n] += winding
        self.close(K.dk().coeffs, want)
        omega = np.linspace(0.3, 0.9, n)
        want = dense * (2j * np.pi * ks @ omega)[..., None]
        want[(m,) * n] += winding @ omega
        self.close(K.directional(omega).coeffs, want)

    @pytest.mark.parametrize("rho", [0.0, 0.02, 0.03])
    def test_strip_norm(self, case, rho):
        f, dense, _ = case
        n = f.dim_domain
        ks = np.abs(wavevectors(n, f.trunc_order))
        amax = np.max(np.abs(dense), axis=tuple(range(n, dense.ndim)), initial=0.0)
        terms = amax * np.exp(2 * np.pi * ks.sum(axis=-1) * rho)
        tail = ks.max(axis=-1) > f.trunc_order / 2.0
        est = f.strip_norm(rho)
        assert est.value == pytest.approx(np.sum(terms), rel=1e-12)
        assert est.tail_max == pytest.approx(np.max(amax[tail]), rel=1e-12)
        assert est.tail_sum == pytest.approx(np.sum(terms[tail]), rel=1e-12)

    def test_cold_paths(self, case):
        f, dense, rng = case
        n, m = f.dim_domain, f.trunc_order
        ks = wavevectors(n, m)
        keep = canonical(ks)
        assert list(f.modes) == [tuple(k) for k in ks[keep].tolist()]
        self.close(np.array(list(f.modes.values())), dense[keep])
        theta = rng.random((6, n))
        self.close(f(theta), dense_eval(dense, theta))
        nudged = FourierMap._wrap(n, f.half + 1e-9)
        assert f.allclose(nudged, tol=2e-9) and not f.allclose(nudged, tol=5e-10)
        # a CSV keeps the range flattened to its m components
        back = FourierMap.from_csv(f.to_csv())
        assert back.trunc_order == m
        self.close(back.coeffs.reshape(dense.shape), dense)


class TestStorageConvention:
    def test_reality_fold(self):
        # supplying both halves of a conjugate pair is the same map
        a = FourierMap(1, (), {(1,): 0.3 + 0.2j, (-1,): 0.3 - 0.2j})
        b = FourierMap(1, (), {(1,): 0.3 + 0.2j})
        theta = np.linspace(0, 1, 31)[:, None]
        assert np.max(np.abs(a(theta) - b(theta))) < 1e-14

    def test_canonical_keys_only(self):
        f = FourierMap(2, (), {(-1, 2): 1.0 + 1.0j})
        assert set(f.modes) == {(1, -2)}

    def test_immutable(self):
        f = FourierMap(1, (), {(0,): 1.0})
        with pytest.raises(AttributeError):
            f.trunc_order = 5

    def test_trunc_order_floor(self):
        with pytest.raises(ValueError, match="trunc_order"):
            FourierMap(1, (), {(3,): 1.0}, trunc_order=2)


def component_major(f) -> bool:
    """The layout FourierMap._wrap adopts without a check: a read-only half
    whose component-major (*range_shape, *modes) view is C-contiguous."""
    return (not f.half.flags.writeable
            and _range_first(f.half, len(f.range_shape)).flags.c_contiguous)


class TestHalfLayout:
    """Every map the package's constructors, transforms and products make
    holds its half component-major, the invariant _wrap trusts."""

    @pytest.mark.parametrize("n, m", [(1, 6), (2, 4), (3, 2)])
    @pytest.mark.parametrize("range_shape", [(), (2,), (4, 2)],
                             ids=["scalar", "vector", "matrix"])
    def test_maps_and_their_products(self, n, m, range_shape):
        rng = np.random.default_rng(40 + 3 * n + len(range_shape))
        f = random_trig(rng, n, m, range_shape)
        g = random_trig(rng, n, m - 1, range_shape)
        made = {
            "__init__": f,
            "from_samples": FourierMap.from_samples(f.synthesize(), n),
            "from_samples at M - 1": FourierMap.from_samples(f.synthesize(), n, m - 1),
            "add": f + g, "sub": g - f, "add at equal order": f + f,
            "resized up": f.resized(m + 2), "resized same": f.resized(m),
            "resized down": f.resized(m - 1),
            "directional": f.directional(rng.random(n)),
            "from_csv": FourierMap.from_csv(f.to_csv()),
        }
        for name, h in made.items():
            assert component_major(h), name
        samples = f.synthesize(f.grid_size + 2)
        assert _range_first(samples, len(range_shape)).flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedding_maps_and_solutions(self, n):
        omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.5])[:n]
        rng = np.random.default_rng(50 + n)
        per = random_trig(rng, n, 3, (2 * n,))
        K = TorusEmbedding(np.vstack([np.eye(n), np.zeros((n, n))]), per)
        freq = FrequencyVector.estimated(omega, n + 0.1, 3 * n)
        for h in (K.dk(), K.directional(omega), K.resized(5).periodic,
                  solve_cohomological(per, freq).solution,
                  solver._symmetric_map(np.ones((n, n, 7) + (7,) * (n - 1)), 3)):
            assert component_major(h)


def csv_writer_reference(f):
    """FourierMap.to_csv as one csv.writer row per mode of f.modes."""
    out = io.StringIO()
    out.write(f"# n={f.dim_domain} m={f.dim_range} trunc_order={f.trunc_order} canonical=1\n")
    writer = csv.writer(out)
    header = [f"k{j}" for j in range(f.dim_domain)]
    for j in range(f.dim_range):
        header += [f"re{j}", f"im{j}"]
    writer.writerow(header)
    for k, a in f.modes.items():
        row = list(k)
        for z in np.ravel(a):
            row += [repr(float(z.real)), repr(float(z.imag))]
        writer.writerow(row)
    return out.getvalue()


class TestSerialization:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("range_shape", [(), (2,), (2, 2)])
    def test_csv_equals_writer_reference(self, n, range_shape):
        rng = np.random.default_rng(7 * n + len(range_shape))
        base = random_trig(rng, n, 2, range_shape)
        c = 10.0 ** rng.integers(-300, 300)
        maps = [
            FourierMap(n, range_shape, {k: c * a for k, a in base.modes.items()}, 2),
            FourierMap(n, range_shape, {(1,) * n: np.full(range_shape, -0.0 + 1e-17j)}, 3),
            FourierMap(n, range_shape, {}, 2),  # no row at all
        ]
        for f in maps:
            text = f.to_csv()
            assert text == csv_writer_reference(f)
        K = TorusEmbedding.circle(np.full(n, 0.3), trunc_order=2)
        g = random_trig(rng, n, 2, (2 * n,))
        K = K.with_periodic(K.periodic + FourierMap(
            n, (2 * n,), {k: 1e-3 * a for k, a in g.modes.items()}, 2))
        assert K.to_csv() == f"# winding={' '.join(str(int(w)) for w in K.winding.ravel())}\n" + (
            csv_writer_reference(K.periodic))
        assert TorusEmbedding.from_csv(K.to_csv()).to_csv() == K.to_csv()

    def test_csv_round_trip(self):
        rng = np.random.default_rng(29)
        g = random_trig(rng, 1, 5, (2,))
        back = FourierMap.from_csv(g.to_csv())
        assert back.allclose(g, tol=1e-15)

    def test_torus_round_trips(self):
        K = TorusEmbedding.circle(0.7, trunc_order=8)
        rng = np.random.default_rng(31)
        g = random_trig(rng, 1, 4, (2,))
        K = K.with_periodic(K.periodic + FourierMap(
            1, (2,), {k: 0.01 * a for k, a in g.modes.items()}, 4))
        back = TorusEmbedding.from_csv(K.to_csv())
        assert np.array_equal(back.winding, K.winding)
        assert back.periodic.allclose(K.periodic, tol=1e-15)


class TestModeTableReader:
    """FourierMap.from_csv: one np.loadtxt and the constructor's fold."""

    SPECIAL = [complex(-0.0, 0.75), complex(5e-324, -0.0), complex(1e300, -1e300),
               complex(-1e300, 2.5e-310)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("range_shape", [(), (2,), (6,)], ids=["m=1", "m=2", "m=6"])
    def test_round_trip_bit_for_bit(self, n, range_shape):
        rng = np.random.default_rng(60 + 7 * n + len(range_shape))
        order = 4 if n == 1 else 2
        modes = dict(random_trig(rng, n, order, range_shape).modes)
        # -0.0, subnormal and +-1e300 parts, the first on the k_n = 0 plane
        plane = (1,) + (0,) * (n - 1)
        keys = [plane] + [k for k in modes if any(k) and k != plane]
        for k, z in zip(keys, self.SPECIAL):
            modes[k] = np.full(range_shape, z)
        f = FourierMap(n, range_shape, modes, order + 1)
        parts = np.stack([f.half.real, f.half.imag])
        assert np.signbit(parts[parts == 0]).any() and (parts == 5e-324).any()
        text = f.to_csv()
        back = FourierMap.from_csv(text)
        assert same_bits(back.half, f.half)
        assert back.to_csv() == text

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_map_reads_back_without_warning(self, n):
        f = FourierMap(n, (2,), {}, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = FourierMap.from_csv(f.to_csv())
        assert back.trunc_order == 2 and same_bits(back.half, f.half)

    def test_torus_round_trip_bit_for_bit(self):
        K = TorusEmbedding.circle(np.array([GOLDEN, 0.4]), 4)
        rng = np.random.default_rng(67)
        K = K.with_periodic(K.periodic + random_trig(rng, 2, 4, (4,)))
        back = TorusEmbedding.from_csv(K.to_csv())
        assert np.array_equal(back.winding, K.winding)
        assert same_bits(back.periodic.half, K.periodic.half)

    @staticmethod
    def table(rows):
        """A to_csv text of an n = 2, m = 1 map at order 3 with these rows."""
        return ("# n=2 m=1 trunc_order=3 canonical=1\nk0,k1,re0,im0\r\n"
                + "".join(row + "\r\n" for row in rows))

    @pytest.mark.parametrize("rows, reason", [
        (["1,0,0.5,0.25,7"], r"mode rows need n \+ 2 m = 4 fields \(n = 2, m = 1\), got 5"),
        (["1,2"], r"mode rows need n \+ 2 m = 4 fields \(n = 2, m = 1\), got 2"),
        (["1,0,0.5,0.25", "0,1,0.5"], "number of columns changed from 4 to 3"),
        (["1,0.5,0.5,0.25"], "wavevector entry 0.5 is not an integer"),
        (["1,nan,0.5,0.25"], "wavevector entry nan is not an integer"),
        (["1,0,inf,0.25"], "amplitude entry inf is not finite"),
        (["1,-2,0.5,0.25", "0,1,1.0,0.0", "1,-2,0.5,0.5"],
         r"wavevector \(1, -2\) is given twice"),
    ], ids=["extra-field", "short-row", "ragged", "half-integer-k", "nan-k", "inf-amplitude",
                                      "repeated-k"])
    def test_malformed_rows_named(self, rows, reason):
        with pytest.raises(ValueError, match=reason):
            FourierMap.from_csv(self.table(rows))

    def test_conjugate_rows_average(self):
        # k and -k both listed is a slot given twice, as in the constructor
        f = FourierMap.from_csv(self.table(["1,-2,0.5,0.25", "-1,2,0.25,0.5"]))
        assert f.modes == FourierMap(2, (), {(1, -2): 0.5 + 0.25j, (-1, 2): 0.25 + 0.5j},
                                     3).modes


class TestTorusEmbedding:
    def test_winding_evaluation(self):
        K = TorusEmbedding.circle(0.25, trunc_order=4)
        theta = np.array([[0.0], [0.5], [1.0]])
        vals = K(theta)
        assert np.allclose(vals[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(vals[:, 1], 0.25)

    def test_dk_includes_winding(self):
        K = TorusEmbedding.circle(0.1, trunc_order=4)
        dk = K.dk()
        assert np.allclose(dk.average(), [[1.0], [0.0]])

    def test_difference_requires_same_winding(self):
        K1 = TorusEmbedding.circle(0.1, trunc_order=4)
        w = np.array([[2.0], [0.0]])
        K2 = TorusEmbedding(w, K1.periodic)
        with pytest.raises(ValueError, match="winding"):
            K1.difference(K2)

    def test_read_only_winding_is_adopted(self):
        K = TorusEmbedding.circle([0.3, 0.7], trunc_order=4)
        assert not K.winding.flags.writeable
        assert K.with_periodic(K.periodic).winding is K.winding
        assert K.resized(8).winding is K.winding
        # a writable winding, or a read-only view of one, is copied
        w = np.vstack([np.eye(2), np.zeros((2, 2))])
        view = w[:]
        view.flags.writeable = False
        for given in (w, view, w.tolist()):
            K2 = TorusEmbedding(given, K.periodic)
            assert K2.winding is not given and not K2.winding.flags.writeable
        w[0, 0] = 5.0
        assert K2.winding[0, 0] == 1.0
        assert TorusEmbedding(w, K.periodic).winding[0, 0] == 5.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derivative_tables_equal_the_plain_factors(self, n):
        # DK and d_omega K scale the half by 2 pi i k_j and 2 pi i k.omega:
        # the cached tables give the same bytes as the factors built inline
        rng = np.random.default_rng(30 + n)
        K0 = TorusEmbedding.circle(rng.random(n), trunc_order=5)
        K = K0.with_periodic(K0.periodic + random_trig(rng, n, 5, (2 * n,)))
        per, omega = K.periodic, rng.random(n)
        ks = wavevectors(n, 5)[..., 5:, :]
        dk = per.half[..., :, None] * (2j * np.pi * ks)[..., None, :]
        dk[(5,) * (n - 1) + (0,)] += K.winding
        assert np.array_equal(K.dk().half, dk)
        dw = per.half * (2j * np.pi * (ks @ omega))[..., None]
        dw[(5,) * (n - 1) + (0,)] += K.winding @ omega
        assert np.array_equal(K.directional(omega).half, dw)
        assert K.dk().half.base is not None  # a new array per call
        table = _dk_factor(n, 5)
        assert table is _dk_factor(n, 5) and not table.flags.writeable
        assert not _directional_factor(n, 5, tuple(omega)).flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_samples_add_the_winding_per_axis(self, n):
        rng = np.random.default_rng(40 + n)
        K0 = TorusEmbedding.circle(rng.random(n), trunc_order=4)
        K = K0.with_periodic(K0.periodic + random_trig(rng, n, 4, (2 * n,)))
        for size in (None, 13):
            theta = K.grid(size)
            want = theta @ K.winding.T + K.periodic.synthesize(theta.shape[0])
            # the standard winding [I; 0] adds theta_j or 0: the same bytes
            assert np.array_equal(K.grid_samples(size), want)
        # any integer winding: the same sum in another order
        w = rng.integers(-2, 3, (2 * n, n)).astype(float)
        K2 = TorusEmbedding(w, K.periodic)
        theta = K2.grid()
        want = theta @ w.T + K2.periodic.synthesize(theta.shape[0])
        eps = np.finfo(float).eps
        assert np.max(np.abs(K2.grid_samples() - want)) <= 4 * eps * np.max(np.abs(want))


def largest_prime_factor(x: int) -> int:
    """Trial division; 1 for x = 1."""
    big, p = 1, 2
    while p * p <= x:
        while x % p == 0:
            x, big = x // p, p
        p += 1
    return max(big, x) if x > 1 else big


class TestSamplingGrid:
    """An order-M map is sampled on sampling_size(M) points and analyzed
    back at order M."""

    def test_rule(self):
        for m in range(1025):
            size = sampling_size(m)
            assert size % 2 == 1 and size >= 2 * m + 1
            assert largest_prime_factor(size) <= 13
            # minimal: every smaller odd candidate has a prime factor > 13
            assert all(largest_prime_factor(c) > 13
                       for c in range(2 * m + 1, size, 2))
        spots = [sampling_size(m) for m in (8, 16, 32, 64, 128, 256)]
        assert spots == [21, 33, 65, 135, 273, 525]

    def test_memoised_size_is_the_search(self):
        search = [sampling_size.__wrapped__(m) for m in range(601)]
        first = [sampling_size(m) for m in range(601)]
        hits = sampling_size.cache_info().hits
        assert [sampling_size(m) for m in range(601)] == first == search
        assert sampling_size.cache_info().hits == hits + 601
        assert sampling_size(np.int64(64)) == 135

    @pytest.mark.parametrize("n, m, extra", [(1, 6, 5), (2, 4, 3), (3, 2, 1)])
    @pytest.mark.parametrize("range_shape", [(), (2,), (2, 2)],
                             ids=["scalar", "vector", "matrix"])
    def test_analysis_keeps_the_given_order(self, n, m, extra, range_shape):
        f = random_trig(np.random.default_rng(10 * n + m), n, m, range_shape)
        size = f.grid_size + 2 * extra
        got = FourierMap.from_samples(f.synthesize(size), n, trunc_order=m)
        want = FourierMap.from_samples(f.synthesize(), n)
        assert got.trunc_order == want.trunc_order == m
        assert got.half.shape == want.half.shape
        assert got.allclose(want, tol=1e-13)
        assert got.allclose(f, tol=1e-13)
        plane = got.half[(slice(None),) * (n - 1) + (0,)]
        assert np.array_equal(plane, np.conj(np.flip(plane, axis=tuple(range(n - 1)))))

    def test_order_beyond_the_grid_rejected(self):
        with pytest.raises(ValueError, match="trunc_order 5 needs a grid of 11"):
            FourierMap.from_samples(np.zeros((9, 9, 2)), 2, trunc_order=5)
        with pytest.raises(ValueError, match="trunc_order"):
            FourierMap.from_samples(np.zeros(9), 1, trunc_order=-1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_aliasing_oracle(self, n):
        # modes up to |k|_inf = 70 analyzed at M = 64: on 135 points mode k
        # folds onto k -+ 135, outside |k| <= 64, so the kept block is exact;
        # on 129 points k = 70 folds onto -59, inside it
        f = random_trig(np.random.default_rng(70 + n), n, 70)
        want = f.resized(64)
        for size, exact in ((135, True), (129, False)):
            theta = TorusEmbedding.circle(np.zeros(n)).grid(size)
            got = FourierMap.from_samples(f(theta), n, trunc_order=64)
            miss = np.max(np.abs(got.half - want.half))
            assert (miss < 1e-12) if exact else (miss > 1e-3)

    def test_angle_grid_cached_read_only(self):
        K = TorusEmbedding.circle(np.full(2, 0.4), trunc_order=64)
        theta = K.grid()
        axes = [np.arange(135) / 135] * 2
        want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        assert theta.shape == want.shape and theta.tobytes() == want.tobytes()
        assert not theta.flags.writeable
        assert K.resized(64).grid(135) is theta
        with pytest.raises(ValueError):
            theta[0, 0, 0] = 1.0
        samples = K.grid_samples()
        assert samples.shape == (135, 135, 4)
        assert np.max(np.abs(samples - K(theta))) < 1e-14


# -- properties ---------------------------------------------------------------
#
# Each case is a random real trigonometric polynomial: hypothesis picks the
# domain dimension, range shape, filled and padded orders, density and a seed;
# the amplitudes come from numpy's generator for that seed.

PROPERTY = settings(max_examples=25, deadline=None)
# certified over |k|_1 <= 4 n, as far as the nonzero modes of
# trig_maps(orders=(0, 4)) reach
FREQS = {
    1: FrequencyVector.estimated(np.array([GOLDEN]), 1.1, 4),
    2: FrequencyVector.estimated(np.array([1.0, GOLDEN]), 1.1, 8),
}


@st.composite
def trig_maps(draw, orders=(0, 5)):
    n = draw(st.sampled_from([1, 2]))
    order = draw(st.integers(*orders))
    pad = draw(st.integers(0, 2))
    range_shape = draw(st.sampled_from([(), (2,), (2, 2)]))
    density = draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = {}
    for idx in np.ndindex(*((2 * order + 1,) * n)):
        k = tuple(i - order for i in idx)
        if rng.random() > density:
            continue
        amp = rng.standard_normal(range_shape) + 0j
        if any(k):
            amp = amp + 1j * rng.standard_normal(range_shape)
        modes[k] = amp  # non-canonical keys exercise the reality fold
    return FourierMap(n, range_shape, modes, trunc_order=order + pad)


def eval_modes(f, theta, factor=lambda k: 1.0):
    """Direct sum over the canonical modes: the reference evaluator.

    ``factor(k)`` multiplies each amplitude, so the analytic derivative of
    the series is evaluated by the same loop.
    """
    out = np.zeros(theta.shape[:-1] + f.range_shape)
    for k, amp in f.modes.items():
        weight = 2.0 if any(k) else 1.0
        phase = np.exp(2j * np.pi * (theta @ np.array(k, dtype=float)))
        term = np.multiply.outer(phase, factor(k) * np.asarray(amp))
        out += weight * term.real
    return out


def scale(f):
    return max(1.0, max((float(np.max(np.abs(a))) for a in f.modes.values()),
                        default=0.0))


class TestProperties:
    @PROPERTY
    @given(trig_maps())
    def test_analysis_inverts_synthesis(self, f):
        back = FourierMap.from_samples(f.synthesize(), f.dim_domain)
        assert back.trunc_order == f.trunc_order
        assert back.allclose(f, tol=1e-13 * scale(f))

    @PROPERTY
    @given(st.sampled_from([1, 2]), st.sampled_from([(), (3,)]),
           st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_analysis_is_exactly_real(self, n, range_shape, m, seed):
        samples = np.random.default_rng(seed).standard_normal(
            (2 * m + 1,) * n + range_shape
        )
        full = FourierMap.from_samples(samples, n).coeffs
        # amp(-k) sits at the flipped index of amp(k), and k = 0 at the center
        minus = np.flip(full, axis=tuple(range(n)))
        assert np.array_equal(minus, np.conj(full))
        assert np.all(full[(m,) * n].imag == 0.0)

    @PROPERTY
    @given(trig_maps(), st.integers(0, 2))
    def test_synthesis_is_real_and_matches_series(self, f, extra):
        size = f.grid_size + 2 * extra
        vals = f.synthesize(size)
        assert vals.dtype == np.float64
        assert vals.shape == (size,) * f.dim_domain + f.range_shape
        theta = TorusEmbedding.circle(np.zeros(f.dim_domain)).grid(size)
        want = eval_modes(f, theta)
        assert np.max(np.abs(vals - want), initial=0.0) < 1e-11 * scale(f)
        assert np.max(np.abs(f(theta) - want), initial=0.0) < 1e-11 * scale(f)

    @PROPERTY
    @given(trig_maps(), st.integers(0, 2**32 - 1))
    def test_derivatives_match_analytic(self, f, seed):
        rng = np.random.default_rng(seed)
        theta = rng.random((7, f.dim_domain))
        tol = 1e-10 * scale(f)
        omega = rng.standard_normal(f.dim_domain)
        want = eval_modes(f, theta, lambda k: 2j * np.pi * np.dot(k, omega))
        assert np.max(np.abs(f.directional(omega)(theta) - want)) < tol

    @PROPERTY
    @given(trig_maps(), st.integers(0, 3))
    def test_resize_up_then_down_is_identity(self, f, up):
        grown = f.resized(f.trunc_order + up)
        assert grown.trunc_order == f.trunc_order + up
        back = grown.resized(f.trunc_order)
        assert back.trunc_order == f.trunc_order
        assert back.allclose(f, tol=0.0)
        assert f.allclose(back, tol=0.0)

    @PROPERTY
    @given(trig_maps(orders=(0, 4)))
    def test_cohomological_inverse(self, f):
        freq = FREQS[f.dim_domain]
        sol = solve_cohomological(f, freq)
        assert np.array_equal(sol.average, f.average())
        mean = FourierMap(f.dim_domain, f.range_shape, {(0,) * f.dim_domain: f.average()})
        assert sol.solution.directional(freq.omega).allclose(
            f - mean, tol=1e-13 * scale(f)
        )

    @PROPERTY
    @given(trig_maps(), st.sampled_from([0.0, 0.01, 0.2]))
    def test_strip_norm_is_weighted_canonical_sum(self, f, rho):
        want = sum(
            (2.0 if any(k) else 1.0)
            * float(np.max(np.abs(amp)))
            * np.exp(2 * np.pi * sum(abs(v) for v in k) * rho)
            for k, amp in f.modes.items()
        )
        est = f.strip_norm(rho)
        assert est.value == pytest.approx(want, rel=1e-13, abs=0.0)
        assert est.value >= f.grid_sup() - 1e-12 * scale(f)
