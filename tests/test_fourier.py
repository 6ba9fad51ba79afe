"""Fourier analysis, calculus and norms on the torus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kamtori import FourierMap, TorusEmbedding, analyze, solve_cohomological

import kamtori.solver as solver
from kamtori.fourier import (
    _fft_blocks, _strip_weights, canonical, sampling_size, wavevectors,
)

from conftest import GOLDEN, random_trig


def brute_dft(samples, n):
    """Direct O(N^2) DFT sum, the reference for analyze()."""
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
        f = analyze(samples, 1)
        assert set(f.modes) == {(0,)}
        assert f.amplitude((0,)) == pytest.approx(3.5)

    def test_cosine_amplitudes(self):
        theta = np.arange(11) / 11
        f = analyze(np.cos(2 * np.pi * theta), 1)
        assert f.amplitude((1,)) == pytest.approx(0.5, abs=1e-14)
        for k, amp in f.modes.items():
            if k != (1,):
                assert abs(amp) < 1e-14

    def test_matches_brute_dft(self):
        rng = np.random.default_rng(7)
        g = random_trig(rng, 2, 4)
        samples = g.synthesize(9)
        f = analyze(samples, 2)
        ref = brute_dft(samples, 2)
        for k, amp in f.modes.items():
            want = ref[k]
            assert abs(complex(amp) - complex(want[0])) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        g = random_trig(rng, 2, 3, (2,))
        samples = g.synthesize()
        back = analyze(samples, 2)
        again = back.synthesize()
        scale = np.max(np.abs(samples))
        assert np.max(np.abs(again - samples)) < 1e-12 * scale

    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            analyze(np.zeros((8,)), 1)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        s1 = random_trig(rng, 1, 5).synthesize(11)
        s2 = random_trig(rng, 1, 5).synthesize(11)
        a, b = 1.7, -0.3
        lhs = analyze(a * s1 + b * s2, 1)
        rhs = analyze(s1, 1).scaled(a) + analyze(s2, 1).scaled(b)
        assert lhs.allclose(rhs, tol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(5)
        g = random_trig(rng, 2, 3)
        samples = g.synthesize()
        power = analyze(samples, 2).power()
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


class TestDirectionalDerivative:
    def test_constant_is_annihilated(self):
        f = FourierMap.constant(np.array([2.0, -1.0]), 2)
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
        f = FourierMap.constant(np.array(3.5), 1)
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
        f = FourierMap.constant(np.array(-2.5), 1)
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

    def test_grid_max_synthesizes_on_first_use_only(self, monkeypatch):
        g = random_trig(np.random.default_rng(23), 2, 4)
        calls = []
        synthesize = FourierMap.synthesize

        def counted(self, *args):
            calls.append(1)
            return synthesize(self, *args)

        monkeypatch.setattr(FourierMap, "synthesize", counted)
        est = g.strip_norm(0.1)
        assert calls == []
        assert est.grid_max == np.max(np.abs(synthesize(g)))
        assert est.grid_max == est.grid_max
        assert len(calls) == 1

    def test_tail_flag(self):
        smooth = FourierMap(1, (), {(1,): 1.0}, trunc_order=16)
        assert not smooth.strip_norm(0.0).tail_flag
        spiky = FourierMap(1, (), {(1,): 1.0, (15,): 1e-3}, trunc_order=16)
        assert spiky.strip_norm(0.0).tail_flag

    def test_negative_rho_rejected(self):
        f = FourierMap.constant(np.array(1.0), 1)
        with pytest.raises(ValueError):
            f.strip_norm(-0.1)


def full_spectrum_strip_norm(f, rho):
    """(value, tail_flag) summed over every mode of the full spectrum: the
    reference for strip_norm's half-spectrum sum."""
    ks = np.abs(wavevectors(f.dim_domain, f.trunc_order))
    axes = tuple(range(f.dim_domain, f.coeffs.ndim))
    amax = np.max(np.abs(f.coeffs), axis=axes, initial=0.0)
    nz = amax > 0
    with np.errstate(over="ignore"):
        terms = amax[nz] * np.exp(2 * np.pi * ks.sum(axis=-1)[nz] * rho)
    total = float(np.sum(terms))
    tail = float(np.sum(terms[ks.max(axis=-1)[nz] > f.trunc_order / 2.0]))
    return total, bool(total > 0 and tail > 1e-10 * total)


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
        value, flag = full_spectrum_strip_norm(f, rho)
        est = f.strip_norm(rho)
        assert est.value == pytest.approx(value, rel=1e-13, abs=0.0)
        assert est.tail_flag == flag
        if rho == 0.0:
            assert flag == (filled == 2)
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
        assert FourierMap.constant(np.array(1.0), 1).strip_norm(0.0).tail_max == 0.0

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

        for axis in range(n):
            self.close(f.partial(axis).coeffs, times(2j * np.pi * ks[..., axis]))
        omega = rng.standard_normal(n)
        self.close(f.directional(omega).coeffs, times(2j * np.pi * ks @ omega))
        theta0 = rng.random(n)
        self.close(f.shifted(theta0).coeffs, times(np.exp(2j * np.pi * ks @ theta0)))
        self.close(np.asarray(f.average()), dense[(m,) * n].real)

    def test_sums_and_resizing(self, case):
        f, dense, rng = case
        n, m = f.dim_domain, f.trunc_order
        low = rng.standard_normal((2 * m - 1,) * n + f.range_shape)
        g, g_dense = FourierMap.from_samples(low, n), dense_spectrum(low, n)
        self.close((f + g).coeffs, dense + dense_at(g_dense, n, m))
        self.close((g - f).coeffs, dense_at(g_dense, n, m) - dense)
        self.close(f.scaled(-2.5).coeffs, -2.5 * dense)
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
        for k in [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,),
                  (-m,) * n, (m + 1,) + (0,) * (n - 1)]:
            inside = max(map(abs, k)) <= m
            want = dense[tuple(v + m for v in k)] if inside else np.zeros(f.range_shape)
            self.close(np.asarray(f.amplitude(k)), np.asarray(want))
        theta = rng.random((6, n))
        self.close(f(theta), dense_eval(dense, theta))
        assert f.power() == pytest.approx(np.sum(np.abs(dense) ** 2), rel=1e-12)
        nudged = FourierMap._wrap(n, f.half + 1e-9)
        assert f.allclose(nudged, tol=2e-9) and not f.allclose(nudged, tol=5e-10)
        for back in (FourierMap.from_json(f.to_json()),
                     FourierMap.from_csv(f.to_csv(), f.range_shape)):
            assert back.trunc_order == m
            self.close(back.coeffs, dense)


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
        f = FourierMap.constant(np.array(1.0), 1)
        with pytest.raises(AttributeError):
            f.trunc_order = 5

    def test_trunc_order_floor(self):
        with pytest.raises(ValueError, match="trunc_order"):
            FourierMap(1, (), {(3,): 1.0}, trunc_order=2)


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(23)
        g = random_trig(rng, 2, 2, (4,))
        back = FourierMap.from_json(g.to_json())
        assert back.allclose(g, tol=1e-15)
        assert back.trunc_order == g.trunc_order

    def test_csv_round_trip(self):
        rng = np.random.default_rng(29)
        g = random_trig(rng, 1, 5, (2,))
        back = FourierMap.from_csv(g.to_csv())
        assert back.allclose(g, tol=1e-15)

    def test_torus_round_trips(self):
        K = TorusEmbedding.circle(0.7, trunc_order=8)
        rng = np.random.default_rng(31)
        K = K.with_periodic(K.periodic + random_trig(rng, 1, 4, (2,)).scaled(0.01))
        for back in (
            TorusEmbedding.from_csv(K.to_csv()),
            TorusEmbedding.from_json(K.to_json()),
        ):
            assert np.array_equal(back.winding, K.winding)
            assert back.periodic.allclose(K.periodic, tol=1e-15)


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
OMEGAS = {
    1: np.array([GOLDEN]),
    2: np.array([1.0, GOLDEN]),
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
        f = FourierMap.from_samples(samples, n)
        for idx in np.ndindex(*((2 * m + 1,) * n)):
            k = tuple(i - m for i in idx)
            minus = tuple(-v for v in k)
            assert np.array_equal(f.amplitude(minus), np.conj(f.amplitude(k)))
        assert np.all(f.amplitude((0,) * n).imag == 0.0)

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
        for axis in range(f.dim_domain):
            want = eval_modes(f, theta, lambda k: 2j * np.pi * k[axis])
            assert np.max(np.abs(f.partial(axis)(theta) - want)) < tol
        omega = rng.standard_normal(f.dim_domain)
        want = eval_modes(f, theta, lambda k: 2j * np.pi * np.dot(k, omega))
        assert np.max(np.abs(f.directional(omega)(theta) - want)) < tol

    @PROPERTY
    @given(trig_maps(), st.integers(0, 2**32 - 1))
    def test_shift_group_law(self, f, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((2, f.dim_domain))
        assert f.shifted(a).shifted(b).allclose(f.shifted(a + b), 1e-12 * scale(f))
        assert f.shifted(np.zeros(f.dim_domain)).allclose(f, tol=0.0)
        theta = rng.random((5, f.dim_domain))
        assert np.max(np.abs(f.shifted(a)(theta) - f(theta + a))) < 1e-11 * scale(f)

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
        omega = OMEGAS[f.dim_domain]
        sol = solve_cohomological(f, omega)
        assert np.array_equal(sol.average, f.average())
        mean = FourierMap.constant(f.average(), f.dim_domain)
        assert sol.solution.directional(omega).allclose(
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
        assert est.value >= est.grid_max - 1e-12 * scale(f)
