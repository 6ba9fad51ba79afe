"""Small-divisor inversion: closed forms, exactness and the certified bound."""

import numpy as np
import pytest

from kamtori import DivisorReport, FourierMap, FrequencyVector, solve_cohomological
from kamtori.cohomology import RESONANCE_TOL, HypothesisError, _divisor_table
from kamtori.fourier import canonical, half_wavevectors

from conftest import GOLDEN, random_trig

# certified, yet its (1, -1) divisor 2^-49 = 1.8e-15 is below RESONANCE_TOL
NEAR_RESONANT = [1.0, 1.0 + 2.0**-49]


def certified(omega, horizon=64):
    """omega with gamma the scan's margin at sigma = n + 0.1."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return FrequencyVector.estimated(omega, omega.size + 0.1, horizon)


class TestClosedForms:
    def test_cosine_golden(self):
        # g = cos(2 pi theta) has the closed-form primitive sin(2 pi theta)
        # along omega, scaled by 1 / (2 pi omega)
        g = FourierMap(1, (), {(1,): 0.5})
        sol = solve_cohomological(g, certified([GOLDEN]))
        theta = np.linspace(0, 1, 101)[:, None]
        want = np.sin(2 * np.pi * theta[:, 0]) / (2 * np.pi * GOLDEN)
        assert np.max(np.abs(sol.solution(theta) - want)) < 1e-13
        assert sol.average == pytest.approx(0.0)

    def test_constant_input(self):
        g = FourierMap(1, (), {(0,): 2.5})
        sol = solve_cohomological(g, certified([GOLDEN]))
        assert sol.solution.grid_sup() == 0.0
        assert sol.average == pytest.approx(2.5)
        # no live mode: no divisor met
        assert sol.report == DivisorReport(np.inf, 0)

    def test_solution_is_mean_free(self):
        rng = np.random.default_rng(11)
        g = random_trig(rng, 2, 6, (2,))
        sol = solve_cohomological(g, certified([1.0, GOLDEN]))
        assert np.all(sol.solution.average() == 0.0)


class TestInversion:
    def test_forward_apply_recovers_input(self):
        rng = np.random.default_rng(13)
        omega = certified([1.0, GOLDEN])
        g = random_trig(rng, 2, 6, ())
        sol = solve_cohomological(g, omega)
        recon = sol.solution.directional(omega.omega)
        theta = rng.random((1000, 2))
        want = g(theta) - g.average()
        assert np.max(np.abs(recon(theta) - want)) < 1e-10

    def test_mode_by_mode_exact(self):
        rng = np.random.default_rng(17)
        omega = certified([1.0, GOLDEN])
        g = random_trig(rng, 2, 5, ())
        sol = solve_cohomological(g, omega)
        for k, amp in sol.solution.modes.items():
            div = 2j * np.pi * np.dot(k, omega.omega)
            g_amp = np.asarray(g.modes[k])
            assert np.max(np.abs(amp * div - g_amp)) < 1e-12 * max(
                1.0, np.max(np.abs(g_amp))
            )

    def test_range_shape_preserved(self):
        rng = np.random.default_rng(19)
        g = random_trig(rng, 1, 4, (2, 2))
        sol = solve_cohomological(g, certified([GOLDEN]))
        assert sol.solution.range_shape == (2, 2)
        assert sol.average.shape == (2, 2)


class TestCertifiedBound:
    def test_amplification_bound(self):
        rng = np.random.default_rng(23)
        omega = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=64)
        g = random_trig(rng, 1, 12, ())
        sol = solve_cohomological(g, omega)
        for k, amp in sol.solution.modes.items():
            order = sum(abs(v) for v in k)
            bound = (
                np.max(np.abs(np.asarray(g.modes[k])))
                * order**omega.sigma
                / (2 * np.pi * omega.gamma)
            )
            assert np.max(np.abs(amp)) <= bound * (1 + 1e-12)

    def test_report_names_the_worst_divisor(self):
        g = FourierMap(1, (), {(1,): 0.5})
        omega = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=8)
        sol = solve_cohomological(g, omega)
        assert sol.report == DivisorReport(GOLDEN, 1)

    @pytest.mark.parametrize("omega, sigma, horizon", [
        ([GOLDEN], 1.1, 256),
        ([GOLDEN, np.sqrt(2.0) - 1.0], 1.1, 256),
        ([GOLDEN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.5], 2.1, 24),
    ], ids=["n1", "n2", "n3"])
    @pytest.mark.parametrize("gamma", ["estimated", "just-below"])
    def test_certificate_bounds_every_divisor_inside_the_horizon(self, omega, sigma,
                                                                 horizon, gamma):
        # the solve trusts the certificate within its horizon: every named
        # mode of the divisor table there, one member of each conjugate pair
        # (k_n > 0, and the canonical member on the k_n = 0 plane), meets
        # gamma |k|_1^-sigma, by brute force
        freq = FrequencyVector.estimated(np.array(omega), sigma, horizon)
        if gamma == "just-below":
            freq = FrequencyVector(freq.omega, np.nextafter(freq.gamma, 0.0), sigma,
                                   horizon)
        n = len(omega)
        order, adiv, _ = _divisor_table(n, horizon, tuple(freq.omega.tolist()))
        ks = half_wavevectors(n, horizon)
        named = (canonical(ks) | (ks[..., -1] > 0)) & (order > 0)
        inside = named & (order <= horizon)
        # one named mode per conjugate pair with 0 < |k|_1 <= horizon
        cube = np.indices((2 * horizon + 1,) * n).reshape(n, -1) - horizon
        pairs = (np.count_nonzero(np.abs(cube).sum(axis=0) <= horizon) - 1) // 2
        assert np.count_nonzero(inside) == pairs
        floor = freq.gamma * order[inside].astype(float) ** -sigma
        assert np.all(adiv[inside] >= floor * (1 - 1e-12))
        if n > 1:  # the scan's divisor is the table's, so the worst meets the floor
            assert np.min(adiv[inside] / floor) <= 1 + 1e-12

    def test_horizon_coverage_enforced(self):
        g = FourierMap(1, (), {(12,): 0.25})
        omega = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=8)
        with pytest.raises(ValueError, match="horizon|certificate"):
            solve_cohomological(g, omega)


class TestResonance:
    def test_resonant_mode_named(self):
        # the certificate holds, yet |(1, -1) . omega| = 2^-49 is below the guard
        omega = certified(NEAR_RESONANT, horizon=8)
        assert omega.gamma == 2.0**-49 * 2.0**omega.sigma
        g = FourierMap(2, (), {(3, -3): 0.5, (1, -1): 0.5, (1, 0): 0.25})
        with pytest.raises(ValueError, match=r"resonant mode k = \(1, -1\): "
                           r"\|k.omega\| = 1.776e-15 below 1e-14") as got:
            solve_cohomological(g, omega)
        # a failed hypothesis of the Newton step, which solve_torus ends on
        assert isinstance(got.value, HypothesisError)
        assert got.value.status == "resonant_divisor"
        clear = FourierMap(2, (), {(1, 0): 0.25, (0, 1): 0.25})
        assert solve_cohomological(clear, omega).report == DivisorReport(1.0, 1)

    def test_half_stored_mode_named_canonically(self):
        # the stored half keeps (-1, 1), the conjugate of the canonical (1, -1)
        g = FourierMap(2, (), {(1, -1): 0.5})
        assert g.half[0, 1] == 0.5 and g.half[2, 0] == 0
        omega = FrequencyVector.estimated(np.array([1.0, GOLDEN]), sigma=1.1,
                                          horizon=8)
        assert solve_cohomological(g, omega).report.min_divisor == abs(-1.0 + GOLDEN)
        with pytest.raises(ValueError, match=r"\(1, -1\)"):
            solve_cohomological(g, certified(NEAR_RESONANT, horizon=8))

    def test_divisor_table_cached_read_only(self):
        omega = FrequencyVector.estimated(np.array([1.0, GOLDEN]), sigma=1.1,
                                          horizon=16)
        key = (2, 3, tuple(omega.omega.tolist()))
        table = _divisor_table(*key)
        assert _divisor_table(*key) is table
        for other in [(2, 4, key[2]), (2, 3, (1.0, 0.5))]:
            assert _divisor_table(*other) is not table
        # the table depends on (n, M, omega) alone: another sigma, gamma
        # and horizon of the same omega read it
        hits = _divisor_table.cache_info().hits
        again = FrequencyVector(omega.omega, omega.gamma / 2, 1.5, 8)
        solve_cohomological(FourierMap(2, (), {(1, 0): 1.0}, 3), again)
        assert _divisor_table.cache_info().hits == hits + 1
        # |k|_1, |k . omega| and the divisor 2 pi i k . omega
        assert len(table) == 3
        for value in table:
            assert value.shape[:2] == (7, 4)
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value.flat[0] = value.flat[1]
        hits = _divisor_table.cache_info().hits
        solve_cohomological(random_trig(np.random.default_rng(3), 2, 3), omega)
        assert _divisor_table.cache_info().hits == hits + 1

    def test_dimension_mismatch(self):
        g = FourierMap(2, (), {(1, 0): 0.5})
        with pytest.raises(ValueError, match="components"):
            solve_cohomological(g, certified([GOLDEN]))

    def test_bare_array_refused(self):
        # the Newton solve takes a certified frequency only
        g = FourierMap(1, (), {(1,): 0.5})
        with pytest.raises(TypeError, match="omega must be a FrequencyVector, got ndarray"):
            solve_cohomological(g, np.array([GOLDEN]))


def reference_solve(g, omega):
    """The solve from masks re-derived on every call: live modes, the named
    member of each pair, the first offending pair by its canonical k's
    position in the full centered grid.  Returns (phi half, DivisorReport)
    or raises the solver's ValueError."""
    n, m = g.dim_domain, g.trunc_order
    ks = half_wavevectors(n, m)
    order = np.abs(ks).sum(axis=-1)
    div = ks @ omega.omega
    adiv = np.abs(div)
    is_canonical = canonical(ks)
    canonical_k = np.where(is_canonical[..., None], ks, -ks)
    rank = np.ravel_multi_index(tuple(np.moveaxis(canonical_k + m, -1, 0)), (2 * m + 1,) * n)
    live = np.any(g.half != 0, axis=tuple(range(n, g.half.ndim))) & (order > 0)
    max_order = int(order[live].max(initial=0))
    if max_order > omega.horizon:
        raise ValueError(f"retained modes reach |k|_1 = {max_order} but the Diophantine "
                         f"certificate only covers |k|_1 <= {omega.horizon}")
    named = live & (is_canonical | (ks[..., -1] > 0))
    bad = named & (adiv < RESONANCE_TOL)
    if bad.any():
        i = np.unravel_index(np.argmin(np.where(bad, rank, rank.max() + 1)), bad.shape)
        raise ValueError(f"resonant mode k = {tuple(canonical_k[i].tolist())}: "
                         f"|k.omega| = {adiv[i]:.3e} below "
                         f"{RESONANCE_TOL:.0e}, equation is not solvable")
    min_div = float(adiv[named].min(initial=np.inf))
    divisor = np.where(div != 0, 2j * np.pi * div, 1.0)
    per_mode = (...,) + (None,) * len(g.range_shape)
    phi = np.where(live[per_mode], g.half / divisor[per_mode], 0.0)
    return phi, DivisorReport(min_div, max_order)


def outcome(solve, g, omega):
    """(phi half bytes, report, average bytes) of a solve, or its error."""
    try:
        got = solve(g, omega)
    except ValueError as err:
        return str(err)
    if isinstance(got, tuple):
        return np.ascontiguousarray(got[0]).tobytes(), got[1], g.average().tobytes()
    return (np.ascontiguousarray(got.solution.half).tobytes(), got.report,
            got.average.tobytes())


class TestReferenceSolve:
    """solve_cohomological against reference_solve: the same phi, bit for
    bit, the same report, and the same error naming the same first k."""

    @pytest.mark.parametrize("n, omega, resonant", [
        (1, [GOLDEN], False), (2, [1.0, GOLDEN], False), (2, NEAR_RESONANT, True),
        (3, [1.0, GOLDEN, np.sqrt(2.0)], False), (3, NEAR_RESONANT + [np.sqrt(2.0)], True),
    ], ids=["n1", "n2", "n2-resonant", "n3", "n3-resonant"])
    def test_dense_and_sparse_supports(self, n, omega, resonant):
        rng = np.random.default_rng(len(omega) + int(10 * omega[-1]))
        order = {1: 12, 2: 4, 3: 2}[n]
        dense = random_trig(rng, n, order, (2 * n,))
        sparse = [
            FourierMap(n, (), {(0,) * (n - 1) + (1,): 0.5}, order),
            FourierMap(n, (2,), {(1,) + (0,) * (n - 1): [0.5, 0.0],
                                 (1,) + (-1,) * (n - 1): [0.0, 0.25j]}, order),
            FourierMap(n, (), {(order,) * n: 1e-3, (0,) * n: 2.0}, order),
            FourierMap(n, (2,), {(0,) * n: [1.0, -2.0]}, order),
            FourierMap(n, (2,), {}, order),
        ]
        # certified over every retained |k|_1, and over |k|_1 <= 1 only
        freqs = [certified(omega, 2 * n * order), certified(omega, 1)]
        seen = set()
        for g in [dense, dense.resized(order + 1)] + sparse:
            for freq in freqs:
                want = outcome(reference_solve, g, freq)
                assert outcome(solve_cohomological, g, freq) == want
                seen.add(want.split(" ")[0] if isinstance(want, str) else "solved")
        # solved, and each error: horizon and, near resonance, the guard
        assert seen == {"solved", "retained"} | ({"resonant"} if resonant else set())

    def test_the_pendulums_first_step(self):
        # the first Newton step of the pendulum solves for the k = (1) mode only
        g = FourierMap(1, (2,), {(1,): [0.0, 0.5j]}, 64)
        freq = FrequencyVector.estimated(np.array([1.0 / (1.0 + GOLDEN)]), 1.1, 256)
        got = outcome(solve_cohomological, g, freq)
        assert got == outcome(reference_solve, g, freq)
        assert got[1] == DivisorReport(freq.omega[0], 1)
