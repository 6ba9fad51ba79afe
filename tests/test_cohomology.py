"""Small-divisor inversion: closed forms, exactness and the certified bound."""

import numpy as np
import pytest

from kamtori import FourierMap, FrequencyVector, solve_cohomological
from kamtori.cohomology import _divisor_table

from conftest import GOLDEN, random_trig


class TestClosedForms:
    def test_cosine_golden(self):
        # g = cos(2 pi theta) has the closed-form primitive sin(2 pi theta)
        # along omega, scaled by 1 / (2 pi omega)
        g = FourierMap(1, (), {(1,): 0.5})
        sol = solve_cohomological(g, np.array([GOLDEN]))
        theta = np.linspace(0, 1, 101)[:, None]
        want = np.sin(2 * np.pi * theta[:, 0]) / (2 * np.pi * GOLDEN)
        assert np.max(np.abs(sol.solution(theta) - want)) < 1e-13
        assert sol.average == pytest.approx(0.0)

    def test_constant_input(self):
        g = FourierMap.constant(np.array(2.5), 1)
        sol = solve_cohomological(g, np.array([GOLDEN]))
        assert sol.solution.grid_sup() == 0.0
        assert sol.average == pytest.approx(2.5)
        assert sol.report.max_amplification == 0.0

    def test_solution_is_mean_free(self):
        rng = np.random.default_rng(11)
        g = random_trig(rng, 2, 6, (2,))
        sol = solve_cohomological(g, np.array([1.0, GOLDEN]))
        assert np.all(sol.solution.average() == 0.0)


class TestInversion:
    def test_forward_apply_recovers_input(self):
        rng = np.random.default_rng(13)
        omega = np.array([1.0, GOLDEN])
        g = random_trig(rng, 2, 6, ())
        sol = solve_cohomological(g, omega)
        recon = sol.solution.directional(omega)
        theta = rng.random((1000, 2))
        want = g(theta) - g.average()
        assert np.max(np.abs(recon(theta) - want)) < 1e-10

    def test_mode_by_mode_exact(self):
        rng = np.random.default_rng(17)
        omega = np.array([1.0, GOLDEN])
        g = random_trig(rng, 2, 5, ())
        sol = solve_cohomological(g, omega)
        for k, amp in sol.solution.modes.items():
            div = 2j * np.pi * np.dot(k, omega)
            g_amp = np.asarray(g.modes[k])
            assert np.max(np.abs(amp * div - g_amp)) < 1e-12 * max(
                1.0, np.max(np.abs(g_amp))
            )

    def test_range_shape_preserved(self):
        rng = np.random.default_rng(19)
        g = random_trig(rng, 1, 4, (2, 2))
        sol = solve_cohomological(g, np.array([GOLDEN]))
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

    def test_report_certified_flag(self):
        g = FourierMap(1, (), {(1,): 0.5})
        omega = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=8)
        sol = solve_cohomological(g, omega)
        assert sol.report.certified
        assert sol.report.worst_k == (1,)
        assert sol.report.min_divisor == pytest.approx(GOLDEN)
        bare = solve_cohomological(g, np.array([GOLDEN]))
        assert not bare.report.certified

    def test_horizon_coverage_enforced(self):
        g = FourierMap(1, (), {(12,): 0.25})
        omega = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=8)
        with pytest.raises(ValueError, match="horizon|certificate"):
            solve_cohomological(g, omega)


class TestResonance:
    def test_resonant_mode_named(self):
        # k = (2, -1) annihilates omega = (1, 2)
        g = FourierMap(2, (), {(2, -1): 0.5, (1, 0): 0.25})
        with pytest.raises(ValueError, match=r"\(2, -1\)"):
            solve_cohomological(g, np.array([1.0, 2.0]))

    def test_half_stored_mode_named_canonically(self):
        # the stored half keeps (-1, 1), the conjugate of the canonical (1, -1)
        g = FourierMap(2, (), {(1, -1): 0.5})
        assert g.half[0, 1] == 0.5 and g.half[2, 0] == 0
        omega = FrequencyVector.estimated(np.array([1.0, GOLDEN]), sigma=1.1,
                                          horizon=8)
        for om in (omega, omega.omega):
            assert solve_cohomological(g, om).report.worst_k == (1, -1)
        with pytest.raises(ValueError, match=r"\(1, -1\)"):
            solve_cohomological(g, np.array([1.0, 1.0]))
        # |k.omega| ties go to the first pair in k order, (0, 1), although
        # the half stores (2, -1) as (-2, 1) ahead of it
        tie = FourierMap(2, (), {(2, -1): 0.5, (0, 1): 0.5})
        assert solve_cohomological(tie, np.array([1.0, 1.0])).report.worst_k == (0, 1)

    def test_divisor_table_cached_read_only(self):
        omega = FrequencyVector.estimated(np.array([1.0, GOLDEN]), sigma=1.1,
                                          horizon=16)
        key = (2, 3, tuple(omega.omega.tolist()), omega.gamma, omega.sigma)
        table = _divisor_table(*key)
        assert _divisor_table(*key) is table
        others = [(2, 4) + key[2:], (2, 3, (1.0, 0.5)) + key[3:],
                  key[:3] + (omega.gamma / 2, omega.sigma),
                  key[:4] + (2.0,), key[:3] + (None, None)]
        for other in others:
            assert _divisor_table(*other) is not table
        arrays = [v for v in vars(table).values() if v is not None]
        assert len(arrays) == 9
        for value in arrays:
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
            solve_cohomological(g, np.array([GOLDEN]))
