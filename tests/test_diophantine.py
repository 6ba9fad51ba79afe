"""Finite-horizon Diophantine scans and certified frequency vectors."""

import itertools

import numpy as np
import pytest

import kamtori.diophantine as diophantine
from kamtori import (FourierMap, FrequencyVector, check_diophantine, estimate_gamma,
                     solve_cohomological)
from kamtori.fourier import canonical

from conftest import GOLDEN

# worst margin of the golden mean at sigma=1 over any horizon >= 1:
# |1*omega - 1| * 1 = 1 - omega = omega^2, frozen from an exhaustive scan
GOLDEN_GAMMA = 0.3819660112501051


def canonical_shell(n, shell):
    """|k|_1 == shell, first nonzero component positive, lexicographic."""
    return [
        k
        for k in itertools.product(range(-shell, shell + 1), repeat=n)
        if sum(map(abs, k)) == shell and next(v for v in k if v) > 0
    ]


def scan_min(omega, sigma, horizon):
    """Brute-force reference: min over 0 < |k|_1 <= horizon and the first
    canonical minimizer in (|k|_1, lexicographic) order."""
    best, best_k = np.inf, None
    for k1 in range(1, horizon + 1):
        for k in canonical_shell(len(omega), k1):
            val = abs(float(np.dot(k, omega))) * k1**sigma
            if val < best:
                best, best_k = val, k
    return best, best_k


def brute_force_scan(omega, sigma, horizon):
    """Every canonical k with 0 < |k|_1 <= horizon in one array: the least
    margin, ties to the smallest shell, then the lexicographically first k.
    k . omega is the matrix product the cohomology's divisor table takes."""
    n = len(omega)
    box = range(-horizon, horizon + 1)
    ks = np.array(list(itertools.product(box, repeat=n)))
    shell = np.abs(ks).sum(axis=1)
    keep = (shell > 0) & (shell <= horizon) & canonical(ks)
    ks, shell = ks[keep], shell[keep]
    weight = {s: float(s) ** sigma for s in range(1, horizon + 1)}
    margins = np.abs(ks.astype(float) @ omega) * np.array([weight[s] for s in shell])
    best = np.lexsort((*ks.T[::-1], shell, margins))[0]
    return float(margins[best]), tuple(int(v) for v in ks[best])


GOLDEN_SILVER = np.array([GOLDEN, np.sqrt(2.0) - 1.0])


class TestPrefixScan:
    """The scan over (n-1)-prefixes against one pass over every wavevector."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_n2_bit_identical(self, seed):
        omega = np.random.default_rng(seed).random(2)
        report = check_diophantine(omega, 1e-9, 1.1, 150)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, 1.1, 150)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_n3_bit_identical(self, seed):
        omega = np.random.default_rng(seed).random(3)
        report = check_diophantine(omega, 1e-9, 2.1, 16)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, 2.1, 16)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_random_n4_bit_identical(self, seed):
        omega = np.random.default_rng(seed).random(4)
        report = check_diophantine(omega, 1e-9, 3.1, 8)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, 3.1, 8)

    @pytest.mark.parametrize("omega, sigma, horizon", [
        # negative components: t* of either sign
        ((0.7548776662466927, -0.5698402909980532), 1.3, 60),
        ((-0.3, 0.8660254037844386, -0.5), 2.5, 14),
        # omega_n = 0: t* = 0, and k = (0, 1) has margin 0
        ((GOLDEN, 0.0), 1.1, 40),
        ((np.sqrt(2.0), np.sqrt(3.0), 0.0), 2.1, 12),
        # a small omega_n puts t* = -(p . omega') / omega_n beyond the
        # horizon for every nonzero prefix, so each takes a clipped end
        ((1.0, 1e-3), 1.1, 40),
        ((np.sqrt(2.0), 1.0, -1e-4), 2.1, 12),
        # t* overflows a float
        ((1.0, 1e-320), 1.1, 40),
    ], ids=["n2-negative", "n3-negative", "n2-last-zero", "n3-last-zero",
            "n2-clipped", "n3-clipped", "n2-overflowing-t-star"])
    def test_matches_brute_force(self, omega, sigma, horizon):
        omega = np.array(omega)
        report = check_diophantine(omega, 1e-9, sigma, horizon)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, sigma, horizon)

    @pytest.mark.parametrize("omega, sigma, want", [
        # k . omega = 0 on (2, -1), (4, -2), ...: shell 3 wins over shell 6
        ((1.0, 2.0), 1.1, (2, -1)),
        # (1, -1, 0) on shell 2 wins over the lexicographically earlier
        # (0, 2, -1) on shell 3
        ((1.0, 1.0, 2.0), 2.1, (1, -1, 0)),
    ], ids=["n2", "n3"])
    def test_resonant_tie_goes_to_the_smallest_shell(self, omega, sigma, want):
        omega = np.array(omega)
        report = check_diophantine(omega, 0.1, sigma, 12)
        assert report.resonant
        assert report.worst_k == want
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, sigma, 12)

    def test_resonant_tie_within_a_shell_goes_lexicographically(self):
        # (0, 1, -1), (1, -1, 0) and (1, 0, -1) all sit on shell 2 at margin 0
        omega = np.array([1.0, 1.0, 1.0])
        report = check_diophantine(omega, 0.1, 2.1, 6)
        assert report.worst_k == (0, 1, -1)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(omega, 2.1, 6)

    def test_golden_silver_worst_mode(self):
        report = check_diophantine(GOLDEN_SILVER, 1e-9, 1.1, 256)
        assert report.worst_k == (63, -94)
        assert (report.worst_margin, report.worst_k) == brute_force_scan(
            GOLDEN_SILVER, 1.1, 256)

    def test_golden_silver_at_horizon_10000(self):
        # the console script's default horizon: no mode up to |k|_1 = 10^4
        # beats (63, -94), and the margin is the one found at 256
        report = check_diophantine(GOLDEN_SILVER, 1e-9, 1.1, 10_000)
        assert report.worst_k == (63, -94)
        assert report.worst_margin == check_diophantine(
            GOLDEN_SILVER, 1e-9, 1.1, 256).worst_margin

    def test_solve_holding_the_worst_mode_meets_the_certified_bound(self):
        # gamma is the margin of (63, -94); the divisor table takes the same
        # k . omega, so the mode's divisor meets gamma |k|^-sigma at M = 128
        freq = FrequencyVector.estimated(GOLDEN_SILVER, 1.1, 256)
        g = FourierMap(2, (), {(63, -94): 1.0}, trunc_order=128)
        report = solve_cohomological(g, freq).report
        assert report.certified
        assert report.worst_k == (63, -94)


class TestEstimateGamma:
    def test_golden_mean_frozen_value(self):
        got = estimate_gamma(np.array([GOLDEN]), 1.0, 10_000)
        assert got == GOLDEN_GAMMA

    @pytest.mark.parametrize(
        "omega, sigma, horizon",
        [
            ((GOLDEN, np.sqrt(2) - 1), 1.5, 30),
            ((1.0, 2.0), 1.1, 5),
            ((1.0, np.sqrt(2), np.sqrt(3)), 2.1, 12),
            ((1.0, 1.0, 2.0), 2.1, 6),
        ],
        ids=["n2", "n2-resonant", "n3", "n3-resonant"],
    )
    def test_matches_exhaustive_scan(self, omega, sigma, horizon):
        # resonant cases: many k tie at margin 0 and the first one must win
        omega = np.array(omega)
        report = check_diophantine(omega, 1.0, sigma, horizon)
        want, want_k = scan_min(omega, sigma, horizon)
        assert report.worst_margin == want
        assert report.worst_k == want_k
        assert estimate_gamma(omega, sigma, horizon) == report.worst_margin

    def test_resonant_gives_zero(self):
        assert estimate_gamma(np.array([1.0, 2.0]), 1.5, 5) == 0.0

    def test_monotone_in_horizon(self):
        omega = np.array([GOLDEN])
        e3 = estimate_gamma(omega, 1.0, 1000)
        e4 = estimate_gamma(omega, 1.0, 10_000)
        assert e4 <= e3
        assert e3 > 0

    def test_monotone_in_sigma(self):
        omega = np.array([GOLDEN])
        lo = estimate_gamma(omega, 1.0, 200)
        hi = estimate_gamma(omega, 1.3, 200)
        assert hi >= lo


class TestCheckDiophantine:
    def test_resonant_vector_fails_with_witness(self):
        report = check_diophantine(np.array([1.0, 2.0]), 0.1, 1.5, 5)
        assert not report.passed
        assert report.resonant
        k = np.array(report.worst_k)
        assert float(k @ np.array([1.0, 2.0])) == 0.0

    def test_golden_passes_below_margin(self):
        report = check_diophantine(np.array([GOLDEN]), 0.38, 1.0, 10_000)
        assert report.passed
        assert report.worst_margin == GOLDEN_GAMMA
        assert tuple(report.worst_k) == (1,)

    def test_fails_above_margin(self):
        report = check_diophantine(np.array([GOLDEN]), 0.39, 1.0, 100)
        assert not report.passed

    def test_scaling_invariance(self):
        # homogeneity of |k.omega| |k|^sigma holds for the n >= 2 form;
        # the n = 1 scan uses nearest-integer distance, which is not scalable
        omega = np.array([GOLDEN, np.sqrt(2) - 1])
        a = check_diophantine(omega, 0.05, 1.5, 30)
        for c in (0.5, 2.0, 7.3):
            b = check_diophantine(c * omega, c * 0.05, 1.5, 30)
            assert a.passed == b.passed
            assert tuple(a.worst_k) == tuple(b.worst_k)
            assert b.worst_margin == pytest.approx(c * a.worst_margin, rel=1e-12)

    def test_estimate_is_tight(self):
        omega = np.array([GOLDEN])
        g = estimate_gamma(omega, 1.0, 300)
        report = check_diophantine(omega, g, 1.0, 300)
        assert report.passed
        assert report.worst_margin == g

    def test_sigma_at_boundary_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            check_diophantine(np.array([GOLDEN, 0.3]), 0.1, 1.0, 10)

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            check_diophantine(np.array([0.0]), 0.1, 1.0, 10)


class TestFrequencyVector:
    def test_construction_verifies(self):
        freq = FrequencyVector(np.array([GOLDEN]), 0.38, 1.0, 1000)
        assert freq.gamma == 0.38

    def test_rejects_unverifiable(self):
        with pytest.raises(ValueError):
            FrequencyVector(np.array([GOLDEN]), 0.5, 1.0, 1000)

    def test_estimated_matches_scan(self):
        freq = FrequencyVector.estimated(np.array([GOLDEN]), 1.0, 500)
        assert freq.gamma == estimate_gamma(np.array([GOLDEN]), 1.0, 500)

    def test_estimated_safety_shrinks_gamma(self):
        base = FrequencyVector.estimated(np.array([GOLDEN]), 1.0, 500)
        safe = FrequencyVector.estimated(np.array([GOLDEN]), 1.0, 500, safety=0.5)
        assert safe.gamma == pytest.approx(0.5 * base.gamma)

    def test_estimated_scans_once(self, monkeypatch):
        calls = []
        scan = diophantine._scan

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(diophantine, "_scan", counted)
        omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])
        freq = FrequencyVector.estimated(omega, 1.1, 40)
        assert len(calls) == 1
        assert freq.verified
        assert freq.gamma == estimate_gamma(omega, 1.1, 40)

    @pytest.mark.parametrize("safety", [1.5, 1.0 + 1e-12])
    def test_estimated_safety_above_one_rejected(self, safety):
        want = r"fails the Diophantine bound: worst k=\(1,\)"
        with pytest.raises(ValueError, match=want):
            FrequencyVector.estimated(np.array([GOLDEN]), 1.0, 500, safety=safety)

    def test_unchecked_skips_scan(self):
        freq = FrequencyVector.unchecked(np.array([1.0, 2.0]), 0.1, 1.5, 10)
        assert freq.gamma == 0.1
