"""Cascade schedule arithmetic, gates, stage bookkeeping and certificates."""

import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from kamtori import (
    FrequencyVector,
    HamiltonianModel,
    TorusEmbedding,
    solve_torus,
)
from kamtori.driver import (
    DEFAULT_LAMBDA,
    ConfigError,
    KamSchedule,
    RunParams,
    check_conditions,
    eval_lambda,
    lemma4_check,
    run_scheme,
    select_k0,
)
from kamtori.smoothing import (
    SmoothingSequence,
    build_smoothing_sequence,
    cl_norm,
    cutoff_extend,
    rung_nd,
)

from conftest import (ARITHMETIC_LAMBDAS, GOLDEN, REJECTED_IDS, REJECTED_KNOBS,
                      rung_derivative)


def synthetic_sequence(gaps, a_const, l=4, sigma=1.1):
    m = len(gaps) + 1
    return SmoothingSequence(
        approximants=[None] * m,
        degrees=[0] * m,
        gaps_c3=list(gaps),
        gaps_c0=list(gaps),
        a_const=a_const,
        l=l,
        sigma=sigma,
        e0_norm=0.0,
        anchor_index=0,
        history={},
    )


class TestEvalLambda:
    def test_default_product_form(self):
        assert eval_lambda(DEFAULT_LAMBDA, 2.0, 3.0, 4.0, 5.0) == 2 * 9 * 16 * 25

    def test_general_arithmetic(self):
        assert eval_lambda("mu + 2*d - v/tau", 1.0, 2.0, 6.0, 3.0) == 3.0
        assert eval_lambda("(mu + d)**2", 1.0, 2.0, 0.0, 0.0) == 9.0

    def test_overflowing_power_reads_infinite_as_a_product_does(self):
        # 4.00009**1000 overflows a float; so does 1e300 * 1e300
        assert eval_lambda("(mu+1)**1000", 3.00009, 1.0, 1.0, 1.0) == math.inf
        assert eval_lambda("mu*1e300*1e300", 1.0, 1.0, 1.0, 1.0) == math.inf
        assert eval_lambda("(-mu-1)**1001", 3.0, 1.0, 1.0, 1.0) == -math.inf
        assert eval_lambda("(-mu-1)**1000", 3.0, 1.0, 1.0, 1.0) == math.inf
        assert eval_lambda("-(mu+1)**1000", 3.0, 1.0, 1.0, 1.0) == -math.inf
        # an exponent tower is taken in floats, not as an exact integer
        assert eval_lambda("2**10**10", 1.0, 1.0, 1.0, 1.0) == math.inf

    @pytest.mark.parametrize(
        "spec",
        ["__import__('os')", "mu(1)", "x * d", "mu; d", "'a' + d", "[mu]"],
    )
    def test_rejects_non_arithmetic(self, spec):
        with pytest.raises((ValueError, SyntaxError)):
            eval_lambda(spec, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("spec", ["mu + foo", "mu *", "mu * 'a'", "mu(1)"])
    def test_bad_spec_raises_the_same_message_every_call(self, spec):
        raised = []
        for _ in range(3):
            with pytest.raises((ValueError, SyntaxError)) as exc:
                eval_lambda(spec, 1.0, 1.0, 1.0, 1.0)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[1:] == raised[:1] * 2


class TestCheckConditions:
    def test_zero_error_passes_with_full_margin(self):
        rep = check_conditions(1.0, 1.0, 1.1, 0.5, 0.0, 0.4)
        assert rep["condition2_ok"] and rep["condition3_ok"]
        assert rep["condition2_margin"] == 1.0
        assert rep["condition3_margin"] == 0.4

    def test_unit_constants_split_case(self):
        # lhs = 0.5 for both: passes the <1 test, fails the <0.4 test
        rep = check_conditions(1.0, 1.0, 1.1, 1.0, 0.5, 0.4)
        assert rep["condition2_lhs"] == 0.5
        assert rep["condition2_ok"]
        assert rep["condition3_lhs"] == 0.5
        assert not rep["condition3_ok"]

    def test_sigma_monotonicity(self):
        lo = check_conditions(1.0, 1.0, 1.1, 0.5, 0.1, 0.4)
        hi = check_conditions(1.0, 1.0, 2.0, 0.5, 0.1, 0.4)
        assert hi["condition2_lhs"] > lo["condition2_lhs"]
        assert hi["condition3_lhs"] > lo["condition3_lhs"]

    def test_lhs_relationship(self):
        rep = check_conditions(2.0, 0.7, 1.3, 0.25, 0.01, 1.0)
        ratio = 0.7**-2 * 0.25 ** (-2 * 1.3)
        assert rep["condition2_lhs"] == pytest.approx(
            rep["condition3_lhs"] * ratio, rel=1e-13
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            check_conditions(1.0, 0.0, 1.1, 1.0, 0.1, 0.4)
        with pytest.raises(ValueError, match="positive"):
            check_conditions(1.0, 1.0, 1.1, 1.0, -0.1, 0.4)

    def test_zero_defect_reads_zero_for_an_infinite_constant(self):
        # inf * 0 would be nan: an exact torus meets both conditions instead
        rep = check_conditions(math.inf, 1.0, 1.1, 0.5, 0.0, 0.4)
        assert rep["condition2_lhs"] == rep["condition3_lhs"] == 0.0
        assert rep["condition2_ok"] and rep["condition3_ok"]

    @pytest.mark.parametrize("c", [0.0, -2.0, math.nan])
    @pytest.mark.parametrize("e_norm", [0.0, 0.1])
    def test_nonpositive_constant_fails_both(self, c, e_norm):
        rep = check_conditions(c, 1.0, 1.1, 0.5, e_norm, 0.4)
        assert rep["condition2_lhs"] == rep["condition3_lhs"] == math.inf
        assert not rep["condition2_ok"] and not rep["condition3_ok"]


class TestKamSchedule:
    @pytest.fixture
    def sched(self):
        return KamSchedule(
            rho=0.05, r=0.35, l=4, sigma=1.1, gamma=0.38, mu0=2.0, d0=1.5,
            v0=1.2, tau0=1.1,
        )

    def test_stage_identities(self, sched):
        for k in range(1, 8):
            assert sched.rho_k(k + 1) == sched.rho_k(k) / 2
            assert sched.delta_k(k) == sched.rho_k(k) / 12
            assert sched.r_k(k + 1) == pytest.approx(
                sched.r_k(k) * 4.0 ** -(4 + 1.1), rel=1e-14
            )
            assert sched.rho_k(k) > 0 and sched.r_k(k) > 0

    def test_delta0_cap(self, sched):
        assert sched.delta0 == 0.05 / 12
        wide = KamSchedule(
            rho=24.0, r=0.35, l=4, sigma=1.1, gamma=0.38, mu0=1, d0=1, v0=1, tau0=1
        )
        assert wide.delta0 == 1.0

    def test_drift_budget_is_partial_geometric_sum(self, sched):
        for k in (1, 3, 6):
            direct = sum(sched.r_k(i) for i in range(1, k + 1))
            assert sched.drift_budget(k) == pytest.approx(direct, rel=1e-12)
        assert sched.drift_budget(50) <= (4.0 / 3.0) * sched.r * (1 + 1e-12)

    def test_capped_constants(self, sched):
        beta = sched.beta_notation
        den = 2.0 ** (4 * 1.1) - 2.0 ** (2 * 1.1 + 1)
        assert beta == pytest.approx(
            0.38**-2 * sched.delta0 ** (2 * 1.1 - 1) / den, rel=1e-13
        )
        assert sched.beta_statement == pytest.approx(
            0.38**-2 * sched.delta0 ** (2 * 1.1 - 1) * 2.0 ** (-4 * 1.1), rel=1e-13
        )
        assert sched.mu == 3.0
        assert sched.d == 1.5 + beta
        assert sched.v == 1.2 + beta
        assert sched.tau == 1.1 + beta + 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="l"):
            KamSchedule(rho=0.1, r=0.3, l=3, sigma=1.1, gamma=0.4, mu0=1, d0=1,
                        v0=1, tau0=1)
        with pytest.raises(ValueError, match="positive"):
            KamSchedule(rho=-0.1, r=0.3, l=4, sigma=1.1, gamma=0.4, mu0=1, d0=1,
                        v0=1, tau0=1)


class TestSelectK0:
    def test_analytic_sequence_trips_on_trigger(self):
        h = HamiltonianModel.pendulum(1e-3)
        seq = build_smoothing_sequence(h, l=4, sigma=1.1, count=3, e0_norm=1e-3)
        k0, rows = select_k0(seq, 1.0, 1.0, 1.0, 1e-3)
        assert k0 == 0
        assert all(r["ok"] for r in rows)

    def test_synthetic_geometric_gaps_hand_oracle(self):
        # rate l + 2 sigma = 6.2, gaps 4^(-6.2 k), d = v = tau = 1:
        #  j=0: ineq8 lhs = 2 * 1 = 2 >= 1/2, fails
        #  j=1: ineq8/9/10 pass, but 4^-6.2 = 1.85e-4 > e0 = 1e-4, (15) fails
        #  j=2: 4^-12.4 = 3.4e-8 <= 1e-4, all pass
        gaps = [4.0 ** (-6.2 * k) for k in range(4)]
        seq = synthetic_sequence(gaps, a_const=1.0)
        k0, rows = select_k0(seq, 1.0, 1.0, 1.0, 1e-4)
        assert k0 == 2
        assert rows[0]["ineq8_lhs"] == 2.0
        assert not rows[0]["ineq8_ok"]
        assert rows[1]["ineq8_ok"] and rows[1]["ineq9_ok"] and rows[1]["ineq10_ok"]
        assert rows[1]["ineq15_lhs"] == pytest.approx(4.0**-6.2)
        assert not rows[1]["ineq15_ok"]
        assert rows[2]["ok"]

    def test_scaling_gaps_down_never_increases_k0(self):
        gaps = [4.0 ** (-6.2 * k) for k in range(4)]
        base, _ = select_k0(synthetic_sequence(gaps, 1.0), 1.0, 1.0, 1.0, 1e-4)
        small = [g / 10 for g in gaps]
        scaled, _ = select_k0(synthetic_sequence(small, 0.1), 1.0, 1.0, 1.0, 1e-4)
        assert scaled <= base

    def test_no_admissible_index_names_blocker(self):
        # constant gaps block (8) below the top and a huge A keeps (15)
        # failing at the top, so every index is rejected
        seq = synthetic_sequence([1.0, 1.0, 1.0], a_const=1e30)
        with pytest.raises(ValueError, match="ineq8"):
            select_k0(seq, 1.0, 1.0, 1.0, 1e-4)

    def test_tail_blocks_ineq9(self):
        gaps = [4.0 ** (-6.2 * k) for k in range(4)]
        seq = synthetic_sequence(gaps, a_const=1.0)
        with pytest.raises(ValueError, match="ineq9"):
            select_k0(seq, 1.0, 1.0, 1.0, 1e-4, tails=[2.0] * 5)
        with pytest.raises(ValueError, match="tail"):
            select_k0(seq, 1.0, 1.0, 1.0, 1e-4, tails=[0.0])


class TestLemma4:
    def test_exact_envelope_passes_with_unit_fit(self):
        gaps = [4.0 ** (-4 * k) for k in (1, 2, 3, 4)]
        rep = lemma4_check(gaps, 4)
        assert rep["passed"]
        assert rep["a_fit"] == pytest.approx(1.0)

    def test_growing_prefix_fit_fails(self):
        gaps = [k * 4.0 ** (-4 * k) for k in (1, 2, 3, 4)]
        rep = lemma4_check(gaps, 4)
        assert not rep["passed"]
        assert rep["per_stage"] == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_slack_band(self):
        scaled = [1.0, 1.4, 1.2]
        gaps = [s * 4.0 ** (-4 * (k + 1)) for k, s in enumerate(scaled)]
        assert lemma4_check(gaps, 4)["passed"]

    def test_needs_three_gaps(self):
        with pytest.raises(ValueError, match="3"):
            lemma4_check([1e-3, 1e-5], 4)


@pytest.fixture(scope="module")
def bypass_run():
    h = HamiltonianModel.pendulum(1e-3)
    K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
    res = run_scheme(h, K0, np.array([GOLDEN]), RunParams(target_error=1e-11))
    return h, K0, res


class TestRunScheme:
    def test_analytic_bypass_equals_direct_solve(self, bypass_run):
        h, K0, res = bypass_run
        assert res.converged
        assert res.certificate["analytic_input"]
        freq = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=256)
        direct = solve_torus(
            h, K0, freq, tol=1e-11, max_iter=12, max_trunc_order=256, rho=0.05
        )
        assert np.array_equal(res.torus.winding, direct.torus.winding)
        assert res.torus.periodic.allclose(direct.torus.periodic, 1e-11)

    def test_k0_beyond_horizon_rejected_before_any_jet(self, monkeypatch):
        import kamtori.driver as driver
        import kamtori.solver as solver
        from kamtori import BSplineProfile, CompositeHamiltonian, RoughTerm

        calls = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        for module in (driver, solver):
            for name in ("invariance_error", "jet_grid"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
        h = CompositeHamiltonian(
            HamiltonianModel.free_rotator(1), [RoughTerm(0, prof, 1e-4)]
        )
        K0 = TorusEmbedding.circle(np.array([0.4]), trunc_order=64)
        params = RunParams(rho=0.02, r=0.8, sigma=1.1, horizon=32, target_error=1e-8)
        with pytest.raises(ValueError, match="beyond the Diophantine horizon 32"):
            run_scheme(h, K0, np.array([GOLDEN]), params)
        assert calls == []

    def test_stage_records_follow_schedule(self, bypass_run):
        _, _, res = bypass_run
        p = RunParams(target_error=1e-11)
        for rec in res.stages:
            k = rec["stage"]
            assert rec["rho_k"] == p.rho / 2.0 ** (k - 1)
            assert rec["delta_k"] == rec["rho_k"] / 12
            assert rec["model"] == ("smoothed" if k == 1 else "limit")
            assert rec["A1_ok"]
        assert res.stages[0]["iterations"] >= 2
        assert all(r["iterations"] == 0 for r in res.stages[1:])

    def test_certificate_contents(self, bypass_run):
        _, _, res = bypass_run
        cert = res.certificate
        assert cert["termination_reason"] == "target_reached"
        assert cert["lemma4"]["passed"]
        assert cert["final"]["target_met"]
        assert cert["final"]["drift_within_r"]
        assert cert["e0_original"]["grid"] == pytest.approx(
            2 * np.pi * 1e-3, rel=1e-4
        )
        assert cert["c_value"] == pytest.approx(
            eval_lambda(
                DEFAULT_LAMBDA,
                cert["schedule"]["mu"],
                cert["schedule"]["d"],
                cert["schedule"]["v"],
                cert["schedule"]["tau"],
            )
        )
        json.dumps(cert)

    def test_certificate_deterministic(self, bypass_run):
        h, K0, res = bypass_run
        again = run_scheme(h, K0, np.array([GOLDEN]), RunParams(target_error=1e-11))
        assert json.dumps(res.certificate, sort_keys=True) == json.dumps(
            again.certificate, sort_keys=True
        )

    def test_analytic_input_takes_one_jet_at_k0(self, bypass_run, monkeypatch):
        import kamtori.solver as solver

        samples = []

        def counted(h, z, jet=solver.jet_grid):
            samples.append(np.array(z))
            return jet(h, z)
        monkeypatch.setattr(solver, "jet_grid", counted)
        h, K0, _ = bypass_run
        res = run_scheme(h, K0, np.array([GOLDEN]), RunParams(target_error=1e-10))
        assert res.converged
        # one jet of H at K0 gives H's defect there, the schedule's frame
        # and stage 1's start: no later jet is taken at K0's samples
        k0 = K0.grid_samples()
        assert np.array_equal(samples[0], k0)
        assert not any(np.array_equal(z, k0) for z in samples[1:])
        # K0 and the stage-1 solve's three iterates after it
        assert len(samples) == 4

    def test_measured_gate_rejects_strong_coupling(self):
        h = HamiltonianModel.pendulum(0.2)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        res = run_scheme(h, K0, np.array([GOLDEN]), RunParams(target_error=1e-10))
        cert = res.certificate
        assert not res.converged
        assert cert["termination_reason"] == "condition2_failed"
        assert res.stages == []
        assert cert["conditions_measured"]["condition2_lhs"] > 1.0

    def test_strict_gate_is_conservative(self):
        # the literal lambda-form constant rejects even the mild pendulum
        h = HamiltonianModel.pendulum(1e-3)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        res = run_scheme(
            h, K0, np.array([GOLDEN]),
            RunParams(target_error=1e-10, condition_mode="strict"),
        )
        cert = res.certificate
        assert cert["termination_reason"] == "condition2_failed"
        assert cert["conditions_strict"]["condition2_lhs"] > 1.0
        assert res.stages == []

    def test_requested_l_capped_by_smoothness(self):
        from kamtori import BSplineProfile, CompositeHamiltonian, RoughTerm

        prof = BSplineProfile([0.0, 0.5, 0.1, -0.4, -0.2, 0.3], degree=5)
        h = CompositeHamiltonian(
            HamiltonianModel.free_rotator(1), [RoughTerm(0, prof, 1e-4)]
        )
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        with pytest.raises(ValueError, match="exceeds"):
            run_scheme(h, K0, np.array([GOLDEN]), RunParams(l=5))

    def test_condition_mode_validated(self):
        with pytest.raises(ValueError, match="condition_mode"):
            RunParams(condition_mode="loose")


def bspline_run(coordinates, amplitude, y0, **knobs):
    """run_scheme on |y|^2/2 plus amplitude * B on each of coordinates, B
    rough_cascade_cli's degree-5 B-spline, at omega = (golden, sqrt 2 - 1)[:n]
    from the flat torus at y0 (M = 64)."""
    from kamtori import BSplineProfile, CompositeHamiltonian, RoughTerm

    prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])[: len(y0)]
    h = CompositeHamiltonian(HamiltonianModel.free_rotator(len(y0)),
                             [RoughTerm(c, prof, amplitude) for c in coordinates])
    K0 = TorusEmbedding.circle(np.asarray(y0, dtype=float), trunc_order=64)
    params = RunParams(rho=0.02, r=0.8, sigma=1.1, horizon=256, target_error=1e-8, **knobs)
    return K0, run_scheme(h, K0, omega, params)


class TestRoughRuns:
    """Rough cascades whose ladders take V_N on every axis."""

    def test_unachievable_ladder_ends_with_a_certificate(self):
        # at y0 = golden the defect is small: no gap up to degree 16 reaches it
        K0, res = bspline_run([0], 1e-4, [GOLDEN], max_degree=16)
        cert = res.certificate
        assert not res.converged and cert["converged"] is False
        assert cert["termination_reason"] == "smoothing_unachievable"
        assert cert["smoothing"]["error"].startswith(
            "smoothing bound unachievable at max degree 16")
        e0 = cert["e0_original"]["rho"]
        assert f"e0_norm {e0:.3e}" in cert["smoothing"]["error"]
        assert res.stages == [] and res.torus is K0
        json.dumps(cert)

    def test_rough_term_on_the_action_coordinate_converges(self):
        _, res = bspline_run([1], 1e-3, [0.4])
        cert = res.certificate
        assert res.converged, cert["termination_reason"]
        assert cert["k0"]["index"] >= 0
        assert cert["final"]["error_vs_original_grid"] <= 1e-8

    def test_two_dof_ladder_stops_by_degree_128(self):
        # the 2-DOF rough cascade |y|^2/2 + 1e-4 (B(x_1) + B(x_2)) at y0 = omega
        _, res = bspline_run([0, 1], 1e-4, [GOLDEN, np.sqrt(2.0) - 1.0])
        cert = res.certificate
        assert res.converged, cert["termination_reason"]
        assert cert["k0"]["index"] >= 0
        assert max(cert["smoothing"]["ladder_degrees"]) <= 128


class TestRunParams:
    @pytest.mark.parametrize("knobs, violation", REJECTED_KNOBS, ids=REJECTED_IDS)
    def test_rejection_named(self, knobs, violation):
        with pytest.raises(ConfigError) as exc:
            RunParams(**knobs)
        [named] = exc.value.violations
        assert named.startswith(violation)

    @pytest.mark.parametrize("name", ["horizon", "l", "max_iter", "max_stages",
                                      "min_tori", "count", "start_degree",
                                      "max_degree"])
    def test_integer_knobs_take_integers_only(self, name):
        for value in (8.0, "8", None, False):
            if name == "l" and value is None:
                continue  # l = None means the model's class
            with pytest.raises(ConfigError) as exc:
                RunParams(**{name: value})
            assert exc.value.violations == [f"{name} must be an integer, got {value}"]
        # an integer of another type is stored as an int
        stored = getattr(RunParams(**{"max_degree": 4096, name: np.int64(8)}), name)
        assert stored == 8 and type(stored) is int

    @pytest.mark.parametrize("spec, fragment", ARITHMETIC_LAMBDAS,
                             ids=[s for s, _ in ARITHMETIC_LAMBDAS])
    def test_lambda_arithmetic_error_named(self, spec, fragment):
        with pytest.raises(ConfigError) as exc:
            RunParams(lambda_spec=spec)
        [named] = exc.value.violations
        assert named.startswith("lambda_spec does not evaluate: ")
        assert fragment in named

    @pytest.mark.parametrize("mode, reason", [("strict", "condition2_failed"),
                                              ("measured", "target_reached")])
    def test_lambda_overflowing_at_run_time_ends_the_run(self, mode, reason):
        # the spec is finite at the probe, 2**1000, but mu = 3.00009 on the
        # C^4 rotator, so c = 4.00009**1000 overflows
        h, K0, params = rough_rotator()
        params = dataclasses.replace(params, lambda_spec="(mu+1)**1000",
                                     condition_mode=mode)
        res = run_scheme(h, K0, np.array([GOLDEN]), params)
        cert = res.certificate
        assert cert["c_value"] == "inf"
        assert cert["conditions_strict"]["condition2_ok"] is False
        assert cert["termination_reason"] == reason
        assert res.converged is (mode == "measured")
        json.dumps(cert)

    @pytest.mark.parametrize("mode", ["strict", "measured"])
    def test_infinite_constant_on_an_exact_torus_reads_zero(self, mode):
        # the free rotator's circle is exact (e = 0) and c = (mu+1)**1000 is
        # infinite at the run's mu: c e reads 0, where inf * 0 read nan
        h = HamiltonianModel.free_rotator(1)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        params = RunParams(lambda_spec="(mu+1)**1000", condition_mode=mode)
        res = run_scheme(h, K0, np.array([GOLDEN]), params)
        cert = res.certificate
        assert cert["c_value"] == "inf"
        assert cert["conditions_strict"]["condition2_lhs"] == 0.0
        assert [s["A3_lhs"] for s in res.stages] == [0.0] * len(res.stages)
        assert [s["A4_lhs"] for s in res.stages] == [0.0] * len(res.stages)
        assert "nan" not in json.dumps([cert, res.stages])
        assert cert["termination_reason"] == "target_reached"

    @pytest.mark.parametrize("mode, reason", [("strict", "condition2_failed"),
                                              ("measured", "target_reached")])
    def test_nonpositive_constant_at_run_time_fails_the_conditions(self, mode, reason):
        # 2 - mu is 1 at the probe and negative at the run's mu = mu0 + 1
        h, K0, params = rough_rotator()
        params = dataclasses.replace(params, lambda_spec="2 - mu", condition_mode=mode)
        res = run_scheme(h, K0, np.array([GOLDEN]), params)
        cert = res.certificate
        assert cert["c_value"] < 0
        strict = cert["conditions_strict"]
        assert strict["condition2_lhs"] == strict["condition3_lhs"] == "inf"
        assert not strict["condition2_ok"] and not strict["condition3_ok"]
        assert cert["termination_reason"] == reason
        json.dumps(cert)

    def test_every_violation_in_one_value_error(self):
        with pytest.raises(ValueError) as exc:
            RunParams(rho=0.0, r=-1.0, gamma=0.0, l=3, horizon=0)
        assert str(exc.value) == "; ".join([
            "rho must be positive, got 0.0",
            "r must be positive, got -1.0",
            "gamma must be positive, got 0.0",
            "horizon must be >= 1, got 0",
            "l must be at least 4, got 3",
        ])

    def test_zero_radius_named_before_the_run(self):
        # an analytic run at r = 0 used to reach the C^3 norm on an empty box
        h = HamiltonianModel.pendulum(1e-3)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=16)
        with pytest.raises(ValueError, match="^r must be positive, got 0$"):
            run_scheme(h, K0, np.array([GOLDEN]), RunParams(r=0))


class EvaluationCounter:
    """Counts jets, defects and frames per (model, torus) pair.

    Wraps jet_grid, invariance_error and nondegeneracy wherever
    kamtori.solver and kamtori.driver look them up; a torus is keyed by its
    samples on its sampling grid.
    """

    KINDS = {"jet_grid": "jets", "invariance_error": "defects",
             "nondegeneracy": "frames"}

    def __init__(self, mp):
        import kamtori.driver as driver
        import kamtori.solver as solver

        self.pairs = {kind: collections.Counter() for kind in self.KINDS.values()}
        for module in (solver, driver):
            for name, kind in self.KINDS.items():
                if hasattr(module, name):
                    mp.setattr(module, name, self._counted(kind, getattr(module, name)))

    @staticmethod
    def key(model, samples):
        return id(model), np.asarray(samples).tobytes()

    def _counted(self, kind, func):
        def counted(model, z, *args, **kwargs):
            samples = z if kind == "jets" else z.grid_samples()
            self.pairs[kind][self.key(model, samples)] += 1
            return func(model, z, *args, **kwargs)
        return counted

    def totals(self) -> dict:
        return {kind: sum(pairs.values()) for kind, pairs in self.pairs.items()}

    def repeats(self) -> dict:
        """Per kind, the pairs evaluated more than once."""
        return {kind: {key: c for key, c in pairs.items() if c > 1}
                for kind, pairs in self.pairs.items()}


def rough_rotator():
    """The C^4 rotator of rough_run: H, K0 and the run's knobs."""
    from kamtori import BSplineProfile, CompositeHamiltonian, RoughTerm

    prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
    h = CompositeHamiltonian(
        HamiltonianModel.free_rotator(1), [RoughTerm(0, prof, 1e-4)]
    )
    K0 = TorusEmbedding.circle(np.array([0.4]), trunc_order=64)
    params = RunParams(rho=0.02, r=0.8, sigma=1.1, horizon=256, target_error=1e-8)
    return h, K0, params


@pytest.fixture(scope="module")
def rough_run():
    """run_scheme on a C^4 rotator, counting its evaluations.

    Counts jets, defects and frames per (model, torus) pair, every
    cl_gap call made after the ladder is built, every dense C^l grid
    (_cl_sup, _factored_sup) and stencil pass, and every synthesis of a
    torus's grid samples.  Per solve_torus call, it also records the
    solver's own jet_grid, newton_step and resize calls.
    """
    import kamtori.driver as driver
    import kamtori.smoothing as smoothing
    import kamtori.solver as solver

    calls = {"late_cl_gap": 0, "solver.jet_grid": 0, "solver.newton_step": 0,
             "resized": 0, "dense_grid": 0, "stencil": 0, "samples": [],
             "solves": []}
    ladders = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    inner = ("solver.jet_grid", "solver.newton_step", "resized")

    def solve(*args, **kwargs):
        before = {name: calls[name] for name in inner}
        res = solve_torus(*args, **kwargs)
        calls["solves"].append({name: calls[name] - before[name] for name in inner})
        return res

    def cl_gap(*args, **kwargs):
        if ladders:
            calls["late_cl_gap"] += 1
        return smoothing_cl_gap(*args, **kwargs)

    def synthesized(K, grid_size):
        calls["samples"].append((K, grid_size))
        return synthesize(K, grid_size)

    def ladder(*args, **kwargs):
        seq = build(*args, **kwargs)
        ladders.append(seq)
        return seq

    smoothing_cl_gap, build = smoothing.cl_gap, driver.build_smoothing_sequence
    synthesize = TorusEmbedding._synthesized
    solve_torus = driver.solve_torus
    h, K0, params = rough_rotator()
    with pytest.MonkeyPatch.context() as mp:
        evaluations = EvaluationCounter(mp)
        # the driver itself imports no cl_gap; should it ever, count its calls too
        mp.setattr(smoothing, "cl_gap", cl_gap)
        mp.setattr(driver, "cl_gap", cl_gap, raising=False)
        mp.setattr(driver, "build_smoothing_sequence", ladder)
        mp.setattr(driver, "solve_torus", solve)
        mp.setattr(solver, "jet_grid", counted("solver.jet_grid", solver.jet_grid))
        mp.setattr(solver, "newton_step",
                   counted("solver.newton_step", solver.newton_step))
        mp.setattr(TorusEmbedding, "resized",
                   counted("resized", TorusEmbedding.resized))
        mp.setattr(TorusEmbedding, "_synthesized", synthesized)
        for name in ("_cl_sup", "_factored_sup"):
            mp.setattr(smoothing, name, counted("dense_grid", getattr(smoothing, name)))
        mp.setattr(smoothing, "_stencil_all", counted("stencil", smoothing._stencil_all))
        res = run_scheme(h, K0, np.array([GOLDEN]), params)
    return res, ladders, calls, evaluations


class TestMeasuredOnce:
    def test_tails_are_the_ladders_composite_gaps(self, rough_run):
        # the tails are the C^3 distances of the kept rungs to the cut
        # target that the ladder bounded, taken once
        res, ladders, calls, _ = rough_run
        assert res.converged
        (seq,) = ladders
        assert len(seq.tails_c3) == len(seq.history["rungs"])
        assert res.certificate["tails_c3"] == seq.tails_c3
        assert calls["late_cl_gap"] == 0

    def test_no_stencil_and_no_grid_over_the_box(self, rough_run):
        # every C^3 number comes from per-axis factor sups: no 2n-D grid
        _, _, calls, _ = rough_run
        assert calls["dense_grid"] == 0
        assert calls["stencil"] == 0

    def test_each_torus_sampled_once_per_grid(self, rough_run):
        # K0 and the four stage tori are each synthesized once: the bump's
        # hull, every mu hull and every value of a model at a torus share
        # its default-grid samples
        from kamtori.fourier import sampling_size

        _, _, calls, _ = rough_run
        pairs = [(id(K), size or sampling_size(K.trunc_order))
                 for K, size in calls["samples"]]
        assert len(pairs) == len(set(pairs)) == 5

    def test_certificate_names_each_c3_method(self, rough_run):
        res, _, _, _ = rough_run
        methods = res.certificate["c3_methods"]
        assert set(methods) == {"rule", "gaps_c3", "gaps_c0", "ladder_gaps_c3",
                                "tails_c3", "mu0", "mu_k"}
        for key in ("gaps_c3", "gaps_c0", "ladder_gaps_c3"):
            assert methods[key] == "coefficient_bound"
        # the cut target and H's rough profile are sampled on the 1-D rule
        assert methods["tails_c3"] == methods["mu0"] == "sampled"
        assert methods["mu_k"] == ["coefficient_bound"] + ["sampled"] * 3
        assert len(methods["mu_k"]) == len(res.stages)

    def test_defect_records_carry_tail_sum(self, rough_run):
        # tail_sum, the tol half of the refinement rule, is the defect's
        # own: H at K0 and at the final torus, the stage-1 model at K0
        from kamtori.solver import invariance_error

        res, (seq,), _, _ = rough_run
        cert = res.certificate
        h, K0, params = rough_rotator()
        freq = FrequencyVector.estimated(np.array([GOLDEN]), params.sigma, params.horizon)
        records = {
            "e0_original": invariance_error(h, K0, freq, rho=params.rho),
            "e0_stage1": invariance_error(seq.approximants[cert["k0"]["index"]], K0,
                                          freq, rho=params.rho),
            "final": invariance_error(h, res.torus, freq, rho=0.0),
        }
        for key, err in records.items():
            assert cert[key]["tail_sum"] == err.norm_rho.tail_sum, key
            assert cert[key]["tail_max"] == err.norm_rho.tail_max, key

    def test_driver_measures_each_stage_start_once(self, rough_run):
        res, _, _, evaluations = rough_run
        assert [rec["iterations"] for rec in res.stages] == [3, 1, 0, 0]
        assert res.certificate["k0"]["index"] == 0
        # the gate reads stage 1's first step: no pair is evaluated twice
        assert evaluations.repeats() == {"jets": {}, "defects": {}, "frames": {}}
        # H and the first approximant at K0, stage 1's 3 iterates, H at
        # stage 1's torus and stage 2's iterate; frames for the 4 steps (the
        # schedule's is stage 1's first) and stage 3's start
        assert evaluations.totals() == {"jets": 7, "defects": 7, "frames": 5}

    def test_stage_starts_reuse_the_measured_defects(self, rough_run):
        res, _, _, _ = rough_run
        cert = res.certificate
        assert res.stages[0]["e_k_rho"] == cert["e0_stage1"]["rho"]
        assert (cert["final"]["error_vs_original_grid"]
                == res.stages[-1]["error_vs_original_grid"])

    def test_stage_solves_start_from_the_previous_stages_jet(self, rough_run):
        # stage 1 starts from the stage-1 model's value at K0 and stage
        # k >= 2 from H's value at the previous stage's torus: each solve
        # takes one jet per Newton step and per resize
        res, _, calls, _ = rough_run
        solves = calls["solves"]
        assert len(solves) == len(res.stages)
        for rec, counts in zip(res.stages, solves):
            assert counts["solver.newton_step"] == rec["iterations"]
            assert counts["solver.jet_grid"] == rec["iterations"] + counts["resized"]

    def test_lemma4_reports_how_much_evidence_it_had(self, rough_run):
        res, _, _, _ = rough_run
        cert = res.certificate
        steps = [rec["iterations"] for rec in res.stages]
        # the later stages copy their start torus: only stage 2 took steps
        assert steps[1] > 0 and steps[2:] == [0] * (len(steps) - 2)
        lemma4 = cert["lemma4"]
        assert lemma4["informative_gaps"] == cert["torus_gaps"][:1]
        assert lemma4["informative_gaps"][0] > 0
        assert lemma4["vacuous"] is True
        # report only: the pass rule is unchanged
        assert lemma4["passed"] == lemma4_check(cert["torus_gaps"], cert["l"])["passed"]

    def test_stage_norms_are_taken_at_the_stage_width(self, rough_run):
        # d_k, v_k and tau_k are the frame norms at rho_k, where the stage's
        # e_k and its solve's first trace row are taken
        res, _, _, _ = rough_run
        stage2 = res.stages[1]
        first = stage2["trace"][0]
        assert stage2["rho_k"] == res.certificate["schedule"]["rho_k"][1]
        assert stage2["d_k"] == first["norm_dk"]
        assert stage2["v_k"] == first["norm_n"]
        assert stage2["tau_k"] == first["norm_s_inv"]

    def test_smoothed_stage_converges_below_the_horizon_cap(self, rough_run):
        # the rung is a trigonometric polynomial in the angle, so stage 1's
        # torus has an analytic spectrum: no genuine tail at K0, no
        # refinement to the horizon's cap, growth norms near 1
        res, _, _, _ = rough_run
        cert = res.certificate
        stage1 = res.stages[0]
        assert cert["e0_stage1"]["tail_flag"] is False
        assert stage1["status"] == "converged"
        orders = [row["trunc_order"] for row in stage1["trace"] if "trunc_order" in row]
        assert orders and max(orders) <= 64 < cert["horizon"]
        assert stage1["rho_k"] == 0.02
        norms = [row["norm_dk"] for row in stage1["trace"] if "norm_dk" in row]
        assert norms and max(norms) < 10

    def test_gate_reads_stage_ones_first_step(self, rough_run, bypass_run):
        # oracle: the step from K0 and the defects on both sides of it,
        # taken here with newton_step and invariance_error
        from kamtori.solver import invariance_error, newton_step

        res, (seq,), _, _ = rough_run
        _, K0, params = rough_rotator()
        h, K0_bypass, bypass = bypass_run
        cases = ((seq.approximants[res.certificate["k0"]["index"]], K0, params, res),
                 (h, K0_bypass, RunParams(target_error=1e-11), bypass))
        for model, K, p, run in cases:
            freq = FrequencyVector.estimated(np.array([GOLDEN]), p.sigma, p.horizon)
            K1, diag = newton_step(model, K, freq)
            e0 = invariance_error(model, K, freq).norm_grid
            e1 = invariance_error(model, K1, freq).norm_grid
            measured = run.certificate["conditions_measured"]
            assert measured["quadratic_constant"] == e1 / e0**2
            assert measured["step_amplification"] == diag.correction_sup / e0
            assert measured["condition2_lhs"] == pytest.approx(e1 / e0, rel=1e-14)
            assert measured["vacuous"] is False
            assert measured["quadratic_constant"] == run.stages[0]["measured_quadratic"]

    def test_start_at_a_solved_torus_reads_vacuous(self):
        # stage 1 takes no step, so the gate measured nothing and says so
        h = HamiltonianModel.pendulum(1e-3)
        K0 = TorusEmbedding.circle(GOLDEN, trunc_order=64)
        freq = FrequencyVector.estimated(np.array([GOLDEN]), sigma=1.1, horizon=256)
        solved = solve_torus(h, K0, freq, tol=1e-13).torus
        res = run_scheme(h, solved, np.array([GOLDEN]), RunParams(target_error=1e-11))
        assert res.stages[0]["iterations"] == 0
        assert res.certificate["conditions_measured"] == {
            "quadratic_constant": 0.0, "step_amplification": 0.0,
            "condition2_lhs": 0.0, "condition2_ok": True,
            "condition3_lhs": 0.0, "condition3_ok": True, "vacuous": True}

    def test_analytic_run_evaluates_each_pair_once(self, bypass_run):
        h, K0, _ = bypass_run
        with pytest.MonkeyPatch.context() as mp:
            evaluations = EvaluationCounter(mp)
            res = run_scheme(h, K0, np.array([GOLDEN]), RunParams(target_error=1e-11))
        assert res.converged
        assert evaluations.repeats() == {"jets": {}, "defects": {}, "frames": {}}
        assert evaluations.totals() == {"jets": 4, "defects": 4, "frames": 4}


def fourier_taylor_derivative(model):
    """D^alpha of a Fourier-Taylor model at points z, term by term in closed
    form: (2 pi i k)^a m!/(m-b)! c e^{2 pi i k.x} y^(m-b) for alpha = (a, b)."""
    n = model.n

    def derivative(alpha, z):
        a, b = np.array(alpha[:n]), np.array(alpha[n:])
        out = np.zeros(z.shape[:-1])
        for (k, m), c in model.terms:
            k, m = np.array(k), np.array(m)
            if np.any(b > m):
                continue
            coef = c * np.prod((2j * np.pi * k) ** a) * math.prod(map(math.perm, m, b))
            term = coef * np.exp(2j * np.pi * (z[..., :n] @ k)) * np.prod(
                z[..., n:] ** (m - b), axis=-1)
            out += (2.0 if k.any() else 1.0) * term.real
        return out

    return derivative


def rough_derivative(term):
    """D^alpha of amplitude * profile(z[coordinate]) from the profile's own
    closed-form derivatives."""
    def derivative(alpha, z):
        if any(q for i, q in enumerate(alpha) if i != term.coordinate):
            return np.zeros(z.shape[:-1])
        q = alpha[term.coordinate]
        return term.amplitude * term.profile.deriv(z[..., term.coordinate], q)

    return derivative


def exact_c3(derivatives, box, points):
    """max over |alpha| <= 3 of sup |D^alpha (sum of parts)| on cl_norm's
    plain grid: points per axis, endpoints included on actions, the
    periodic chart's left end on angles."""
    axes = [box.lo[i] + box.widths()[i] * np.arange(points) / points if box.periodic[i]
            else np.linspace(box.lo[i], box.hi[i], points) for i in range(box.dim)]
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    out = 0.0
    for alpha in itertools.product(range(4), repeat=box.dim):
        if sum(alpha) <= 3:
            vals = sum(d(alpha, z) for d in derivatives)
            out = max(out, float(np.max(np.abs(vals))))
    return out


class TestFactoredC3Norm:
    """_c3_near bounds every model from per-axis factor sups, with no grid
    over the box.  Closed-form derivatives and the rung's V_N summed mode
    by mode on a grid, and for the cut-off model the
    value-stencil path that plain callables take, are references: the
    bound reaches each and is at most 10 times it."""

    @staticmethod
    def models(n):
        from kamtori import (BSplineProfile, CompositeHamiltonian, RoughTerm,
                             SinPowerProfile, SumModel)

        if n == 1:
            analytic = HamiltonianModel(1, [((0,), (2,), 0.5), ((1,), (1,), 3e-3 - 1e-3j)])
            prof = BSplineProfile([0.0, 0.52, 0.55, 0.05, -0.48, -0.55], degree=5)
            rough = [RoughTerm(0, prof, 1e-2)]
            K = TorusEmbedding.circle(np.array([0.4]), trunc_order=16)
        else:
            c = 2e-3
            analytic = HamiltonianModel(2, [
                ((0, 0), (2, 0), 0.5), ((0, 0), (0, 2), 0.5), ((1, 0), (0, 0), c),
                ((1, -1), (0, 0), c), ((0, 1), (1, 0), 1j * c),
            ])
            rough = [RoughTerm(0, SinPowerProfile(4.5, 0.3), 1e-2),
                     RoughTerm(3, SinPowerProfile(4.5, 0.5, 0.2), 2e-2)]
            K = TorusEmbedding.circle(np.array([0.4, 0.3]), trunc_order=8)
        h = CompositeHamiltonian(analytic, rough)
        hx = cutoff_extend(h, K, r=0.2)
        rung = rung_nd(hx.separable(), 8, hx.box)
        stage = SumModel([analytic, rung])
        exact = [
            (h, [fourier_taylor_derivative(analytic), *map(rough_derivative, rough)]),
            (stage, [fourier_taylor_derivative(analytic),
                     lambda alpha, z: rung_derivative(rung, alpha, z)]),
        ]
        return K, exact, hx

    @pytest.mark.parametrize("n, points", [(1, 9), (2, 5)])
    def test_matches_exact_derivatives(self, n, points):
        from kamtori.driver import _c3_near, _hull_box

        K, cases, _ = self.models(n)
        for model, derivatives in cases:
            want = exact_c3(derivatives, _hull_box(K, 0.4), points)
            got = _c3_near(model, K, 0.4)
            assert want * (1 - 1e-12) <= got <= 10 * want, type(model).__name__

    @pytest.mark.parametrize("n, points", [(1, 9), (2, 5)])
    def test_matches_the_value_stencil_path(self, n, points):
        from kamtori.driver import _c3_near, _hull_box

        K, _, hx = self.models(n)
        want = cl_norm(lambda z: hx(z), _hull_box(K, 0.4), 3, points)
        assert want <= _c3_near(hx, K, 0.4) <= 10 * want

    @pytest.mark.parametrize("n, points", [(1, 129), (2, 33)])
    def test_bounds_the_dense_reference(self, n, points):
        # every model of a run, the cut-off one with its exact tables,
        # against cl_norm's dense grid
        from kamtori.driver import _c3_near, _hull_box

        K, cases, hx = self.models(n)
        for model in [hx] + [m for m, _ in cases]:
            want = cl_norm(model, _hull_box(K, 0.4), 3, points)
            got = _c3_near(model, K, 0.4)
            assert want * (1 - 1e-12) <= got <= 10 * want, type(model).__name__

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("margin", [5.8e-7, 1e-3, 0.3])
    def test_free_rotator_norm_is_one_on_any_hull(self, n, margin):
        # |y|^2/2 has D^2 = I and D^3 = 0; with |y_j| <= 1 on the hull no
        # lower order exceeds 1, whatever the margin: its closed-form
        # factor sups take no step that a small margin could shrink
        from kamtori.driver import _c3_near

        y0 = np.array([0.4, -0.3])[:n]
        K = TorusEmbedding.circle(y0, trunc_order=8)
        assert _c3_near(HamiltonianModel.free_rotator(n), K, margin) == 1.0
