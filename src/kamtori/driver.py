"""Orchestration of the full scheme for finitely differentiable Hamiltonians.

Pipeline: localize the rough part of H near the initial torus (cutoff),
build the analytic smoothing sequence, select the starting index k0 from
the measured inequality witnesses, then run a cascade of Newton solves at
shrinking strip widths: stage 1 against the selected smoothed model, the
remaining stages against the original H (once close enough, H's own
finitely many derivatives suffice for the quadratic iteration).  Every
stage records the drift, constant, and smallness bookkeeping (A1..A4),
the torus gaps feed the geometric-convergence check, and the whole run
is summarized in a deterministic certificate.  Only smoothing_ladder
decides which models are cut off: one without rough terms (analytic, or
a HamiltonianModel of any declared class) takes the constant sequence.

The proof-side constant c = lambda(mu, d, v, tau) is existential: no
explicit polynomial is available.  Certificates therefore carry the raw
measured quantities plus both condition variants: the literal left-hand
sides under the fixed placeholder lambda = mu * d**2 * v**2 * tau**2
(DEFAULT_LAMBDA, which the certificate echoes), reported and never
gated on, and measured analogues (observed quadratic constant and step
amplification of stage 1's first Newton step, read off its solve's
trace, so stage 1 runs before the gate; a stage 1 that takes no step
leaves them vacuous, and says so).  The run gates on the measured
variant; a failed gate returns K0 with no stage records.  With mu, d, v,
tau and every stage's mu_k, d_k, v_k, tau_k in the certificate, any
other candidate lambda can be evaluated offline.

run_scheme takes its named steps in order: one jet of H at K0, whose
value is the e0_original record and anchors the ladder (smoothing_ladder,
as in the smooth command), the schedule (kam_schedule), k0 (select_k0),
one _run_stage per stage (its record, its solve and the next start), and
the evidence: torus gaps, lemma 4 and the final record.  A run that ends
before its cascade ends through _ended, with K0 and no stage records.

Each (model, torus) pair is evaluated once, into a solver.Iterate that
the stages pass on.  The schedule's frame is the first approximant's
value at K0 (H's own for a constant sequence), its mu0 the cut-off
model's; the ladder's tails are the C^3 distances to the cut target that
its construction bounded.  Stage 1 starts from the selected model's
value at K0, and stage k >= 2 from H's value at stage k-1's torus: the
one stage k-1's solve returned, or after a smoothed stage 1 a new one.
A stage's d_k, v_k, tau_k and e_k are norms of its start value's frame
and defect at rho_k, the width its solve runs at; the final defect is
the last stage's.

Every C^3 number (gaps, tails, mu0, mu_k) is a cl_bound from per-axis
factor sups, and the certificate's c3_methods names how each was taken.
The CLI's smooth and verify commands call smoothing_ladder and
kam_schedule, the same code that run_scheme uses; verify anchors its
schedule at H's value and H's norm.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .diophantine import FrequencyVector
from .fourier import TorusEmbedding
from .hamiltonian import HamiltonianModel, _is_number
from .smoothing import (
    SAMPLE_RULE,
    SmoothingSequence,
    SmoothingUnachievable,
    _hull_box,
    build_smoothing_sequence,
    cl_bound,
    cutoff_extend,
)
from .solver import (
    HYPOTHESIS_STATUSES,
    ErrorField,
    HypothesisError,
    Iterate,
    SolveResult,
    check_horizon,
    solve_torus,
)

__all__ = [
    "ConfigError",
    "DEFAULT_LAMBDA",
    "KamSchedule",
    "RunParams",
    "RunResult",
    "check_conditions",
    "kam_schedule",
    "lemma4_check",
    "run_scheme",
    "select_k0",
    "smoothing_ladder",
]

DEFAULT_LAMBDA = "mu * d**2 * v**2 * tau**2"
LEMMA4_SLACK = 1.5  # how far later scaled gaps may exceed the first in lemma4_check
# torus gaps lemma4_check fits: a run takes one stage more before it may stop
LEMMA4_GAPS = 3
# the cascade's stage cap (at least LEMMA4_GAPS + 1, or lemma 4 never has
# its gaps) and the smoothing sequence's length
MAX_STAGES = 6
LADDER_COUNT = 2


def _power(x, p) -> float:
    """x ** p in floats, or inf where it overflows, as a product gives."""
    try:
        return float(x) ** p
    except OverflowError:
        return math.inf


def _lambda(mu: float, d: float, v: float, tau: float) -> float:
    """The reported lambda-form DEFAULT_LAMBDA, ((mu d^2) v^2) tau^2, in
    floats; a square that overflows reads inf, as a product does."""
    return float(mu * _power(d, 2) * _power(v, 2) * _power(tau, 2))


@dataclass(frozen=True)
class KamSchedule:
    """Stage widths, radii, and capped constants of the cascade.

    rho_k = rho / 2^(k-1), delta_k = rho_k / 12, r_k = r * 4^(-(l+sigma)(k-1)),
    delta0 = min(1, rho/12).  beta comes in two variants (the statement
    uses 2^(-4 sigma), the notation block 1/(2^(4 sigma) - 2^(2 sigma + 1)));
    both are exposed, the capped constants mu = mu0 + 1, d = d0 + beta,
    v = v0 + beta, tau = tau0 + beta + 1 use the notation-block variant.
    beta grows as gamma^-2, and a power that overflows reads inf (_power).
    """

    rho: float
    r: float
    l: int
    sigma: float
    gamma: float
    mu0: float
    d0: float
    v0: float
    tau0: float

    def __post_init__(self):
        if min(self.rho, self.r, self.gamma) <= 0 or self.sigma <= 0:
            raise ValueError("rho, r, gamma, sigma must be positive")
        # l >= 4 also gives the 4^(l+sigma) >= 4 that
        # sum r_k = r / (1 - 4^-(l+sigma)) <= (4/3) r needs
        if self.l < 4:
            raise ValueError("smoothness class l must be >= 4")

    @property
    def delta0(self) -> float:
        return min(1.0, self.rho / 12.0)

    @property
    def beta_statement(self) -> float:
        return (_power(self.gamma, -2) * _power(self.delta0, 2 * self.sigma - 1)
                * 2.0 ** (-4 * self.sigma))

    @property
    def beta_notation(self) -> float:
        den = 2.0 ** (4 * self.sigma) - 2.0 ** (2 * self.sigma + 1)
        if den <= 0:
            return math.inf
        return _power(self.gamma, -2) * _power(self.delta0, 2 * self.sigma - 1) / den

    @property
    def mu(self) -> float:
        return self.mu0 + 1.0

    @property
    def d(self) -> float:
        return self.d0 + self.beta_notation

    @property
    def v(self) -> float:
        return self.v0 + self.beta_notation

    @property
    def tau(self) -> float:
        return self.tau0 + self.beta_notation + 1.0

    def rho_k(self, k: int) -> float:
        return self.rho / 2.0 ** (k - 1)

    def delta_k(self, k: int) -> float:
        return self.rho_k(k) / 12.0

    def r_k(self, k: int) -> float:
        return self.r * 4.0 ** (-(self.l + self.sigma) * (k - 1))

    def drift_budget(self, k: int) -> float:
        """A1 right-hand side: r * sum_{i<k} 4^(-(l+sigma) i) <= (4/3) r."""
        q = 4.0 ** (-(self.l + self.sigma))
        return self.r * (1 - q**k) / (1 - q)

    def strict_conditions(self, e_norm: float) -> tuple[float, dict]:
        """(c, conditions): the literal lambda-form conditions at defect norm e_norm."""
        c = _lambda(self.mu, self.d, self.v, self.tau)
        return c, check_conditions(c, self.gamma, self.sigma, self.delta0, e_norm, self.r)


def check_conditions(
    c: float, gamma: float, sigma: float, delta0: float, e_norm: float, r: float
) -> dict:
    """Smallness conditions: c g^-4 d0^-4s |e| < 1 and c g^-2 d0^-2s |e| < r.

    A zero defect meets both for every positive c, an infinite one too
    (each lhs is 0).  A c that is not positive is no constant of the
    proof, and fails both (each lhs is inf).  A power that overflows reads
    inf (_power).
    """
    if min(gamma, sigma, delta0, r) <= 0 or e_norm < 0:
        raise ValueError("gamma, sigma, delta0 and r must be positive, and e_norm >= 0")
    lhs2 = lhs3 = 0.0 if c > 0 else math.inf
    if c > 0 and e_norm > 0:
        lhs2 = c * _power(gamma, -4) * _power(delta0, -4 * sigma) * e_norm
        lhs3 = c * _power(gamma, -2) * _power(delta0, -2 * sigma) * e_norm
    return {
        "condition2_lhs": lhs2,
        "condition2_rhs": 1.0,
        "condition2_ok": bool(lhs2 < 1.0),
        "condition2_margin": 1.0 - lhs2,
        "condition3_lhs": lhs3,
        "condition3_rhs": r,
        "condition3_ok": bool(lhs3 < r),
        "condition3_margin": r - lhs3,
    }


def select_k0(
    seq: SmoothingSequence,
    d: float,
    v: float,
    tau: float,
    e0_norm: float,
    tails=None,
) -> tuple[int, list[dict]]:
    """Least sequence index whose four measured inequality witnesses hold.

    Witnesses per candidate j (gap_j = C^3 gap to the next entry, tail_j
    the measured C^3 distance to the rough target, or 0 when analytic):
      (8)  2 d^2 v^2 gap tau < 1/2   for every remaining gap
      (9)  tail < 1
      (10) 4 d^2 v^2 tau^2 (tail + remaining gaps) < 1
      (15) A_fit * 4^(-j (l + 2 sigma)) <= e0_norm
    A power of d, v or tau that overflows reads inf (_power), and a
    witness whose gaps and tails sum to exactly 0 reads 0, as a zero
    defect does in check_conditions.  Raises when no index qualifies,
    naming the blocking inequality.
    """
    m = len(seq.approximants)
    if tails is None:
        tails = [0.0] * m
    if len(tails) != m:
        raise ValueError("need one tail estimate per sequence entry")
    rate = seq.l + 2.0 * seq.sigma
    d2, v2, tau2 = _power(d, 2), _power(v, 2), _power(tau, 2)
    rows = []
    chosen = None
    for j in range(m):
        remaining = seq.gaps_c3[j:]
        worst_gap = max(remaining, default=0.0)
        lhs8 = 0.0 if worst_gap == 0 else 2.0 * d2 * v2 * worst_gap * tau
        lhs9 = tails[j]
        witness = tails[j] + sum(remaining)
        lhs10 = 0.0 if witness == 0 else 4.0 * d2 * v2 * tau2 * witness
        lhs15 = seq.a_const * 4.0 ** (-j * rate)
        row = {
            "index": j,
            "ineq8_lhs": lhs8,
            "ineq8_ok": bool(lhs8 < 0.5),
            "ineq9_lhs": lhs9,
            "ineq9_ok": bool(lhs9 < 1.0),
            "ineq10_lhs": lhs10,
            "ineq10_ok": bool(lhs10 < 1.0),
            "ineq15_lhs": lhs15,
            "ineq15_rhs": e0_norm,
            "ineq15_ok": bool(lhs15 <= e0_norm),
        }
        row["ok"] = all(row[k] for k in ("ineq8_ok", "ineq9_ok", "ineq10_ok", "ineq15_ok"))
        rows.append(row)
        if chosen is None and row["ok"]:
            chosen = j
    if chosen is None:
        blockers = {}
        for row in rows:
            for name in ("ineq8", "ineq9", "ineq10", "ineq15"):
                if not row[name + "_ok"]:
                    blockers.setdefault(name, row["index"])
        names = ", ".join(f"{k} (first at index {v})" for k, v in sorted(blockers.items()))
        raise ValueError(f"no admissible k0 in a sequence of {m}: blocked by {names}")
    return chosen, rows


def lemma4_check(gaps, l: int) -> dict:
    """Geometric-convergence test: gaps_k <= A 4^(-l k) with stable fit.

    gaps are ||K_k - K_{k+1}|| at widths rho/4^k, k = 1-based.  The fit
    A = max_k gap_k 4^(l k) passes when it is set by the first gap up to
    the factor LEMMA4_SLACK, which the result echoes as "slack": later
    gaps may not push the envelope up, otherwise the sequence decays
    slower than 4^(-l) per stage and the C^l limit argument does not
    apply.
    """
    gaps = [float(g) for g in gaps]
    if len(gaps) < LEMMA4_GAPS:
        raise ValueError(f"need at least {LEMMA4_GAPS} gaps to test the envelope")
    scaled = [g * 4.0 ** (l * (k + 1)) for k, g in enumerate(gaps)]
    a_fit = max(scaled)
    passed = a_fit <= LEMMA4_SLACK * scaled[0]
    return {
        "a_fit": a_fit,
        "per_stage": scaled,
        "gaps": gaps,
        "slack": LEMMA4_SLACK,
        "passed": bool(passed),
    }


class ConfigError(ValueError):
    """Run description rejected; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# RunParams knobs by type, and those of them that may also be None
_INTEGER_KNOBS = ("horizon", "l")
_REAL_KNOBS = ("rho", "r", "sigma", "gamma", "target_error", "tol")
_OPTIONAL_KNOBS = frozenset({"l", "gamma", "tol"})

# (message, test) per bound of a RunParams knob, tested once the knob has
# its type
_BOUNDS = (
    ("rho must be positive, got {p.rho}", lambda p: p.rho > 0),
    ("r must be positive, got {p.r}", lambda p: p.r > 0),
    ("sigma must be positive, got {p.sigma}", lambda p: p.sigma > 0),
    ("gamma must be positive, got {p.gamma}", lambda p: p.gamma is None or p.gamma > 0),
    ("horizon must be >= 1, got {p.horizon}", lambda p: p.horizon >= 1),
    ("l must be at least 4, got {p.l}", lambda p: p.l is None or p.l >= 4),
    ("target_error must be positive, got {p.target_error}", lambda p: p.target_error > 0),
    ("tol must be positive, got {p.tol}", lambda p: p.tol is None or p.tol > 0),
)


@dataclass(frozen=True)
class RunParams:
    """Knobs of run_scheme: the one place that holds their defaults and bounds.

    rho, r, sigma, gamma and l are the scheme's hypotheses: strip width,
    radius, Diophantine exponent and constant (the horizon scan's worst
    margin when None) and smoothness class (the model's when None).
    target_error ends the cascade, and tol (target_error when None) each
    stage's solve, which takes at most solve_torus's 12 Newton steps.  The
    cascade's and the ladder's sizes are constants: at most MAX_STAGES
    stages, none stopping before stage LEMMA4_GAPS + 1, and LADDER_COUNT
    approximants from rungs of degree START_DEGREE up to MAX_DEGREE
    (smoothing).
    Construction checks every knob and raises one ConfigError listing
    each violation.  A knob must be a finite number, an integer knob an
    integer, and neither a bool; gamma, l and tol may also be None.  An
    integer knob is stored as an int, a real one as given.  Everything is
    echoed into the certificate.
    """

    rho: float = 0.05
    r: float = 0.35
    sigma: float = 1.1
    gamma: float | None = None
    horizon: int = 256
    l: int | None = None
    target_error: float = 1e-9
    tol: float | None = None

    def __post_init__(self):
        bad, mistyped = [], []
        for name in _INTEGER_KNOBS + _REAL_KNOBS:
            value = getattr(self, name)
            integral = name in _INTEGER_KNOBS
            if value is None and name in _OPTIONAL_KNOBS:
                continue
            if not _is_number(value) or (integral and not isinstance(value, numbers.Integral)):
                mistyped.append(name)
                kind = "an integer" if integral else "a number"
                bad.append(f"{name} must be {kind}, got {value}")
            elif integral:
                object.__setattr__(self, name, int(value))
        for message, test in _BOUNDS:
            if not any(f"{{p.{name}}}" in message for name in mistyped) and not test(self):
                bad.append(message.format(p=self))
        if bad:
            raise ConfigError(bad)


@dataclass
class RunResult:
    """run_scheme's final torus, and its certificate and stage records in
    JSON form (_jsonable), ready to write."""

    torus: TorusEmbedding
    certificate: dict
    stages: list

    @property
    def converged(self) -> bool:
        return bool(self.certificate.get("converged"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _c3_near(model, K: TorusEmbedding, margin: float) -> float:
    """C^3 bound of model on the box hull of K's margin-neighbourhood.

    Every model is a sum of products of 1-D functions, so cl_bound takes
    it from per-axis factor sups on the hull's intervals, with no grid
    over the box; model.sup_method names whether those are closed forms
    and coefficient bounds or sampled (SAMPLE_RULE).
    """
    return max(cl_bound([model], _hull_box(K, margin))[0])


def _defect_record(err: ErrorField) -> dict:
    """A defect's grid sup and strip norm, with its tail record
    (ErrorField.tail_record), the one solve_torus's trace rows carry."""
    return {"error_grid": err.norm_grid, "error_rho": err.norm_rho.value,
            **err.tail_record()}


def _sequence_record(seq: SmoothingSequence) -> dict:
    """A smoothing sequence's certificate fields, run's and smooth's alike."""
    return {"anchor_index": seq.anchor_index, "degrees": list(seq.degrees),
            "gaps_c3": list(seq.gaps_c3), "gaps_c0": list(seq.gaps_c0),
            "a_const": seq.a_const}


def _quadratic_constant(res: SolveResult) -> float | None:
    """e1 / e0^2 over a solve's first Newton step, from its first two trace
    rows; None when it took no step (or stepped from a zero defect)."""
    if res.iterations == 0 or res.trace[0]["error"] == 0:
        return None
    return res.trace[1]["error"] / res.trace[0]["error"] ** 2


def _measured_conditions(stage1: SolveResult, r: float) -> dict:
    """The smallness conditions measured on stage 1's first Newton step.

    With e0 and e1 the defects of its first two trace rows, the step from
    K0 and the iterate it gave, c = e1 / e0^2 is the observed quadratic
    constant and d = |Delta| / e0 the step amplification; condition 2 is
    c e0 < 1 and condition 3 bounds the drift of the whole iteration,
    d e0 / (1 - min(c e0, 1/2)), by r.  A stage 1 that took no step (its
    start met tol) measured nothing: every number is 0, and vacuous says so.
    """
    c_meas = _quadratic_constant(stage1)
    vacuous = c_meas is None
    e0 = d_meas = 0.0
    if vacuous:
        c_meas = 0.0
    else:
        e0 = stage1.trace[0]["error"]
        d_meas = stage1.trace[0]["correction"] / e0
    q = c_meas * e0
    drift_bound = d_meas * e0 / max(1.0 - min(q, 0.5), 0.5)
    return {
        "quadratic_constant": c_meas,
        "step_amplification": d_meas,
        "condition2_lhs": q,
        "condition2_ok": bool(q < 1.0),
        "condition3_lhs": drift_bound,
        "condition3_ok": bool(drift_bound < r),
        "vacuous": vacuous,
    }


def _frequency(omega, params: RunParams) -> FrequencyVector:
    """omega certified at params' sigma, horizon and gamma (None: the
    scan's margin).  A FrequencyVector is taken as it is where it carries
    the same sigma and horizon, and the same gamma where params sets one."""
    if not isinstance(omega, FrequencyVector):
        return FrequencyVector(omega, params.gamma, params.sigma, params.horizon)
    for name in ("sigma", "horizon", "gamma"):
        want, held = getattr(params, name), getattr(omega, name)
        if want is not None and held != want:
            raise ValueError(f"the frequency's {name} {held} is not the params' {want}")
    return omega


def _smoothness(hamiltonian, l: int | None) -> tuple[int, bool]:
    """(l, analytic): l defaults to 4 for analytic input, else to H's class."""
    smooth_cls = getattr(hamiltonian, "smoothness_class", math.inf)
    analytic = math.isinf(smooth_cls)
    if l is None:
        l = 4 if analytic else int(smooth_cls)
    if l < 4:
        raise ValueError(f"smoothness class l must be >= 4, got {l}")
    if not analytic and l > smooth_cls:
        raise ValueError(f"requested l={l} exceeds the model's C^{smooth_cls}")
    return l, analytic


def _value(model, K: TorusEmbedding, freq: FrequencyVector, rho: float,
           *known: Iterate) -> Iterate:
    """The value of model at K: a known one of that pair, else a new one."""
    found = [v for v in known if v.model is model and v.K is K]
    return found[0] if found else Iterate.evaluate(model, K, freq, rho)


def smoothing_ladder(h0: Iterate, params: RunParams) -> tuple[object, SmoothingSequence]:
    """(h_ext, seq): H = h0.model cut off near K0 = h0.K (H itself for a
    model without rough terms) and its smoothing sequence at H's class l,
    which h0, H's value at K0, anchors."""
    hamiltonian = h0.model
    l, analytic = _smoothness(hamiltonian, params.l)
    if analytic or isinstance(hamiltonian, HamiltonianModel):
        return hamiltonian, SmoothingSequence.constant(
            hamiltonian, LADDER_COUNT, l, params.sigma)
    h_ext = cutoff_extend(hamiltonian, h0.K, params.r)
    return h_ext, build_smoothing_sequence(
        h_ext, l, params.sigma, LADDER_COUNT, h0.error.norm_rho.value)


def kam_schedule(value: Iterate, norm_model, gamma: float, params: RunParams,
                 l: int) -> KamSchedule:
    """Schedule anchored at K = value.K: d0, v0, tau0 are the growth norms
    of value's frame at params.rho, and mu0 the C^3 norm of norm_model
    within 2r of K.  Raises the HypothesisError of a value with no frame.
    """
    nd = value.frame
    d0, v0 = nd.norms(params.rho)
    return KamSchedule(
        rho=params.rho, r=params.r, l=l, sigma=params.sigma, gamma=gamma,
        mu0=_c3_near(norm_model, value.K, 2 * params.r),
        d0=d0, v0=v0, tau0=nd.norm_s_inv,
    )


def _ended(K0: TorusEmbedding, cert: dict, reason: str) -> RunResult:
    """A run that ends before its cascade: K0, no stage, not converged."""
    cert["converged"] = False
    cert["termination_reason"] = reason
    return RunResult(K0, _jsonable(cert), [])


def _run_stage(k: int, start: Iterate, hamiltonian, K0: TorusEmbedding,
               freq: FrequencyVector, schedule: KamSchedule, params: RunParams,
               c_value: float) -> tuple[dict, SolveResult, Iterate]:
    """Stage k of the cascade: the solve of start's model from start at
    rho_k, the stage's record in JSON form, and the next stage's start,
    H's value at the torus the solve returned.  Raises the HypothesisError
    of a start with no frame at rho_k, before any solve."""
    h_k, k_prev = start.model, start.K
    rho_k = schedule.rho_k(k)
    # the frame the stage steps from, with its growth norms at rho_k
    nd_k = start.frame
    d_k, v_k = nd_k.norms(rho_k)
    tol = params.tol if params.tol is not None else params.target_error
    res = solve_torus(h_k, k_prev, freq, tol=tol, rho=rho_k, start=start)

    r_prev = schedule.r_k(k - 1) if k > 1 else params.r
    # the defect and the frame's growth norms at the width the stage solved at
    e_k = start.error.at(rho_k).norm_rho.value
    mu_k = _c3_near(h_k, k_prev, min(r_prev, 2 * params.r))
    c_k = _lambda(mu_k, d_k, v_k, nd_k.norm_s_inv)
    delta_k = schedule.delta_k(k)
    small = check_conditions(c_k, freq.gamma, params.sigma, delta_k, e_k,
                             schedule.r_k(k))

    k_new = res.torus
    step_norm = k_new.difference(k_prev).strip_norm(rho_k).value
    drift = k_new.difference(K0).strip_norm(schedule.rho_k(k + 1)).value
    drift_rhs = schedule.drift_budget(k)
    # H's value at k_new starts the next stage: the solve's own value,
    # except after a smoothed stage 1
    following = _value(hamiltonian, k_new, freq, rho_k, res.value)
    record = {
        "stage": k,
        "model": "limit" if h_k is hamiltonian else "smoothed",
        "rho_k": rho_k,
        "delta_k": delta_k,
        "r_k": schedule.r_k(k),
        "status": res.status,
        "iterations": res.iterations,
        "error_stage_model": res.error,
        "error_vs_original_grid": following.error.norm_grid,
        "e_k_rho": e_k,
        "A1_lhs": drift,
        "A1_rhs": drift_rhs,
        "A1_ok": bool(drift <= drift_rhs),
        "A2_c_k": c_k,
        "A2_c": c_value,
        "A2_ok": bool(c_k <= c_value),
        "A3_lhs": small["condition2_lhs"],
        "A3_ok": small["condition2_ok"],
        "A4_lhs": small["condition3_lhs"],
        "A4_rhs": schedule.r_k(k),
        "A4_ok": small["condition3_ok"],
        "mu_k": mu_k,
        "d_k": d_k,
        "v_k": v_k,
        "tau_k": nd_k.norm_s_inv,
        "step_norm": step_norm,
        "step_within_r_k": bool(step_norm <= schedule.r_k(k)),
        "measured_quadratic": _quadratic_constant(res),
        "trace": res.trace,
    }
    return _jsonable(record), res, following


def run_scheme(hamiltonian, K0: TorusEmbedding, omega, params: RunParams) -> RunResult:
    """Full cascade for a C^l (or analytic) Hamiltonian; see module docstring.

    A model without rough terms (smoothing_ladder) bypasses cutoff and
    smoothing entirely (constant sequence), and the cascade degenerates
    to direct Newton solves whose first stage reproduces solve_torus on H.
    """
    freq = _frequency(omega, params)
    check_horizon(K0.dim_domain, K0.trunc_order, freq)
    l, analytic_input = _smoothness(hamiltonian, params.l)

    # the certificate and every stage record go out in JSON form
    cert: dict = {
        "params": params.__dict__,
        "omega": freq.omega,
        "gamma": freq.gamma,
        "sigma": freq.sigma,
        "horizon": freq.horizon,
        "l": l,
        "lambda_spec": DEFAULT_LAMBDA,
        "analytic_input": analytic_input,
    }

    # H's value at K0: its defect is the anchor scale of the sequence
    h0 = Iterate.evaluate(hamiltonian, K0, freq, params.rho)
    cert["e0_original"] = _defect_record(h0.error)
    try:
        h_ext, seq = smoothing_ladder(h0, params)
    except SmoothingUnachievable as exc:
        cert["smoothing"] = {"error": str(exc)}
        return _ended(K0, cert, "smoothing_unachievable")
    cert["smoothing"] = {
        **_sequence_record(seq),
        "ladder_degrees": list(seq.history["ladder_degrees"]),
        "ladder_gaps_c3": list(seq.history["ladder_gaps_c3"]),
    }

    # each kept approximant's C^3 distance to the rough target, bounded
    # when the ladder was built
    cert["tails_c3"] = list(seq.tails_c3)
    # how each C^3 number was taken; mu_k gets one entry per stage below
    methods = {
        "rule": SAMPLE_RULE,
        "gaps_c3": seq.methods["gaps"],
        "gaps_c0": seq.methods["gaps"],
        "ladder_gaps_c3": seq.methods["gaps"],
        "tails_c3": seq.methods["tails"],
        "mu0": h_ext.sup_method,
        "mu_k": [],
    }
    cert["c3_methods"] = methods

    # the schedule's frame is the first approximant's value at K0 (H's on
    # a constant sequence), its mu0 the cut-off model's
    value0 = _value(seq.approximants[0], K0, freq, params.rho, h0)
    try:
        schedule = kam_schedule(value0, h_ext, freq.gamma, params, l)
    except HypothesisError as exc:  # no Newton step exists from K0
        cert["schedule"] = {"error": str(exc)}
        return _ended(K0, cert, exc.status)
    cert["schedule"] = {
        "delta0": schedule.delta0,
        "beta_statement": schedule.beta_statement,
        "beta_notation": schedule.beta_notation,
        "mu0": schedule.mu0,
        "d0": schedule.d0,
        "v0": schedule.v0,
        "tau0": schedule.tau0,
        "mu": schedule.mu,
        "d": schedule.d,
        "v": schedule.v,
        "tau": schedule.tau,
        "rho_k": [schedule.rho_k(k) for k in range(1, MAX_STAGES + 1)],
        "delta_k": [schedule.delta_k(k) for k in range(1, MAX_STAGES + 1)],
        "r_k": [schedule.r_k(k) for k in range(1, MAX_STAGES + 1)],
        "drift_budget": schedule.drift_budget(MAX_STAGES),
    }

    try:
        k0_index, k0_rows = select_k0(seq, schedule.d, schedule.v, schedule.tau,
                                      h0.error.norm_rho.value, seq.tails_c3)
    except ValueError as exc:
        cert["k0"] = {"error": str(exc)}
        return _ended(K0, cert, "no_admissible_k0")
    cert["k0"] = {"index": k0_index, "witnesses": k0_rows}

    # the stage-1 model's value at K0 starts stage 1: the schedule's at
    # k0 = 0 and on analytic input, where every sequence entry is H itself
    start = _value(seq.approximants[k0_index], K0, freq, params.rho, value0)
    cert["e0_stage1"] = _defect_record(start.error)

    # the literal lambda-form conditions, reported; the gate reads the
    # measured analogues off stage 1's solve, which runs before it applies
    c_value, strict = schedule.strict_conditions(start.error.norm_rho.value)
    cert["c_value"] = c_value
    cert["conditions_strict"] = strict

    # Newton cascade: stage 1 on the selected sequence entry (H itself for
    # a constant sequence), then the original H, each stage from the start
    # value its predecessor left
    stages: list[dict] = []
    tori = [K0]
    termination, failed_stage = "stage_cap", None
    for k in range(1, MAX_STAGES + 1):
        try:
            record, res, start = _run_stage(k, start, hamiltonian, K0, freq,
                                            schedule, params, c_value)
        except HypothesisError as exc:
            termination, failed_stage = f"{exc.status}_at_stage_{k}", k
            break
        if k == 1:
            gate = cert["conditions_measured"] = _measured_conditions(res, params.r)
            for condition in ("condition2", "condition3"):
                if not gate[condition + "_ok"]:
                    return _ended(K0, cert, condition + "_failed")
        methods["mu_k"].append(res.value.model.sup_method)
        stages.append(record)
        tori.append(res.torus)

        if res.status in ("diverged", *HYPOTHESIS_STATUSES):
            termination, failed_stage = f"{res.status}_at_stage_{k}", k
            break
        enough = len(tori) - 2 >= LEMMA4_GAPS
        if start.error.norm_grid <= params.target_error and enough:
            termination = "target_reached"
            break
        # a real floor, or a stage that the truncation cap held above tol
        if k > 1 and res.status in ("floored", "truncation_capped") and enough:
            termination = ("truncation_floor" if res.status == "floored"
                           else "truncation_capped")
            break

    gaps = [
        tori[i].difference(tori[i + 1]).strip_norm(params.rho / 4.0**i).value
        for i in range(1, len(tori) - 1)
    ]
    cert["torus_gaps"] = list(gaps)
    # stage i + 2 made gap i; a stage that took no Newton step kept its
    # start torus, so its gap carries no evidence of convergence
    informative = [g for g, rec in zip(gaps, stages[1:]) if rec["iterations"] > 0]
    evidence = {
        "informative_gaps": informative,
        "vacuous": sum(g > 0 for g in informative) < LEMMA4_GAPS,
    }
    if len(gaps) >= LEMMA4_GAPS:
        lemma4 = {**lemma4_check(gaps, l), **evidence}
    else:
        lemma4 = {"passed": False, "error": f"only {len(gaps)} gaps measured", **evidence}
    cert["lemma4"] = lemma4

    k_final = tori[-1]
    final_err = start.error.at(0.0)  # the last stage's value of H at k_final
    final_drift = k_final.difference(K0).strip_norm(params.rho / 2).value
    cert["final"] = {
        "error_vs_original_grid": final_err.norm_grid,
        "error_vs_original_coeff": final_err.norm_rho.value,
        **final_err.tail_record(),
        "drift": final_drift,
        "drift_within_r": bool(final_drift <= params.r),
        "drift_within_budget": bool(final_drift <= 4.0 * params.r / 3.0),
        "target_error": params.target_error,
        "target_met": bool(final_err.norm_grid <= params.target_error),
    }
    cert["termination_reason"] = termination
    cert["failed_stage"] = failed_stage
    cert["converged"] = bool(
        failed_stage is None
        and cert["final"]["target_met"]
        and cert["final"]["drift_within_r"]
        and lemma4.get("passed", False)
    )
    return RunResult(k_final, _jsonable(cert), stages)
