"""Orchestration of the full scheme for finitely differentiable Hamiltonians.

Pipeline: localize the rough part of H near the initial torus (cutoff),
build the analytic smoothing sequence, select the starting index k0 from
the measured inequality witnesses, then run a cascade of Newton solves at
shrinking strip widths: stage 1 against the selected smoothed model, the
remaining stages against the original H (once close enough, H's own
finitely many derivatives suffice for the quadratic iteration).  Every
stage records the drift, constant, and smallness bookkeeping (A1..A4),
the torus gaps feed the geometric-convergence check, and the whole run
is summarized in a deterministic certificate.

The proof-side constant c = lambda(mu, d, v, tau) is existential: no
explicit polynomial is available.  Certificates therefore always carry
the raw measured quantities plus both condition variants: the literal
lambda-form left-hand sides under a configurable spec (default
"mu * d**2 * v**2 * tau**2"), and measured analogues (observed quadratic
constant and step amplification of stage 1's first Newton step, read off
its solve's trace, so stage 1 runs before the gate; a stage 1 that takes
no step leaves them vacuous, and says so).  The default gate decision
uses the measured variant; "strict" mode gates on the literal one.  A
failed gate returns K0 with no stage records.

Each (model, torus) pair is evaluated once, into a solver.Iterate that
the stages pass on.  The ladder holds H's value at K0 and the schedule's
frame is the first approximant's value there (the ladder's on analytic
input); its tails are the C^3 distances to the cut target that its
construction bounded.  Stage 1 starts from the selected model's value
at K0, and stage k >= 2 from H's value at stage k-1's torus: the one
stage k-1's solve returned, or after a smoothed stage 1 a new one.  A
stage's d_k, v_k, tau_k and e_k are norms of its start value at rho_k,
the width its solve runs at; the final defect is the last stage's.  Every C^3 number (gaps, tails, mu0, mu_k) is a cl_bound from
per-axis factor sups, and the certificate's c3_methods names how each
was taken.  The CLI's smooth and verify commands call smoothing_ladder
and kam_schedule, the same code that run_scheme uses.
"""

from __future__ import annotations

import ast
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diophantine import FrequencyVector
from .fourier import TorusEmbedding
from .hamiltonian import Box
from .smoothing import (
    SAMPLE_RULE,
    SmoothingSequence,
    SmoothingUnachievable,
    build_smoothing_sequence,
    cl_bound,
    cutoff_extend,
)
from .solver import ErrorField, Iterate, SolveResult, check_horizon, solve_torus

__all__ = [
    "ConfigError",
    "DEFAULT_LAMBDA",
    "KamSchedule",
    "Ladder",
    "RunParams",
    "RunResult",
    "check_conditions",
    "eval_lambda",
    "kam_schedule",
    "lemma4_check",
    "run_scheme",
    "select_k0",
    "smoothing_ladder",
]

DEFAULT_LAMBDA = "mu * d**2 * v**2 * tau**2"

_LAMBDA_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def _power(base, exp) -> float:
    """base ** exp in floats, or an infinity where it overflows, as * gives."""
    base, exp = float(base), float(exp)
    try:
        return base ** exp
    except OverflowError:  # exp % 2 == 1 only for an odd integer exp
        return -math.inf if base < 0 and exp % 2 == 1 else math.inf


class _PowerCalls(ast.NodeTransformer):
    """Rewrites a ** b as _power(a, b)."""

    def visit_BinOp(self, node):
        node = self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            node = ast.Call(ast.Name("_power", ast.Load()), [node.left, node.right], [])
        return node


@lru_cache(maxsize=16)
def _compiled_lambda(spec: str):
    """The code of a spec, parsed and checked once per distinct string; a
    rejected spec raises on every call (lru_cache keeps no exception)."""
    tree = ast.parse(spec, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _LAMBDA_NODES):
            raise ValueError(f"lambda spec: unsupported element {type(node).__name__}")
        if isinstance(node, ast.Name) and node.id not in {"mu", "d", "v", "tau"}:
            raise ValueError(f"lambda spec: unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError("lambda spec: only numeric constants allowed")
    tree = ast.fix_missing_locations(_PowerCalls().visit(tree))
    return compile(tree, "<lambda-spec>", "eval")


def eval_lambda(spec: str, mu: float, d: float, v: float, tau: float) -> float:
    """Evaluate a user-supplied polynomial spec in mu, d, v, tau.

    Only arithmetic expressions over those four names and numeric
    constants are admitted; anything else raises.  Arithmetic is in
    floats, and a power that overflows gives an infinity, as a product
    does.
    """
    return float(eval(_compiled_lambda(spec), {"__builtins__": {}, "_power": _power},
                      {"mu": mu, "d": d, "v": v, "tau": tau}))


@dataclass(frozen=True)
class KamSchedule:
    """Stage widths, radii, and capped constants of the cascade.

    rho_k = rho / 2^(k-1), delta_k = rho_k / 12, r_k = r * 4^(-(l+sigma)(k-1)),
    delta0 = min(1, rho/12).  beta comes in two variants (the statement
    uses 2^(-4 sigma), the notation block 1/(2^(4 sigma) - 2^(2 sigma + 1)));
    both are exposed, the capped constants mu = mu0 + 1, d = d0 + beta,
    v = v0 + beta, tau = tau0 + beta + 1 use the notation-block variant.
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
        if self.l < 4:
            raise ValueError("smoothness class l must be >= 4")
        # sum r_k = r / (1 - 4^-(l+sigma)) <= (4/3) r needs 4^(l+sigma) >= 4
        if self.l + self.sigma < 1:
            raise ValueError("l + sigma < 1 breaks the drift envelope")

    @property
    def delta0(self) -> float:
        return min(1.0, self.rho / 12.0)

    @property
    def beta_statement(self) -> float:
        return self.gamma ** -2 * self.delta0 ** (2 * self.sigma - 1) * 2.0 ** (-4 * self.sigma)

    @property
    def beta_notation(self) -> float:
        den = 2.0 ** (4 * self.sigma) - 2.0 ** (2 * self.sigma + 1)
        if den <= 0:
            return math.inf
        return self.gamma ** -2 * self.delta0 ** (2 * self.sigma - 1) / den

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

    def strict_conditions(self, lambda_spec: str, e_norm: float) -> tuple[float, dict]:
        """(c, conditions): the literal lambda-form gate at defect norm e_norm."""
        c = eval_lambda(lambda_spec, self.mu, self.d, self.v, self.tau)
        return c, check_conditions(c, self.gamma, self.sigma, self.delta0, e_norm, self.r)


def check_conditions(
    c: float, gamma: float, sigma: float, delta0: float, e_norm: float, r: float
) -> dict:
    """Smallness conditions: c g^-4 d0^-4s |e| < 1 and c g^-2 d0^-2s |e| < r.

    A zero defect meets both for every positive c, an infinite one too
    (each lhs is 0).  A c that is not positive (a lambda-form that is not
    positive at the run's mu, d, v, tau) is no constant of the proof, and
    fails both (each lhs is inf).
    """
    if min(gamma, sigma, delta0, r) <= 0 or e_norm < 0:
        raise ValueError("gamma, sigma, delta0 and r must be positive, and e_norm >= 0")
    lhs2 = lhs3 = 0.0 if c > 0 else math.inf
    if c > 0 and e_norm > 0:
        lhs2 = c * gamma ** -4 * delta0 ** (-4 * sigma) * e_norm
        lhs3 = c * gamma ** -2 * delta0 ** (-2 * sigma) * e_norm
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
    Raises when no index qualifies, naming the blocking inequality.
    """
    m = len(seq.approximants)
    if tails is None:
        tails = [0.0] * m
    if len(tails) != m:
        raise ValueError("need one tail estimate per sequence entry")
    rate = seq.l + 2.0 * seq.sigma
    rows = []
    chosen = None
    for j in range(m):
        remaining = seq.gaps_c3[j:]
        worst_gap = max(remaining, default=0.0)
        tail_sum = tails[j] + sum(remaining)
        lhs8 = 2.0 * d**2 * v**2 * worst_gap * tau
        lhs9 = tails[j]
        lhs10 = 4.0 * d**2 * v**2 * tau**2 * (tails[j] + tail_sum)
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


def lemma4_check(gaps, l: int, slack: float = 1.5) -> dict:
    """Geometric-convergence test: gaps_k <= A 4^(-l k) with stable fit.

    gaps are ||K_k - K_{k+1}|| at widths rho/4^k, k = 1-based.  The fit
    A = max_k gap_k 4^(l k) passes when it is set by the first gap up to
    the slack factor: later gaps may not push the envelope up, otherwise
    the sequence decays slower than 4^(-l) per stage and the C^l limit
    argument does not apply.
    """
    gaps = [float(g) for g in gaps]
    if len(gaps) < 3:
        raise ValueError("need at least 3 gaps to test the envelope")
    scaled = [g * 4.0 ** (l * (k + 1)) for k, g in enumerate(gaps)]
    a_fit = max(scaled)
    passed = a_fit <= slack * scaled[0]
    return {
        "a_fit": a_fit,
        "per_stage": scaled,
        "gaps": gaps,
        "slack": slack,
        "passed": bool(passed),
    }


class ConfigError(ValueError):
    """Run description rejected; .violations lists every problem found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# RunParams knobs that count something; l may also be None
_INTEGER_KNOBS = ("horizon", "l", "max_iter", "max_stages", "min_tori", "count",
                  "start_degree", "max_degree")

# (message, test) per bound of a RunParams knob; a value the test cannot
# compare (a string for a number, None where a value is required) fails it
_BOUNDS = (
    ("rho must be positive, got {p.rho}", lambda p: p.rho > 0),
    ("r must be positive, got {p.r}", lambda p: p.r > 0),
    ("sigma must be positive, got {p.sigma}", lambda p: p.sigma > 0),
    ("gamma must be positive, got {p.gamma}", lambda p: p.gamma is None or p.gamma > 0),
    ("horizon must be >= 1, got {p.horizon}", lambda p: p.horizon >= 1),
    ("l must be at least 4, got {p.l}", lambda p: p.l is None or p.l >= 4),
    ("target_error must be positive, got {p.target_error}", lambda p: p.target_error > 0),
    ("tol must be positive, got {p.tol}", lambda p: p.tol is None or p.tol > 0),
    ("max_iter must be >= 1, got {p.max_iter}", lambda p: p.max_iter >= 1),
    ("max_stages must be >= 1, got {p.max_stages}", lambda p: p.max_stages >= 1),
    ("min_tori must be >= 0, got {p.min_tori}", lambda p: p.min_tori >= 0),
    ("count must be >= 1, got {p.count}", lambda p: p.count >= 1),
    # rung_nd needs degree 3 for the C^3 gaps it measures
    ("start_degree must be >= 3, got {p.start_degree}", lambda p: p.start_degree >= 3),
    ("max_degree must be >= start_degree = {p.start_degree}, got {p.max_degree}",
     lambda p: p.max_degree >= p.start_degree),
    ("condition_mode must be 'measured' or 'strict', got {p.condition_mode}",
     lambda p: p.condition_mode in ("measured", "strict")),
)


@dataclass(frozen=True)
class RunParams:
    """Knobs of run_scheme: the one place that holds their defaults and bounds.

    rho, r, sigma, gamma and l are the scheme's hypotheses: strip width,
    radius, Diophantine exponent and constant (estimated over horizon
    when None) and smoothness class (the model's when None).  target_error
    ends the cascade, tol (target_error when None) each stage's solve.
    The rest size the cascade and the smoothing ladder.
    Construction checks every knob and raises one ConfigError listing
    each violation; an integer knob must be an integer (not a bool) and is
    stored as an int.  Everything is echoed into the certificate.
    """

    rho: float = 0.05
    r: float = 0.35
    sigma: float = 1.1
    gamma: float | None = None
    horizon: int = 256
    l: int | None = None
    target_error: float = 1e-9
    tol: float | None = None
    max_iter: int = 12
    max_stages: int = 6
    min_tori: int = 4
    count: int = 2
    start_degree: int = 8
    max_degree: int = 4096
    condition_mode: str = "measured"
    lambda_spec: str = DEFAULT_LAMBDA

    def __post_init__(self):
        not_int = []
        for name in _INTEGER_KNOBS:
            value = getattr(self, name)
            if isinstance(value, numbers.Integral) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))
            elif not (name == "l" and value is None):
                not_int.append(name)
        bad = [f"{name} must be an integer, got {getattr(self, name)}" for name in not_int]
        for message, test in _BOUNDS:
            if any(f"{{p.{name}}}" in message for name in not_int):
                continue  # its non-integer knob is named above
            try:
                held = test(self)
            except TypeError:
                held = False
            if not held:
                bad.append(message.format(p=self))
        if not isinstance(self.lambda_spec, str):
            bad.append(f"lambda_spec must be a string, got {self.lambda_spec}")
        else:
            try:
                probe = eval_lambda(self.lambda_spec, 1.0, 1.0, 1.0, 1.0)
                if not math.isfinite(probe):
                    raise OverflowError("numerical result out of range at μ = d = v = τ = 1")
                if probe <= 0:
                    bad.append(f"lambda_spec must be positive, got {probe} at μ = d = v = τ = 1")
            except (ArithmeticError, SyntaxError, TypeError, ValueError) as exc:
                bad.append(f"lambda_spec does not evaluate: {exc}")
        if bad:
            raise ConfigError(bad)


@dataclass
class RunResult:
    """run_scheme's final torus, and its certificate and stage records in
    JSON form (_jsonable), ready to write."""

    torus: TorusEmbedding
    certificate: dict
    stages: list
    sequence: SmoothingSequence | None = None

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


def _hull_box(K: TorusEmbedding, margin: float) -> Box:
    """Box hull of the margin-neighborhood of the torus image (angles periodic)."""
    n = K.dim_domain
    pts = K.grid_samples().reshape(-1, 2 * n)
    lo = np.concatenate([np.zeros(n), pts[:, n:].min(axis=0) - margin])
    hi = np.concatenate([np.ones(n), pts[:, n:].max(axis=0) + margin])
    return Box(lo, hi, np.concatenate([np.ones(n, bool), np.zeros(n, bool)]))


def _c3_near(model, K: TorusEmbedding, margin: float) -> float:
    """C^3 bound of model on the box hull of K's margin-neighbourhood.

    Every model is a sum of products of 1-D functions, so cl_bound takes
    it from per-axis factor sups on the hull's intervals, with no grid
    over the box; model.sup_method names whether those are closed forms
    and coefficient bounds or sampled (SAMPLE_RULE).
    """
    return max(cl_bound([model], _hull_box(K, margin))[0])


def _defect_record(err: ErrorField) -> dict:
    """A defect's norms and its tail state.  solve_torus refines on two
    halves: tail_flag (ErrorField.genuine_tail) is the round-off half, and
    tail_sum, the tail's share of the strip norm, is held against tol."""
    return {
        "grid": err.norm_grid,
        "rho": err.norm_rho.value,
        "tail_flag": err.genuine_tail,
        "tail_max": err.norm_rho.tail_max,
        "tail_sum": err.norm_rho.tail_sum,
        "round_off": err.round_off,
    }


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
    if isinstance(omega, FrequencyVector):
        return omega
    if params.gamma is not None:
        return FrequencyVector(omega, params.gamma, params.sigma, params.horizon)
    return FrequencyVector.estimated(omega, params.sigma, params.horizon)


def _smoothness(hamiltonian, l: int | None) -> tuple[int, bool]:
    """(l, analytic): l defaults to 4 for analytic input, else to H's class."""
    smooth_cls = getattr(hamiltonian, "smoothness_class", math.inf)
    analytic = math.isinf(smooth_cls)
    if l is None:
        l = 4 if analytic else int(smooth_cls)
    if not analytic and l > smooth_cls:
        raise ValueError(f"requested l={l} exceeds the model's C^{smooth_cls}")
    return l, analytic


def _value(model, K: TorusEmbedding, freq: FrequencyVector, rho: float,
           *known: Iterate) -> Iterate:
    """The value of model at K: a known one of that pair, else a new one."""
    found = [v for v in known if v.model is model and v.K is K]
    return found[0] if found else Iterate.evaluate(model, K, freq, rho)


@dataclass(frozen=True)
class Ladder:
    """The smoothing side of a run.

    l is the resolved smoothness class, h0 the value of H at K0 (its
    defect's strip norm at rho anchors the sequence), h_ext the cut-off
    model (H itself for analytic input) and seq its approximant ladder.
    """

    l: int
    analytic_input: bool
    h0: Iterate
    h_ext: object
    seq: SmoothingSequence


def smoothing_ladder(hamiltonian, K0: TorusEmbedding, freq: FrequencyVector,
                     params: RunParams) -> Ladder:
    """Resolve l, evaluate H at K0, cut off and smooth the rough part."""
    l, analytic = _smoothness(hamiltonian, params.l)
    h0 = Iterate.evaluate(hamiltonian, K0, freq, params.rho)
    h_ext = hamiltonian
    if not analytic:
        h_ext = cutoff_extend(hamiltonian, K0, params.r, params.rho)
    seq = build_smoothing_sequence(
        h_ext, l, params.sigma, params.count, h0.error.norm_rho.value,
        start_degree=params.start_degree, max_degree=params.max_degree,
    )
    return Ladder(l, analytic, h0, h_ext, seq)


def kam_schedule(hamiltonian, K: TorusEmbedding, freq: FrequencyVector,
                 params: RunParams, ladder: Ladder | None = None
                 ) -> tuple[KamSchedule, Iterate]:
    """Schedule anchored at K, with the value its frame constants come from.

    d0, v0, tau0 are the frame's growth norms at rho and mu0 the C^3 norm
    within 2r of K.  Without a ladder both are measured on H itself; with
    one, built at K, the frame is that of its first approximant (the
    ladder's value of H on analytic input) and the norm that of its
    cut-off model.  The frame model's value at K is returned, for a gate
    or a solve that starts there.
    """
    known = ()
    if ladder is None:
        l, _ = _smoothness(hamiltonian, params.l)
        frame_model = norm_model = hamiltonian
    else:
        l, frame_model, norm_model = ladder.l, ladder.seq.approximants[0], ladder.h_ext
        known = (ladder.h0,)
    value = _value(frame_model, K, freq, params.rho, *known)
    nd = value.frame
    mu0 = _c3_near(norm_model, K, 2 * params.r)
    schedule = KamSchedule(
        rho=params.rho, r=params.r, l=l, sigma=params.sigma, gamma=freq.gamma,
        mu0=mu0, d0=nd.norm_dk, v0=nd.norm_n, tau0=nd.norm_s_inv,
    )
    return schedule, value


def run_scheme(hamiltonian, K0: TorusEmbedding, omega, params: RunParams) -> RunResult:
    """Full cascade for a C^l (or analytic) Hamiltonian; see module docstring.

    Analytic input bypasses cutoff and smoothing entirely (constant
    sequence), and the cascade degenerates to direct Newton solves whose
    first stage reproduces solve_torus on H itself.
    """
    freq = _frequency(omega, params)
    check_horizon(K0, freq)
    l, analytic_input = _smoothness(hamiltonian, params.l)

    # the certificate and every stage record go out in JSON form
    cert: dict = {
        "params": params.__dict__,
        "omega": freq.omega,
        "gamma": freq.gamma,
        "sigma": freq.sigma,
        "horizon": freq.horizon,
        "l": l,
        "lambda_spec": params.lambda_spec,
        "analytic_input": analytic_input,
    }
    stages: list[dict] = []

    try:
        ladder = smoothing_ladder(hamiltonian, K0, freq, params)
    except SmoothingUnachievable as exc:
        # the run ends here, as it does when no k0 is admissible
        cert["e0_original"] = _defect_record(
            Iterate.evaluate(hamiltonian, K0, freq, params.rho).error)
        cert["smoothing"] = {"error": str(exc)}
        cert["converged"] = False
        cert["termination_reason"] = "smoothing_unachievable"
        return RunResult(K0, _jsonable(cert), stages)
    seq = ladder.seq

    # initial defect of the original model, the anchor scale of the sequence
    e0_orig = ladder.h0.error
    cert["e0_original"] = _defect_record(e0_orig)
    e0_norm = e0_orig.norm_rho.value

    cert["smoothing"] = {
        "anchor_index": seq.anchor_index,
        "degrees": list(seq.degrees),
        "gaps_c3": list(seq.gaps_c3),
        "gaps_c0": list(seq.gaps_c0),
        "a_const": seq.a_const,
        "ladder_degrees": list(seq.history["ladder_degrees"]),
        "ladder_gaps_c3": list(seq.history["ladder_gaps_c3"]),
    }

    # each kept approximant's C^3 distance to the rough target, bounded
    # when the ladder was built
    tails = seq.tails_c3
    cert["tails_c3"] = list(tails)
    # how each C^3 number was taken; mu_k gets one entry per stage below
    methods = {
        "rule": SAMPLE_RULE,
        "gaps_c3": seq.methods["gaps"],
        "gaps_c0": seq.methods["gaps"],
        "ladder_gaps_c3": seq.methods["gaps"],
        "tails_c3": seq.methods["tails"],
        "mu0": ladder.h_ext.sup_method,
        "mu_k": [],
    }
    cert["c3_methods"] = methods

    # base quantities for the first sequence entry
    schedule, value0 = kam_schedule(hamiltonian, K0, freq, params, ladder)
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
        "rho_k": [schedule.rho_k(k) for k in range(1, params.max_stages + 1)],
        "delta_k": [schedule.delta_k(k) for k in range(1, params.max_stages + 1)],
        "r_k": [schedule.r_k(k) for k in range(1, params.max_stages + 1)],
        "drift_budget": schedule.drift_budget(params.max_stages),
    }

    try:
        k0_index, k0_rows = select_k0(
            seq, schedule.d, schedule.v, schedule.tau, e0_norm, tails
        )
        cert["k0"] = {"index": k0_index, "witnesses": k0_rows}
    except ValueError as exc:
        cert["k0"] = {"error": str(exc)}
        cert["converged"] = False
        cert["termination_reason"] = "no_admissible_k0"
        return RunResult(K0, _jsonable(cert), stages, seq)

    # the stage-1 model's value at K0 starts stage 1: the schedule's at
    # k0 = 0 and on analytic input, where every sequence entry is H itself
    start = _value(seq.approximants[k0_index], K0, freq, params.rho, value0)
    cert["e0_stage1"] = _defect_record(start.error)

    # gate: literal lambda-form conditions, and measured analogues read off
    # stage 1's solve, which runs before the gate applies
    c_value, strict = schedule.strict_conditions(
        params.lambda_spec, start.error.norm_rho.value
    )
    cert["c_value"] = c_value
    cert["conditions_strict"] = strict

    # Newton cascade: stage 1 on the smoothed model, then the original H,
    # each stage from the start value its predecessor left
    tol = params.tol if params.tol is not None else params.target_error
    tori = [K0]
    termination = "stage_cap"
    failed_stage = None
    for k in range(1, params.max_stages + 1):
        h_k, k_prev = start.model, start.K
        rho_k = schedule.rho_k(k)
        # refinement may not outgrow the certified Diophantine horizon
        res = solve_torus(
            h_k, k_prev, freq, tol=tol, max_iter=params.max_iter,
            max_trunc_order=freq.horizon, rho=rho_k, start=start,
        )
        if k == 1:
            measured = cert["conditions_measured"] = _measured_conditions(res, params.r)
            gate = strict if params.condition_mode == "strict" else measured
            for condition in ("condition2", "condition3"):
                if not gate[condition + "_ok"]:
                    cert["converged"] = False
                    cert["termination_reason"] = condition + "_failed"
                    return RunResult(K0, _jsonable(cert), stages, seq)

        r_prev = schedule.r_k(k - 1) if k > 1 else params.r
        # the defect and the frame's growth norms at the width the stage solved at
        e_k = start.error.at(rho_k).norm_rho.value
        nd_k = start.frame_at(rho_k)
        mu_k = _c3_near(h_k, k_prev, min(r_prev, 2 * params.r))
        methods["mu_k"].append(h_k.sup_method)
        c_k = eval_lambda(params.lambda_spec, mu_k, nd_k.norm_dk, nd_k.norm_n,
                          nd_k.norm_s_inv)
        delta_k = schedule.delta_k(k)
        small = check_conditions(c_k, freq.gamma, params.sigma, delta_k, e_k,
                                 schedule.r_k(k))

        k_new = res.torus
        step_norm = k_new.difference(k_prev).strip_norm(rho_k).value
        drift = k_new.difference(K0).strip_norm(schedule.rho_k(k + 1)).value
        drift_rhs = schedule.drift_budget(k)
        # H's value at k_new starts the next stage: the solve's own value,
        # except after a smoothed stage 1
        start = _value(hamiltonian, k_new, freq, rho_k, res.value)
        record = {
            "stage": k,
            "model": "smoothed" if k == 1 else "limit",
            "limit": k != 1,
            "rho_k": rho_k,
            "delta_k": delta_k,
            "r_k": schedule.r_k(k),
            "status": res.status,
            "iterations": res.iterations,
            "error_stage_model": res.error,
            "error_vs_original_grid": start.error.norm_grid,
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
            "d_k": nd_k.norm_dk,
            "v_k": nd_k.norm_n,
            "tau_k": nd_k.norm_s_inv,
            "step_norm": step_norm,
            "step_within_r_k": bool(step_norm <= schedule.r_k(k)),
            "measured_quadratic": _quadratic_constant(res),
            "trace": res.trace,
        }
        stages.append(_jsonable(record))
        tori.append(k_new)

        if res.status == "diverged":
            termination = f"diverged_at_stage_{k}"
            failed_stage = k
            break
        if params.condition_mode == "strict" and not (
            record["A1_ok"] and record["A2_ok"] and record["A3_ok"] and record["A4_ok"]
        ):
            termination = f"A_failed_at_stage_{k}"
            failed_stage = k
            break
        enough = len(tori) - 1 >= params.min_tori
        if start.error.norm_grid <= params.target_error and enough:
            termination = "target_reached"
            break
        if k > 1 and res.status == "floored" and enough:
            termination = "truncation_floor"
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
        "vacuous": sum(g > 0 for g in informative) < 3,
    }
    if len(gaps) >= 3:
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
        "tail_flag": final_err.genuine_tail,
        "tail_max": final_err.norm_rho.tail_max,
        "tail_sum": final_err.norm_rho.tail_sum,
        "round_off": final_err.round_off,
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
    return RunResult(k_final, _jsonable(cert), stages, seq)
