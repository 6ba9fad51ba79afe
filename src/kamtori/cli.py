"""Command-line front end: config files, subcommands, run directories.

Subcommands
-----------
solve        Newton iteration for an invariant torus; trace as JSON lines.
verify       a-posteriori check of a given torus: defect, nondegeneracy,
             smallness conditions.  No iteration.
smooth       cutoff extension plus approximant ladder; gap table as CSV.
diophantine  finite-horizon frequency scan; result as JSON.
run          full cascade (cutoff, smoothing, staged Newton, certificate).

A config file is one flat JSON object: the run knobs, whose defaults and
bounds live in driver.RunParams, beside the fields RunConfig adds (model
file, frequency, initial torus, truncation order, output directory).
The model file is read by hamiltonian.model_from_json, the one reader of
its format.
A config command takes that file (--config) and an output directory that
replaces the file's (--out), and no other flag.  Every invocation that
touches disk writes the echoed config next to its outputs, JSON is
emitted with sorted keys and no timestamps so reruns are byte-stable,
and exit codes are 0 (pass / convergence), 1 (certified failure or
rejected config), 2 (usage error, a flag other than those two among
them).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .diophantine import _TINY_GAMMA, FrequencyVector, check_diophantine
from .driver import (
    ConfigError,
    RunParams,
    _defect_record,
    _frequency,
    _jsonable,
    _sequence_record,
    _smoothness,
    kam_schedule,
    run_scheme,
    smoothing_ladder,
)
from .fourier import TorusEmbedding
from .hamiltonian import _is_integer, _is_number, model_from_json
from .smoothing import SAMPLE_RULE
from .solver import Iterate, check_horizon, solve_torus


@dataclass(frozen=True)
class RunConfig:
    """A validated config file: the run knobs plus what the CLI adds.

    params holds the run knobs with their defaults and bounds
    (driver.RunParams).  The other fields name the model file, the
    frequency, the initial torus (a torus CSV file, or the circle over
    y0, omega when None, at truncation order trunc) and the output
    directory.  to_json echoes the run's inputs as one flat document:
    every field but out, which names where a run writes, not what it
    computes.  model, torus and freq are what parse_config built from
    them to validate them, the ones every subcommand works on: the
    Hamiltonian, the initial torus and the run's FrequencyVector.  They
    are not echoed either.
    """

    hamiltonian: str
    omega: tuple
    params: RunParams
    torus_file: str | None = None
    y0: tuple | None = None
    trunc: int = 64
    out: str | None = None
    model: object = field(default=None, repr=False, compare=False)
    torus: TorusEmbedding | None = field(default=None, repr=False, compare=False)
    freq: FrequencyVector | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _UNECHOED and f.name != "out"}
        doc.update(asdict(self.params))
        return _json_text(doc)


_UNECHOED = frozenset({"params", "model", "torus", "freq"})
_CLI_KEYS = frozenset(f.name for f in fields(RunConfig)) - _UNECHOED
_PARAM_KEYS = frozenset(f.name for f in fields(RunParams))


def parse_config(path) -> RunConfig:
    """Read and validate a config file, reporting every violation at once.

    The file holds one JSON object, whose keys are the run knobs
    (driver.RunParams) and RunConfig's own fields.  The model file
    (hamiltonian.model_from_json) and the torus file are loaded, so a model
    it cannot build, or a torus file that does not parse or whose torus is
    not of the model's n, is one violation.  omega and y0 must be lists of
    finite numbers, one per degree of freedom of the model, as every real
    run knob must be finite (hamiltonian._is_number: within a float's range),
    and trunc an integer >= 1.  The smoothness class l, the model's own
    where the file gives none, must be >= 4 and within the model's class.  A
    config valid so far is then given its FrequencyVector, whose Diophantine
    scan may reject omega as one more violation, as may a torus order (the
    file's, or trunc) that reaches beyond the scan's horizon
    (solver.check_horizon), and then its initial torus: the file's, or the
    circle over y0, omega when None, built only past that check.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got {type(raw).__name__}"])

    bad = []
    for key in sorted(set(raw) - _CLI_KEYS - _PARAM_KEYS):
        bad.append(f"unknown key: {key}")

    for key in ("hamiltonian", "omega"):
        if key not in raw:
            bad.append(f"missing key: {key}")

    model = n = None
    ham = raw.get("hamiltonian")
    if ham is not None:
        ham = str(Path(ham).absolute())
        if not Path(ham).is_file():
            bad.append(f"hamiltonian file not found: {ham}")
        else:
            try:
                model = model_from_json(Path(ham).read_text())
            except Exception as exc:
                bad.append(f"hamiltonian file does not parse: {exc}")
            else:
                n = model.n
    torus_rows = None
    torus_file = raw.get("torus_file")
    if torus_file is not None:
        torus_file = str(Path(torus_file).absolute())
        if not Path(torus_file).is_file():
            bad.append(f"torus file not found: {torus_file}")
        else:
            try:  # its rows, folded onto a grid once their order passes
                torus_rows = TorusEmbedding.read_csv(Path(torus_file).read_text())
            except (ValueError, LookupError) as exc:
                bad.append(f"torus file does not parse: {exc}")
            else:
                shape = torus_rows[0].shape[::-1]
                if n is not None and shape != (n, 2 * n):
                    bad.append(f"torus file must embed T^{n} in R^{2 * n}, "
                               f"got T^{shape[0]} in R^{shape[1]}")

    vals = {k: raw[k] for k in _CLI_KEYS & set(raw)}
    vals["hamiltonian"] = ham
    vals["torus_file"] = torus_file
    listed = {"omega": raw["omega"]} if "omega" in raw else {}
    if raw.get("y0") is not None:
        listed["y0"] = raw["y0"]
    for key, value in listed.items():
        entries = value if isinstance(value, list) else [value]
        if not all(_is_number(v) for v in entries):
            bad.append(f"{key} must be a list of numbers, got {value}")
            continue
        vals[key] = tuple(float(v) for v in entries)
        if n is not None and len(vals[key]) != n:
            bad.append(f"{key} must have n = {n} components, got {len(vals[key])}")
    trunc = vals.get("trunc", RunConfig.trunc)
    if not _is_integer(trunc):
        bad.append(f"trunc must be an integer, got {trunc}")
    elif not trunc >= 1:
        bad.append(f"truncation order M must be >= 1, got {trunc}")

    knobs = {k: raw[k] for k in _PARAM_KEYS & set(raw)}
    try:
        params = RunParams(**knobs)
    except ConfigError as exc:
        bad.extend(exc.violations)
    else:
        if model is not None:  # l resolved against the model's class
            try:
                _smoothness(model, params.l)
            except ValueError as exc:
                bad.append(str(exc))
    sigma = knobs.get("sigma", RunParams.sigma)
    # sigma = n - 1 sits on the boundary where Diophantine vectors cease
    # to have full measure; the strict inequality is required
    if n is not None and _is_number(sigma) and not sigma > n - 1:
        bad.append(
            f"sigma must be strictly greater than n - 1 = {n - 1} "
            f"(Diophantine exponent bound), got {sigma}"
        )

    if bad:
        raise ConfigError(bad)
    try:
        freq = _frequency(np.array(vals["omega"]), params)
        check_horizon(n, trunc if torus_rows is None else torus_rows[-1], freq)
    except ValueError as exc:  # resonant, gamma above the scan's, K0 beyond the horizon
        raise ConfigError([str(exc)])
    # K0 is built once its order is inside the horizon
    if torus_rows is None:
        torus = TorusEmbedding.circle(np.array(vals.get("y0") or vals["omega"]), trunc)
    else:
        torus = TorusEmbedding.from_rows(*torus_rows)
    return RunConfig(params=params, model=model, torus=torus, freq=freq, **vals)


# -- artifact helpers ---------------------------------------------------------


def _json_text(doc) -> str:
    """A JSON-ready document as the artifact text: sorted keys, no timestamps."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, doc) -> None:
    path.write_text(_json_text(_jsonable(doc)))


def _prepare_out(cfg: RunConfig, override) -> Path:
    out = Path(override or cfg.out or "kamtori-run")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    return out


# -- subcommands --------------------------------------------------------------


def cmd_diophantine(args) -> int:
    try:
        omega = np.array([float(v) for v in args.omega.split(",")])
    except ValueError:
        raise ConfigError([f"omega must be comma-separated numbers, got {args.omega!r}"])
    # one scan: the worst margin does not depend on gamma and is the estimate
    gamma = _TINY_GAMMA if args.gamma is None else args.gamma
    try:
        report = check_diophantine(omega, gamma, args.sigma, args.horizon)
    except ValueError as exc:  # a flag out of bounds, checked before the scan
        raise ConfigError([str(exc)])
    doc = {
        "gamma_est": report.worst_margin,
        "worst_k": list(report.worst_k),
        "margin": report.worst_margin,
        "sigma": args.sigma,
        "horizon": args.horizon,
        "resonant": report.resonant,
    }
    code = 1 if report.resonant else 0
    if args.gamma is not None:
        doc.update(passed=report.passed, gamma=report.gamma)
        code = 0 if report.passed else 1
    print(json.dumps(_jsonable(doc), sort_keys=True))
    return code


def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    out = _prepare_out(cfg, args.out)
    H, K0, freq = cfg.model, cfg.torus, cfg.freq
    tol = cfg.params.tol if cfg.params.tol is not None else 1e-12
    # rho = 0 here: at the refined truncation orders the strip weighting
    # amplifies FFT floor noise, and bare solves gate on the grid error
    res = solve_torus(H, K0, freq, tol=tol, rho=0.0)
    with (out / "trace.jsonl").open("w") as fh:
        for rec in res.trace:
            fh.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    (out / "torus_final.csv").write_text(res.torus.to_csv())
    _write_json(
        out / "certificate.json",
        {
            "status": res.status,
            "error": res.error,
            "iterations": res.iterations,
            "tol": tol,
            "omega": list(freq.omega),
            "gamma": freq.gamma,
        },
    )
    return 0 if res.status == "converged" else 1


def cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    out = _prepare_out(cfg, args.out)
    H, K, freq = cfg.model, cfg.torus, cfg.freq
    l, _ = _smoothness(H, cfg.params.l)
    try:
        value = Iterate.evaluate(H, K, freq, cfg.params.rho)
        schedule = kam_schedule(value, H, freq.gamma, cfg.params, l)
    except ValueError as exc:  # a singular <S> or a rank-deficient DK
        _write_json(out / "certificate.json", {"passed": False, "error": str(exc)})
        return 1
    err, nd = value.error, value.frame
    c_value, conditions = schedule.strict_conditions(err.norm_rho.value)
    passed = bool(conditions["condition2_ok"] and conditions["condition3_ok"])
    _write_json(
        out / "certificate.json",
        {
            **_defect_record(err),
            "nondegeneracy": {
                "norm_dk": schedule.d0,
                "norm_n": schedule.v0,
                "norm_s_inv": schedule.tau0,
                "cond_dk": nd.frame.cond,
                "lagrangian_defect": nd.lagrangian_defect,
                "avg_s": nd.avg_s,
            },
            "mu0": schedule.mu0,
            # how mu0 was taken, as in the run certificate's c3_methods
            "c3_methods": {"rule": SAMPLE_RULE, "mu0": H.sup_method},
            "c_value": c_value,
            "conditions": conditions,
            "omega": list(freq.omega),
            "gamma": freq.gamma,
            "passed": passed,
        },
    )
    return 0 if passed else 1


def cmd_smooth(args) -> int:
    cfg = parse_config(args.config)
    out = _prepare_out(cfg, args.out)
    try:
        h0 = Iterate.evaluate(cfg.model, cfg.torus, cfg.freq, cfg.params.rho)
        _, seq = smoothing_ladder(h0, cfg.params)
    except ValueError as exc:
        _write_json(out / "certificate.json", {"passed": False, "error": str(exc)})
        return 1
    l, analytic = _smoothness(cfg.model, cfg.params.l)

    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["k", "degree", "c0_gap", "c3_gap", "bound"])
    for i, degree in enumerate(seq.degrees):
        has_gap = i < len(seq.gaps_c3)
        writer.writerow(
            [
                i,
                degree,
                repr(seq.gaps_c0[i]) if has_gap else "",
                repr(seq.gaps_c3[i]) if has_gap else "",
                repr(seq.bound(i)) if has_gap else "",
            ]
        )
    (out / "gaps.csv").write_text(rows.getvalue())

    for i, approx in enumerate(seq.history.get("rungs", [])):
        _write_json(
            out / f"approximant_{i}.json",
            {
                "degrees": list(approx.degrees),
                "basis": ["vallee_poussin"] * approx.dim,
                "box": {
                    "lo": list(approx.box.lo),
                    "hi": list(approx.box.hi),
                    "periodic": [bool(p) for p in approx.box.periodic],
                },
                "rank": approx.rank,
                # each half spectrum's modes as (re, im) pairs
                "factors": [np.stack([f.real, f.imag], axis=-1).tolist()
                            for f in approx.factors],
            },
        )
    _write_json(
        out / "certificate.json",
        {
            "passed": True,
            "analytic_input": analytic,
            "e0_rho": h0.error.norm_rho.value,
            **_sequence_record(seq),
            "l": l,
            "sigma": cfg.params.sigma,
        },
    )
    return 0


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = _prepare_out(cfg, args.out)
    res = run_scheme(cfg.model, cfg.torus, cfg.freq, cfg.params)

    # run_scheme hands over its stage records and certificate in JSON form
    stages_dir = out / "stages"
    stages_dir.mkdir(exist_ok=True)
    summaries = []
    for rec in res.stages:
        with (stages_dir / f"stage_{rec['stage']}.jsonl").open("w") as fh:
            for step in rec["trace"]:
                fh.write(json.dumps(step, sort_keys=True) + "\n")
        summaries.append({k: v for k, v in rec.items() if k != "trace"})
    cert = dict(res.certificate, stages=summaries)
    (out / "certificate.json").write_text(_json_text(cert))
    (out / "torus_final.csv").write_text(res.torus.to_csv())
    return 0 if res.converged else 1


# -- argument parsing ---------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamtori",
        description="Invariant torus solver and a-posteriori verifier.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="Newton iteration for one torus")
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("verify", help="a-posteriori checks, no iteration")
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("smooth", help="cutoff extension and approximant ladder")
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_smooth)

    sub = subs.add_parser("diophantine", help="finite-horizon frequency scan")
    sub.add_argument("--omega", required=True, help="comma-separated frequencies")
    sub.add_argument("--sigma", type=float, default=1.1)
    sub.add_argument("--horizon", type=int, default=10000)
    sub.add_argument("--gamma", type=float, default=None)
    sub.set_defaults(func=cmd_diophantine)

    sub = subs.add_parser("run", help="full cascade with certificate")
    _add_config_flags(sub)
    sub.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
