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
The override flags replace the file's keys before validation.  Every
invocation that touches disk writes the echoed config next to its
outputs, JSON is emitted with sorted keys and no timestamps so reruns are
byte-stable, and exit codes are 0 (pass / convergence), 1 (certified
failure or rejected config), 2 (usage error).
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
    _frequency,
    _jsonable,
    kam_schedule,
    run_scheme,
    smoothing_ladder,
)
from .fourier import TorusEmbedding
from .hamiltonian import (
    BSplineProfile,
    CompositeHamiltonian,
    HamiltonianModel,
    RoughTerm,
    SinPowerProfile,
)
from .smoothing import SAMPLE_RULE
from .solver import solve_torus


@dataclass(frozen=True)
class RunConfig:
    """A validated config file: the run knobs plus what the CLI adds.

    params holds the run knobs with their defaults and bounds
    (driver.RunParams).  The other fields name the model file, the
    frequency, the initial torus (a coefficient file, or the circle over
    y0, omega when None, at truncation order trunc) and the output
    directory.  to_json echoes all of them as one flat document.  model
    is the Hamiltonian parse_config built from the model file to validate
    it, the one every subcommand solves on; it is not echoed.
    """

    hamiltonian: str
    omega: tuple
    params: RunParams
    torus_file: str | None = None
    y0: tuple | None = None
    trunc: int = 64
    out: str | None = None
    model: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _UNECHOED}
        doc.update(asdict(self.params))
        return _json_text(doc)

    def load_torus(self) -> TorusEmbedding:
        if self.torus_file is not None:
            text = Path(self.torus_file).read_text()
            if self.torus_file.endswith(".json"):
                return TorusEmbedding.from_json(text)
            return TorusEmbedding.from_csv(text)
        y0 = self.y0 if self.y0 is not None else self.omega
        return TorusEmbedding.circle(np.asarray(y0, dtype=float), self.trunc)

    def frequency(self) -> FrequencyVector:
        return _frequency(np.asarray(self.omega, dtype=float), self.params)


def load_hamiltonian(path: str):
    """Model file: analytic terms plus optional finitely smooth summands.

    The base document is the {n, terms, smoothness_class} form; an optional
    "rough" list adds 1-D profile summands, each
    {coordinate, amplitude, profile: {type: bspline|sinpower, ...}}.
    """
    doc = json.loads(Path(path).read_text())
    rough_docs = doc.pop("rough", [])
    base = HamiltonianModel.from_json(json.dumps(doc))
    if not rough_docs:
        return base
    terms = []
    for rec in rough_docs:
        prof = rec["profile"]
        kind = prof.get("type")
        if kind == "bspline":
            profile = BSplineProfile(prof["coefficients"], prof.get("degree", 5))
        elif kind == "sinpower":
            profile = SinPowerProfile(
                prof.get("power", 4.5), prof.get("scale", 1.0), prof.get("shift", 0.0)
            )
        else:
            raise ConfigError([f"unknown rough profile type: {kind!r}"])
        terms.append(
            RoughTerm(int(rec["coordinate"]), profile, float(rec.get("amplitude", 1.0)))
        )
    return CompositeHamiltonian(analytic=base, rough=terms)


_UNECHOED = frozenset({"params", "model"})
_CLI_KEYS = frozenset(f.name for f in fields(RunConfig)) - _UNECHOED
_PARAM_KEYS = frozenset(f.name for f in fields(RunParams))


def parse_config(path, **overrides) -> RunConfig:
    """Read and validate a config file, reporting every violation at once.

    overrides (the command-line flags) replace the file's keys before
    anything is checked, so they meet the same bounds.  The model file is
    loaded, so a model it cannot build is one violation.  omega and y0
    must be numbers, one per degree of freedom of the model, and trunc an
    integer >= 1.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    raw.update(overrides)

    bad = []
    for key in sorted(set(raw) - _CLI_KEYS - _PARAM_KEYS - {"torus"}):
        bad.append(f"unknown key: {key}")

    torus_file, y0 = raw.get("torus_file"), raw.get("y0")
    torus = raw.get("torus")
    if torus is not None:
        if isinstance(torus, dict) and "file" in torus:
            torus_file = torus["file"]
        elif isinstance(torus, dict) and "circle" in torus:
            y0 = torus["circle"].get("y0")
        else:
            bad.append("torus must be {'file': path} or {'circle': {'y0': ...}}")

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
                model = load_hamiltonian(ham)
            except Exception as exc:
                bad.append(f"hamiltonian file does not parse: {exc}")
            else:
                n = model.n
    if torus_file is not None:
        torus_file = str(Path(torus_file).absolute())
        if not Path(torus_file).is_file():
            bad.append(f"torus file not found: {torus_file}")

    vals = {k: raw[k] for k in _CLI_KEYS & set(raw)}
    vals["hamiltonian"] = ham
    vals["torus_file"] = torus_file
    listed = {"omega": raw["omega"]} if "omega" in raw else {}
    if y0 is not None:
        listed["y0"] = y0
    for key, value in listed.items():
        try:
            vals[key] = tuple(float(v) for v in np.atleast_1d(value))
        except (TypeError, ValueError):
            bad.append(f"{key} must be a list of numbers, got {value}")
            continue
        if n is not None and len(vals[key]) != n:
            bad.append(f"{key} must have n = {n} components, got {len(vals[key])}")
    trunc = vals.get("trunc")
    if trunc is not None and (isinstance(trunc, bool) or not isinstance(trunc, int)):
        bad.append(f"trunc must be an integer, got {trunc}")
    elif trunc is not None and not trunc >= 1:
        bad.append(f"truncation order M must be >= 1, got {trunc}")

    knobs = {k: raw[k] for k in _PARAM_KEYS & set(raw)}
    try:
        params = RunParams(**knobs)
    except ConfigError as exc:
        bad.extend(exc.violations)
    sigma = knobs.get("sigma", RunParams.sigma)
    # sigma = n - 1 sits on the boundary where Diophantine vectors cease
    # to have full measure; the strict inequality is required
    if n is not None and isinstance(sigma, (int, float)) and not sigma > n - 1:
        bad.append(
            f"sigma must be strictly greater than n - 1 = {n - 1} "
            f"(Diophantine exponent bound), got {sigma}"
        )

    if bad:
        raise ConfigError(bad)
    return RunConfig(params=params, model=model, **vals)


# -- artifact helpers ---------------------------------------------------------


def _json_text(doc) -> str:
    """A JSON-ready document as the artifact text: sorted keys, no timestamps."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, doc) -> None:
    path.write_text(_json_text(_jsonable(doc)))


def _samples_csv(K: TorusEmbedding) -> str:
    """The torus on its sampling grid, one row per point: the angles, then
    the image, each as repr of a float.  No field needs quoting, so a row
    is its fields joined by commas, ended by csv's \\r\\n."""
    n, m = K.dim_domain, K.dim_range
    rows = np.concatenate([K.grid(None).reshape(-1, n),
                           K.grid_samples().reshape(-1, m)], axis=1)
    header = [f"theta{j}" for j in range(n)] + [f"z{j}" for j in range(m)]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows.tolist()]
    return "\r\n".join(lines) + "\r\n"


def _prepare_out(cfg: RunConfig, override) -> Path:
    out = Path(override or cfg.out or "kamtori-run")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    return out


def _load_config(args) -> RunConfig:
    """The config file named by --config, with the override flags applied."""
    flags = ("hamiltonian", "max_iter", "tol", "trunc")
    return parse_config(
        args.config, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    )


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
    cfg = _load_config(args)
    out = _prepare_out(cfg, args.out)
    H = cfg.model
    K0 = cfg.load_torus()
    freq = cfg.frequency()
    tol = cfg.params.tol if cfg.params.tol is not None else 1e-12
    # rho = 0 here: at the doubled truncation orders the strip weighting
    # amplifies FFT floor noise, and bare solves gate on the grid error
    res = solve_torus(
        H, K0, freq, tol=tol, max_iter=cfg.params.max_iter,
        max_trunc_order=cfg.params.horizon, rho=0.0,
    )
    with (out / "trace.jsonl").open("w") as fh:
        for rec in res.trace:
            fh.write(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    (out / "torus_final.csv").write_text(res.torus.to_csv())
    (out / "torus_samples.csv").write_text(_samples_csv(res.torus))
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
    cfg = _load_config(args)
    out = _prepare_out(cfg, args.out)
    H = cfg.model
    K = cfg.load_torus()
    freq = cfg.frequency()
    schedule, value = kam_schedule(H, K, freq, cfg.params)
    err, nd = value.error, value.frame
    c_value, conditions = schedule.strict_conditions(
        cfg.params.lambda_spec, err.norm_rho.value
    )
    passed = bool(conditions["condition2_ok"] and conditions["condition3_ok"])
    _write_json(
        out / "certificate.json",
        {
            "error_grid": err.norm_grid,
            "error_rho": err.norm_rho.value,
            "tail_flag": err.genuine_tail,
            "tail_max": err.norm_rho.tail_max,
            "tail_sum": err.norm_rho.tail_sum,
            "round_off": err.round_off,
            "nondegeneracy": {
                "norm_dk": nd.norm_dk,
                "norm_n": nd.norm_n,
                "norm_s_inv": nd.norm_s_inv,
                "cond_dk": nd.cond_dk,
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
    cfg = _load_config(args)
    out = _prepare_out(cfg, args.out)
    H = cfg.model
    K0 = cfg.load_torus()
    freq = cfg.frequency()
    try:
        ladder = smoothing_ladder(H, K0, freq, cfg.params)
    except ValueError as exc:
        _write_json(out / "certificate.json", {"passed": False, "error": str(exc)})
        return 1
    seq = ladder.seq

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
            "analytic_input": ladder.analytic_input,
            "e0_rho": ladder.h0.error.norm_rho.value,
            "anchor_index": seq.anchor_index,
            "degrees": list(seq.degrees),
            "gaps_c3": list(seq.gaps_c3),
            "gaps_c0": list(seq.gaps_c0),
            "a_const": seq.a_const,
            "l": ladder.l,
            "sigma": cfg.params.sigma,
        },
    )
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _prepare_out(cfg, args.out)
    H = cfg.model
    K0 = cfg.load_torus()
    res = run_scheme(H, K0, np.asarray(cfg.omega, dtype=float), cfg.params)

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
    (out / "torus_samples.csv").write_text(_samples_csv(res.torus))
    return 0 if res.converged else 1


# -- argument parsing ---------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--hamiltonian", default=None, help="model file (overrides config)")
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--trunc", type=int, default=None)


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
