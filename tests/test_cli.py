"""Config validation, subcommand dispatch, artifacts and exit codes."""

import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kamtori
import kamtori.cli as cli
import kamtori.diophantine as diophantine
import kamtori.driver as driver
from kamtori import FrequencyVector, HamiltonianModel, TorusEmbedding
from kamtori.cli import ConfigError, RunConfig, main, parse_config
from kamtori.solver import invariance_error, newton_step

from conftest import (ARITHMETIC_LAMBDAS, GOLDEN, REJECTED_IDS, REJECTED_KNOBS,
                      random_trig)

ROTATOR = {"n": 1, "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}]}
PENDULUM = {
    "n": 1,
    "terms": [
        {"k": [0], "m": [2], "re": 0.5, "im": 0.0},
        {"k": [1], "m": [0], "re": 5e-4, "im": 0.0},
    ],
}
STRONG = {
    "n": 1,
    "terms": [
        {"k": [0], "m": [2], "re": 0.5, "im": 0.0},
        {"k": [1], "m": [0], "re": 0.1, "im": 0.0},
    ],
}
ROUGH = {
    "n": 1,
    "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}],
    "rough": [
        {
            "coordinate": 0,
            "amplitude": 1e-4,
            "profile": {
                "type": "bspline",
                "coefficients": [0.0, 0.52, 0.55, 0.05, -0.48, -0.55],
                "degree": 5,
            },
        }
    ],
}


def tail_state_holders(doc, path=""):
    """Paths of the objects in doc that record tail_max or round_off."""
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from tail_state_holders(item, f"{path}[{i}]")
    elif isinstance(doc, dict):
        if {"tail_max", "round_off"} & doc.keys():
            yield path
        for key, value in doc.items():
            yield from tail_state_holders(value, f"{path}.{key}" if path else key)


def rough_model(coordinate=0, profile=None):
    """ROUGH with its rough term moved to coordinate or given another profile."""
    term = ROUGH["rough"][0]
    return dict(ROUGH, rough=[dict(term, coordinate=coordinate,
                                   profile=profile or term["profile"])])


@pytest.fixture
def write_files(tmp_path):
    def write(model, out_name, **extra):
        ham = tmp_path / "model.json"
        ham.write_text(json.dumps(model))
        doc = {
            "hamiltonian": str(ham),
            "omega": [GOLDEN],
            "y0": [GOLDEN],
            "out": str(tmp_path / out_name),
        }
        doc.update(extra)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        return cfg, tmp_path / out_name

    return write


class TestParseConfig:
    def test_minimal_fills_defaults(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out")
        cfg = parse_config(cfg_path)
        assert cfg.omega == (GOLDEN,)
        assert cfg.params.sigma == 1.1
        assert cfg.params.horizon == 256
        assert cfg.params.rho == 0.05
        assert cfg.params.r == 0.35
        assert cfg.trunc == 64
        assert cfg.params.max_iter == 12
        assert cfg.params.condition_mode == "measured"
        assert cfg.params.l is None and cfg.params.tol is None

    def test_sigma_boundary_named(self, write_files):
        # n = 1 so sigma = 0 sits exactly on the excluded boundary
        cfg_path, _ = write_files(PENDULUM, "out", sigma=0.0)
        with pytest.raises(ConfigError, match="sigma.*strictly greater"):
            parse_config(cfg_path)

    def test_all_violations_reported_at_once(self, write_files):
        cfg_path, _ = write_files(
            PENDULUM, "out", gamma=-1.0, rho=0.0, l=3, max_iter=0, bogus=1
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        text = str(exc.value)
        assert len(exc.value.violations) >= 5
        for frag in ("gamma", "rho", "l must be", "max_iter", "unknown key: bogus"):
            assert frag in text

    @pytest.mark.parametrize("knobs, violation", REJECTED_KNOBS, ids=REJECTED_IDS)
    def test_knob_rejection_named(self, write_files, knobs, violation):
        cfg_path, _ = write_files(PENDULUM, "out", **knobs)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        [named] = exc.value.violations
        assert named.startswith(violation)

    @pytest.mark.parametrize("spec, fragment", ARITHMETIC_LAMBDAS,
                             ids=[s for s, _ in ARITHMETIC_LAMBDAS])
    def test_lambda_arithmetic_error_exits_1(self, write_files, capsys, spec, fragment):
        cfg_path, out = write_files(PENDULUM, "out", lambda_spec=spec)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: lambda_spec does not evaluate: ")
        assert fragment in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode, code", [("strict", 1), ("measured", 0)])
    def test_lambda_overflowing_at_run_time_ends_with_a_certificate(
            self, write_files, mode, code):
        # c = (mu + 1)**1000 is finite at the probe and infinite at the run's mu
        cfg_path, out = write_files(ROUGH, "out", y0=[0.4], rho=0.02, r=0.8,
                                    target_error=1e-8, lambda_spec="(mu+1)**1000",
                                    condition_mode=mode)
        assert main(["run", "--config", str(cfg_path)]) == code
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["c_value"] == "inf"
        assert cert["termination_reason"] == (
            "condition2_failed" if mode == "strict" else "target_reached")

    def test_nonpositive_lambda_at_run_time_ends_with_a_certificate(self, write_files):
        # c = 2 - mu is 1 at the probe and negative at the run's mu
        cfg_path, out = write_files(ROUGH, "out", y0=[0.4], rho=0.02, r=0.8,
                                    target_error=1e-8, lambda_spec="2 - mu",
                                    condition_mode="strict")
        assert main(["run", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["c_value"] < 0
        assert cert["conditions_strict"]["condition2_lhs"] == "inf"
        assert cert["termination_reason"] == "condition2_failed"

    def test_missing_keys_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{}")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        assert "missing key: hamiltonian" in exc.value.violations
        assert "missing key: omega" in exc.value.violations

    def test_missing_files_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"hamiltonian": "/nope.json", "omega": [0.5]}))
        with pytest.raises(ConfigError, match="hamiltonian file not found"):
            parse_config(p)
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path / "absent.json")

    def test_invalid_lambda_rejected(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out", lambda_spec="mu * open('x')")
        with pytest.raises(ConfigError, match="lambda_spec"):
            parse_config(cfg_path)

    def test_torus_block_forms(self, write_files, tmp_path):
        cfg_path, _ = write_files(PENDULUM, "out", torus={"circle": {"y0": [0.3]}})
        assert parse_config(cfg_path).y0 == (0.3,)
        cfg_path2, _ = write_files(PENDULUM, "out", torus={"spin": 1})
        with pytest.raises(ConfigError, match="torus must be"):
            parse_config(cfg_path2)

    CLI_FIELDS = [
        ({"trunc": "x"}, "trunc must be an integer, got x"),
        ({"trunc": 2.5}, "trunc must be an integer, got 2.5"),
        ({"omega": ["a"]}, "omega must be a list of numbers, got ['a']"),
        ({"y0": [0.1, 0.2]}, "y0 must have n = 1 components, got 2"),
        ({"omega": [GOLDEN, 0.3]}, "omega must have n = 1 components, got 2"),
        ({"torus": {"circle": {"y0": [None]}}}, "y0 must be a list of numbers, got [None]"),
    ]
    CLI_IDS = ["trunc=x", "trunc=2.5", "omega=a", "y0-2dof", "omega-2dof", "circle-y0"]

    @pytest.mark.parametrize("fields, violation", CLI_FIELDS, ids=CLI_IDS)
    def test_cli_field_rejection_named(self, write_files, fields, violation):
        cfg_path, _ = write_files(PENDULUM, "out", **fields)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        assert exc.value.violations == [violation]

    @pytest.mark.parametrize("fields, violation", CLI_FIELDS, ids=CLI_IDS)
    def test_cli_field_rejected_before_any_output(self, write_files, capsys,
                                                  fields, violation):
        cfg_path, out = write_files(PENDULUM, "out", **fields)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert not out.exists()

    BAD_MODELS = [
        (rough_model(2), "rough term coordinate 2 outside [0, 2) for n=1"),
        (rough_model(-1), "rough term coordinate -1 outside [0, 2) for n=1"),
        (rough_model(profile={"type": "sinpower", "power": 4.0}),
         "power must exceed 4 for C^4 regularity"),
    ]

    @pytest.mark.parametrize("model, reason", BAD_MODELS,
                             ids=["coordinate=2", "coordinate=-1", "sinpower-power=4"])
    def test_bad_model_rejected_before_any_output(self, write_files, capsys,
                                                  model, reason):
        cfg_path, out = write_files(model, "out", y0=[0.4], rho=0.02, r=0.8)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: hamiltonian file does not parse: {reason}\n"
        assert not out.exists()

    def test_echo_round_trips(self, write_files):
        cfg_path, out = write_files(ROTATOR, "echo", trunc=16)
        cfg = parse_config(cfg_path)
        assert main(["verify", "--config", str(cfg_path)]) == 0
        echoed = parse_config(out / "config.json")
        assert echoed == cfg


class TestDispatch:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2

    def test_config_error_exits_1(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{}")
        assert main(["solve", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "config error: missing key: hamiltonian" in err

    def test_verify_exact_rotator(self, write_files):
        cfg_path, out = write_files(ROTATOR, "verify", trunc=16)
        assert main(["verify", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["error_grid"] == 0.0
        assert cert["error_rho"] == 0.0
        assert cert["nondegeneracy"]["lagrangian_defect"] == 0.0
        assert cert["passed"]
        assert cert["conditions"]["condition2_ok"]
        # |y|^2/2 has closed-form factor sups: mu0 is a bound outright
        assert cert["c3_methods"]["mu0"] == "coefficient_bound"
        assert (out / "config.json").is_file()

    def test_solve_pendulum_artifacts(self, write_files):
        cfg_path, out = write_files(PENDULUM, "solve")
        assert main(["solve", "--config", str(cfg_path)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "config.json",
            "certificate.json",
            "trace.jsonl",
            "torus_final.csv",
            "torus_samples.csv",
        } <= names
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) >= 2
        # stored mode amplitude 5e-4 means eps = 1e-3 after reality folding
        first = json.loads(lines[0])
        assert first["error"] == pytest.approx(2 * np.pi * 1e-3, rel=1e-3)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["status"] == "converged"
        assert cert["error"] < 1e-12

    def test_solve_samples_csv_shape(self, write_files):
        cfg_path, out = write_files(PENDULUM, "solve2", trunc=32)
        assert main(["solve", "--config", str(cfg_path)]) == 0
        rows = (out / "torus_samples.csv").read_text().splitlines()
        assert rows[0] == "theta0,z0,z1"
        # odd sample grid at the final (possibly doubled) truncation order
        assert len(rows) >= 1 + 65 and (len(rows) - 1) % 2 == 1

    def test_run_gate_failure_names_condition(self, write_files):
        cfg_path, out = write_files(STRONG, "gate", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["termination_reason"] == "condition2_failed"
        assert cert["stages"] == []
        assert cert["conditions_measured"]["condition2_lhs"] > 1.0

    def test_run_unachievable_ladder_writes_its_certificate(self, write_files):
        # at y0 = golden no ladder gap up to degree 16 reaches the defect
        cfg_path, out = write_files(ROUGH, "ladder", rho=0.02, r=0.8, target_error=1e-8,
                                    max_degree=16)
        assert main(["run", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is False
        assert cert["termination_reason"] == "smoothing_unachievable"
        assert "unachievable at max degree 16" in cert["smoothing"]["error"]
        assert cert["e0_original"]["rho"] > 0
        assert cert["stages"] == []
        assert (out / "torus_final.csv").is_file()

    def test_run_pendulum_full_artifacts(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"]
        assert cert["termination_reason"] == "target_reached"
        stage_files = sorted(p.name for p in (out / "stages").iterdir())
        assert stage_files == [f"stage_{r['stage']}.jsonl" for r in cert["stages"]]
        assert (out / "torus_final.csv").is_file()

    def test_run_stage_traces_record_tail_state(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        keys = {"tail_flag", "tail_max", "round_off"}
        rows = [json.loads(line)
                for path in sorted((out / "stages").iterdir())
                for line in path.read_text().splitlines()]
        assert rows and all(keys <= row.keys() for row in rows)
        # per-iterate rows stay out of the certificate: the tail state it
        # records is that of the three defects it summarizes
        cert = json.loads((out / "certificate.json").read_text())
        assert set(tail_state_holders(cert)) == {"e0_original", "e0_stage1", "final"}

    def test_run_tail_flag_ignores_a_round_off_tail(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        final = json.loads((out / "certificate.json").read_text())["final"]
        assert final["tail_flag"] is False
        assert 0 < final["tail_max"] < final["round_off"]
        # the spectral tail of the final defect trips on round-off alone
        K = TorusEmbedding.from_csv((out / "torus_final.csv").read_text())
        err = invariance_error(HamiltonianModel.pendulum(1e-3), K, np.array([GOLDEN]))
        assert err.tail_flag and not err.genuine_tail

    def test_verify_tail_flag_reports_a_genuine_tail(self, write_files, tmp_path):
        # one Newton step from the circle at M = 8 leaves a tail of real modes
        freq = FrequencyVector.estimated(np.array([GOLDEN]), 1.1, 256)
        K, _ = newton_step(HamiltonianModel.pendulum(1e-3),
                           TorusEmbedding.circle(np.array([GOLDEN]), 8), freq)
        torus = tmp_path / "torus.csv"
        torus.write_text(K.to_csv())
        cfg_path, out = write_files(PENDULUM, "verify", torus_file=str(torus))
        main(["verify", "--config", str(cfg_path)])
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["tail_flag"] is True
        assert cert["tail_max"] > 10 * cert["round_off"]

    def test_smooth_rough_ladder(self, write_files):
        cfg_path, out = write_files(
            ROUGH, "smooth", y0=[0.4], rho=0.02, r=0.8, count=2
        )
        assert main(["smooth", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] and not cert["analytic_input"]
        assert cert["degrees"][0] == 8
        assert len(cert["gaps_c3"]) == len(cert["degrees"]) - 1
        rows = (out / "gaps.csv").read_text().splitlines()
        assert rows[0] == "k,degree,c0_gap,c3_gap,bound"
        assert len(rows) == 1 + len(cert["degrees"])
        first = rows[1].split(",")
        assert float(first[3]) == cert["gaps_c3"][0]
        assert float(first[3]) <= float(first[4])
        # factored payload: per axis V_N's (rank, 2N) half spectrum as
        # (re, im) pairs
        doc = json.loads((out / "approximant_0.json").read_text())
        N = cert["degrees"][0]
        assert doc["degrees"] == [N] * 2
        assert doc["basis"] == ["vallee_poussin"] * 2
        assert doc["rank"] == 1
        assert [np.shape(f) for f in doc["factors"]] == [(1, 2 * N, 2)] * 2
        # README's formula on the payload is the ladder's first rung
        from kamtori.driver import smoothing_ladder

        cfg = parse_config(cfg_path)
        rung = smoothing_ladder(cfg.model, cfg.load_torus(),
                                cfg.frequency(), cfg.params).seq.history["rungs"][0]
        lo, hi = np.array(doc["box"]["lo"]), np.array(doc["box"]["hi"])
        z = lo + (hi - lo) * np.random.default_rng(0).uniform(0, 1, (50, 2))
        t = (z - lo) / (hi - lo)
        angle, action = ((np.exp(2j * np.pi * np.outer(t[:, i], np.arange(2 * N)))
                          @ (pairs[:, 0] + 1j * pairs[:, 1])).real
                         for i, pairs in enumerate(np.array(f[0]) for f in doc["factors"]))
        assert np.max(np.abs(angle * action - rung(z))) <= 1e-12 * np.max(np.abs(rung(z)))

    def test_smooth_analytic_input_short_circuit(self, write_files):
        cfg_path, out = write_files(PENDULUM, "smooth_an", count=3)
        assert main(["smooth", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["analytic_input"]
        assert cert["gaps_c3"] == [0.0, 0.0]
        assert cert["a_const"] == 0.0

    @pytest.mark.parametrize("command, model, extra", [
        ("run", ROUGH, {"y0": [0.4], "rho": 0.02, "r": 0.8, "target_error": 1e-8}),
        ("solve", PENDULUM, {}),
    ], ids=["run-rough", "solve-pendulum"])
    def test_commands_leave_scipy_unloaded(self, write_files, command, model, extra):
        cfg_path, out = write_files(model, command, **extra)
        code = (
            "import sys\n"
            "from kamtori.cli import main\n"
            f"status = main([{command!r}, '--config', {str(cfg_path)!r}])\n"
            "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
            "sys.exit(status)\n"
        )
        src = str(Path(kamtori.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cert = json.loads((out / "certificate.json").read_text())
        if command == "run":
            # the rough model took the Bernstein ladder
            assert not cert["analytic_input"] and cert["smoothing"]["degrees"][0] == 8
            assert cert["converged"]

    def test_diophantine_json_report(self, capsys):
        assert main(["diophantine", "--omega", str(GOLDEN), "--sigma", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_est"] == pytest.approx(0.3819660112501051, abs=1e-15)
        assert doc["worst_k"] == [1]
        assert doc["horizon"] == 10000
        assert doc["resonant"] is False

    def test_diophantine_resonant_rejected(self, capsys):
        code = main(
            ["diophantine", "--omega", "0.5", "--gamma", "0.3", "--sigma", "1.0"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["passed"]
        assert doc["worst_k"] == [2]
        assert doc["margin"] == 0.0
        assert doc["resonant"]

    def test_diophantine_resonant_estimate_reports(self, capsys):
        argv = ["diophantine", "--omega", "1,2", "--sigma", "1.1", "--horizon", "5"]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["resonant"] is True
        assert doc["gamma_est"] == doc["margin"] == 0.0
        assert doc["worst_k"] == [2, -1]
        assert "passed" not in doc

    @pytest.mark.parametrize(
        "extra", [[], ["--gamma", "0.01"]], ids=["estimate", "gamma"]
    )
    def test_diophantine_scans_once(self, monkeypatch, capsys, extra):
        calls = []
        scan = diophantine._scan

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(diophantine, "_scan", counted)
        omega = f"{GOLDEN},{math.sqrt(2.0) - 1.0}"
        argv = ["diophantine", "--omega", omega, "--sigma", "1.1", "--horizon", "64"]
        assert main(argv + extra) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_est"] == doc["margin"]
        assert doc["worst_k"] == [2, -3]

    @pytest.mark.parametrize("flags, violation", [
        (["--omega", "0.6,0.4", "--horizon", "0"], "horizon must be >= 1"),
        (["--omega", "0.6,0.4", "--sigma", "-1"], "sigma must exceed n - 1 = 1, got -1.0"),
        (["--omega", "0.6,0.4", "--gamma", "-1"], "gamma must be positive"),
        (["--omega", "0,0"], "omega must be a finite nonzero vector"),
        (["--omega", "0.618,abc"],
         "omega must be comma-separated numbers, got '0.618,abc'"),
    ], ids=["horizon=0", "sigma=-1", "gamma=-1", "omega=0,0", "omega=abc"])
    def test_diophantine_bad_flag_named(self, capsys, flags, violation):
        assert main(["diophantine", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {violation}\n"


ROUGH_KNOBS = {"y0": [0.4], "rho": 0.02, "r": 0.8, "target_error": 1e-8}


class TestComputedOnce:
    """Each quantity of a command is computed once per invocation."""

    @pytest.mark.parametrize("command, model, extra", [
        ("run", ROUGH, ROUGH_KNOBS),
        ("solve", PENDULUM, {}),
        ("verify", ROTATOR, {"trunc": 16}),
        ("smooth", ROUGH, ROUGH_KNOBS),
    ], ids=["run", "solve", "verify", "smooth"])
    def test_one_model_build_per_command(self, write_files, monkeypatch, command,
                                         model, extra):
        builds = []
        load = cli.load_hamiltonian

        def counted(path):
            builds.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_hamiltonian", counted)
        cfg_path, out = write_files(model, command, **extra)
        assert main([command, "--config", str(cfg_path)]) == 0
        assert len(builds) == 1
        assert "model" not in json.loads((out / "config.json").read_text())

    def test_one_lambda_parse_per_run(self, write_files, monkeypatch):
        spec = "1.0 * mu * d**2 * v**2 * tau**2"
        parses = []
        parse = ast.parse

        def counted(source, *args, **kwargs):
            if source == spec:
                parses.append(source)
            return parse(source, *args, **kwargs)

        driver._compiled_lambda.cache_clear()
        monkeypatch.setattr(ast, "parse", counted)
        cfg_path, out = write_files(ROUGH, "run", lambda_spec=spec, **ROUGH_KNOBS)
        assert main(["run", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        # the gate's c and every stage's c_k evaluated the spec
        assert cert["lambda_spec"] == spec and len(cert["stages"]) >= 2
        assert len(parses) == 1

    @pytest.mark.parametrize("n, trunc", [(1, 5), (2, 3)])
    def test_samples_csv_matches_csv_writer(self, n, trunc):
        rng = np.random.default_rng(n)
        K = TorusEmbedding.circle(rng.random(n), trunc)
        K = K.with_periodic(K.periodic + random_trig(rng, n, trunc, (2 * n,)).scaled(1e-3))
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow([f"theta{j}" for j in range(n)] + [f"z{j}" for j in range(2 * n)])
        for t, v in zip(K.grid(None).reshape(-1, n), K.grid_samples().reshape(-1, 2 * n)):
            writer.writerow([repr(float(x)) for x in t] + [repr(float(x)) for x in v])
        assert cli._samples_csv(K) == out.getvalue()


class TestSharedDriverPath:
    """smooth and verify report what run measures on the same config."""

    def test_verify_matches_run_on_analytic_input(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        # the literal gate fails here; the check is that both paths agree
        assert main(["verify", "--config", str(cfg_path), "--out", str(out / "v")]) == 1
        run = json.loads((out / "certificate.json").read_text())
        ver = json.loads((out / "v" / "certificate.json").read_text())
        assert ver["conditions"] == run["conditions_strict"]
        assert ver["c_value"] == run["c_value"]
        assert ver["mu0"] == run["schedule"]["mu0"]

    def test_smooth_matches_run_on_rough_input(self, write_files):
        cfg_path, out = write_files(ROUGH, "run", y0=[0.4], rho=0.02, r=0.8,
                                    target_error=1e-8)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["smooth", "--config", str(cfg_path), "--out", str(out / "s")]) == 0
        run = json.loads((out / "certificate.json").read_text())["smoothing"]
        smooth = json.loads((out / "s" / "certificate.json").read_text())
        for key in ("degrees", "gaps_c3", "a_const", "anchor_index"):
            assert smooth[key] == run[key], key


class TestOverrides:
    def test_flag_overrides_apply(self, write_files, tmp_path):
        cfg_path, out = write_files(PENDULUM, "ovr")
        alt = tmp_path / "alt.json"
        alt.write_text(json.dumps(ROTATOR))
        code = main(
            [
                "solve",
                "--config",
                str(cfg_path),
                "--hamiltonian",
                str(alt),
                "--max-iter",
                "3",
                "--tol",
                "1e-10",
                "--trunc",
                "16",
            ]
        )
        assert code == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["hamiltonian"] == str(alt)
        assert echoed["max_iter"] == 3
        assert echoed["tol"] == 1e-10
        assert echoed["trunc"] == 16
        # rotator at the exact circle: zero error, zero iterations
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["error"] == 0.0
        assert cert["iterations"] == 0

    @pytest.mark.parametrize(
        "flag, value, violation",
        [
            ("--max-iter", "0", "max_iter must be >= 1, got 0"),
            ("--tol", "-1", "tol must be positive, got -1.0"),
            ("--trunc", "0", "truncation order M must be >= 1, got 0"),
        ],
        ids=["max_iter", "tol", "trunc"],
    )
    def test_flag_overrides_validated(self, write_files, capsys, flag, value, violation):
        cfg_path, out = write_files(PENDULUM, "ovr")
        assert main(["solve", "--config", str(cfg_path), flag, value]) == 1
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert not out.exists()

    def test_out_flag_overrides_config(self, write_files, tmp_path):
        cfg_path, _ = write_files(ROTATOR, "ignored", trunc=16)
        alt_out = tmp_path / "elsewhere"
        assert main(["verify", "--config", str(cfg_path), "--out", str(alt_out)]) == 0
        assert (alt_out / "certificate.json").is_file()
        assert not (tmp_path / "ignored").exists()


class TestRunConfigHelpers:
    def test_to_json_key_order_stable(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out")
        cfg = parse_config(cfg_path)
        assert cfg.to_json() == cfg.to_json()
        keys = list(json.loads(cfg.to_json()))
        assert keys == sorted(keys)

    def test_frequency_prefers_explicit_gamma(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out", gamma=0.3, sigma=1.0)
        freq = parse_config(cfg_path).frequency()
        assert freq.gamma == 0.3
        cfg_path2, _ = write_files(PENDULUM, "out", sigma=1.0, horizon=10000)
        est = parse_config(cfg_path2).frequency()
        assert est.gamma == pytest.approx(0.3819660112501051, abs=1e-15)

    def test_load_torus_circle_default(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out", trunc=16)
        K = parse_config(cfg_path).load_torus()
        assert K.dim_domain == 1 and K.dim_range == 2
        theta = np.array([[0.25]])
        assert K(theta)[0] == pytest.approx([0.25, GOLDEN], abs=1e-14)
