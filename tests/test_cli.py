"""Config validation, subcommand dispatch, artifacts and exit codes."""

import argparse
import dataclasses
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
import kamtori.smoothing as smoothing
from kamtori import FrequencyVector, HamiltonianModel, TorusEmbedding
from kamtori.cli import ConfigError, RunConfig, main, parse_config
from kamtori.driver import LADDER_COUNT
from kamtori.solver import invariance_error, newton_step

from conftest import GOLDEN, REJECTED_IDS, REJECTED_KNOBS

ROTATOR = {"n": 1, "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}]}
ROTOR2 = {"n": 2, "terms": [{"k": [0, 0], "m": [2, 0], "re": 0.5, "im": 0.0},
                            {"k": [0, 0], "m": [0, 2], "re": 0.5, "im": 0.0}]}
SILVER = math.sqrt(2.0) - 1.0
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


# a model and torus on which a Newton step does not exist, the message
# that names the failed hypothesis and the status solve and run give it
FAILED_HYPOTHESES = [
    # H = omega y + 1e-3 cos 2 pi x has no twist: <S> = 0 up to round-off
    ({"n": 1, "terms": [{"k": [0], "m": [1], "re": GOLDEN, "im": 0.0},
                        {"k": [1], "m": [0], "re": 5e-4, "im": 0.0}]},
     None, "averaged torsion <S> is singular: smallest singular value ",
     "torsion_singular"),
    # a torus of winding 0 has DK = 0
    (PENDULUM, "# winding=0 0", "DK rank-deficient on grid: cond(DK^T DK) = inf",
     "dk_rank_deficient"),
]


TAIL_KEYS = {"tail_max", "tail_sum", "tail_beyond", "round_off"}


def tail_keys(record: dict) -> set:
    """The keys of a record that report its defect's tail."""
    return {key for key in record if key.startswith("tail") or key == "round_off"}


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
        assert cfg.params.l is None and cfg.params.tol is None

    def test_sigma_boundary_named(self, write_files):
        # n = 1 so sigma = 0 sits exactly on the excluded boundary
        cfg_path, _ = write_files(PENDULUM, "out", sigma=0.0)
        with pytest.raises(ConfigError, match="sigma.*strictly greater"):
            parse_config(cfg_path)

    def test_all_violations_reported_at_once(self, write_files):
        cfg_path, _ = write_files(
            PENDULUM, "out", gamma=-1.0, rho=0.0, l=3, horizon=0, bogus=1
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        text = str(exc.value)
        assert len(exc.value.violations) >= 5
        for frag in ("gamma", "rho", "l must be", "horizon", "unknown key: bogus"):
            assert frag in text

    @pytest.mark.parametrize("knobs, violation", REJECTED_KNOBS, ids=REJECTED_IDS)
    def test_knob_rejection_named(self, write_files, knobs, violation):
        cfg_path, _ = write_files(PENDULUM, "out", **knobs)
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        [named] = exc.value.violations
        assert named.startswith(violation)

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
        # the lambda-form is fixed and reported, so no spec of it is a key
        cfg_path, _ = write_files(PENDULUM, "out", lambda_spec="mu * d**2 * v**2 * tau**2")
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_path)
        assert exc.value.violations == ["unknown key: lambda_spec"]

    def test_torus_block_forms(self, write_files, tmp_path):
        # the initial torus is spelled by the flat torus_file and y0 keys only
        for block in ({"circle": {"y0": [0.3]}}, {"file": str(tmp_path / "t.csv")}):
            cfg_path, _ = write_files(PENDULUM, "out", torus=block)
            with pytest.raises(ConfigError) as exc:
                parse_config(cfg_path)
            assert exc.value.violations == ["unknown key: torus"]

    def test_strict_condition_mode_rejected_before_any_output(self, write_files, capsys):
        cfg_path, out = write_files(ROUGH, "out", condition_mode="strict", **ROUGH_KNOBS)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "config error: unknown key: condition_mode\n"
        assert not out.exists()

    @pytest.mark.parametrize("knob", ["start_degree", "min_tori", "count", "max_stages",
                                      "max_degree", "max_iter"])
    def test_removed_knob_rejected_before_any_output(self, write_files, capsys, knob):
        # the ladder keeps 2 rungs from degree 8 up to 4096, a run takes at
        # most 6 stages and stops once lemma 4 has 3 gaps, and each solve
        # takes at most 12 Newton steps
        cfg_path, out = write_files(ROUGH, "out", **{knob: 8}, **ROUGH_KNOBS)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: unknown key: {knob}\n"
        assert not out.exists()

    @staticmethod
    def write_torus(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_unparsable_torus_file_rejected_before_any_output(self, write_files, capsys,
                                                              tmp_path):
        K = TorusEmbedding.circle(np.array([GOLDEN]), 8)
        cases = [  # (file name, text, the reason it is rejected with)
            ("torus.json", json.dumps({"winding": K.winding.tolist()}),
             "torus csv must start with a '# winding=' line"),
            ("cut.csv", K.to_csv().replace("trunc_order=8", "trunc_order=eight"),
             "invalid literal for int() with base 10: 'eight'"),
            ("twice.csv", K.to_csv() + K.to_csv().splitlines()[-1],
             "wavevector (0,) is given twice"),
            ("nan.csv", K.to_csv() + "1,nan,0.0,0.0,0.0\n",
             "amplitude entry nan is not finite"),
        ]
        for name, text, reason in cases:
            torus = self.write_torus(tmp_path, name, text)
            cfg_path, out = write_files(PENDULUM, "out", torus_file=torus)
            assert main(["verify", "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"config error: torus file does not parse: {reason}\n"
            assert not out.exists()

    def test_absent_torus_file_rejected_before_any_output(self, write_files, capsys,
                                                          tmp_path):
        torus = tmp_path / "absent.csv"
        cfg_path, out = write_files(PENDULUM, "out", torus_file=str(torus))
        assert main(["verify", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: torus file not found: {torus}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, violation", [
        ("run", "hamiltonian = model.json\n",
         "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("solve", "[1, 2]", "config must be a JSON object, got list"),
        ("solve", "null", "config must be a JSON object, got NoneType"),
        ("solve", '"x"', "config must be a JSON object, got str"),
        ("solve", "3", "config must be a JSON object, got int"),
    ], ids=["not-json", "list", "null", "string", "number"])
    def test_config_not_json_rejected_before_any_output(self, tmp_path, capsys,
                                                        monkeypatch, command, text,
                                                        violation):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(text)
        assert main([command, "--config", "c.json"]) == 1
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_trunc_beyond_horizon_rejected_before_the_circle(self, write_files, capsys,
                                                             monkeypatch):
        # at n = 2 a circle of order 5000 would take about 6 GiB
        monkeypatch.setattr(TorusEmbedding, "circle",
                            lambda *a: pytest.fail("circle built"))
        cfg_path, out = write_files(ROTOR2, "out", omega=[GOLDEN, SILVER],
                                    y0=[GOLDEN, SILVER], trunc=5000)
        assert main(["solve", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: K0 truncation order 5000 on T^2 reaches |k|_1 = 10000 "
            "beyond the Diophantine horizon 256\n")
        assert not out.exists()

    def test_torus_order_beyond_horizon_rejected_before_the_fold(self, write_files, capsys,
                                                                tmp_path, monkeypatch):
        # folding one row at order 5000 on T^2 would take a (10001^2, 4) grid
        monkeypatch.setattr(kamtori.fourier, "_fold", lambda *a: pytest.fail("rows folded"))
        torus = self.write_torus(tmp_path, "far.csv", (
            "# winding=1 0 0 1 0 0 0 0\n# n=2 m=4 trunc_order=5000 canonical=1\n"
            "k0,k1,re0,im0,re1,im1,re2,im2,re3,im3\r\n0,0,0,0,0,0,0.5,0,0.5,0\r\n"))
        cfg_path, out = write_files(ROTOR2, "out", omega=[GOLDEN, SILVER],
                                    y0=[GOLDEN, SILVER], torus_file=torus)
        assert main(["solve", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: K0 truncation order 5000 on T^2 reaches |k|_1 = 10000 "
            "beyond the Diophantine horizon 256\n")
        assert not out.exists()

    def test_torus_of_another_n_rejected_before_any_output(self, write_files, capsys,
                                                           tmp_path):
        K = TorusEmbedding.circle(np.array([GOLDEN, 0.4]), 8)
        torus = self.write_torus(tmp_path, "torus.csv", K.to_csv())
        cfg_path, out = write_files(PENDULUM, "out", torus_file=torus)
        assert main(["verify", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: torus file must embed T^1 in R^2, got T^2 in R^4\n")
        assert not out.exists()

    CLI_FIELDS = [
        ({"trunc": "x"}, "trunc must be an integer, got x"),
        ({"trunc": 2.5}, "trunc must be an integer, got 2.5"),
        ({"trunc": None}, "trunc must be an integer, got None"),
        ({"trunc": 0}, "truncation order M must be >= 1, got 0"),
        ({"omega": ["a"]}, "omega must be a list of numbers, got ['a']"),
        ({"y0": [0.1, 0.2]}, "y0 must have n = 1 components, got 2"),
        ({"omega": [GOLDEN, 0.3]}, "omega must have n = 1 components, got 2"),
        ({"y0": [None]}, "y0 must be a list of numbers, got [None]"),
        ({"omega": str(GOLDEN)}, f"omega must be a list of numbers, got {GOLDEN}"),
        ({"y0": [True]}, "y0 must be a list of numbers, got [True]"),
        ({"y0": [math.nan]}, "y0 must be a list of numbers, got [nan]"),
        ({"omega": [math.inf]}, "omega must be a list of numbers, got [inf]"),
    ]
    CLI_IDS = ["trunc=x", "trunc=2.5", "trunc=null", "trunc=0", "omega=a", "y0-2dof",
               "omega-2dof", "circle-y0", "omega-string", "y0=true", "y0=nan", "omega=inf"]

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

    @pytest.mark.parametrize("command", ["solve", "verify", "smooth", "run"])
    @pytest.mark.parametrize("fields, violation", [
        ({"tol": True}, "tol must be a number, got True"),
        ({"omega": [0.5]}, "omega is resonant within the horizon"),
        ({"gamma": 10.0}, "omega fails the Diophantine bound: worst k=(1,) "
                          "margin=3.820e-01 < gamma=1.000e+01"),
        ({"horizon": 10, "trunc": 16}, "K0 truncation order 16 on T^1 reaches "
                                       "|k|_1 = 16 beyond the Diophantine horizon 10"),
        # a number must fit a float: an integer beyond the largest is refused
        ({"omega": [10**400]}, f"omega must be a list of numbers, got [{10**400}]"),
        ({"rho": 10**400}, f"rho must be a number, got {10**400}"),
    ], ids=["tol=true", "resonant", "gamma-above-margin", "trunc-beyond-horizon",
            "omega-401-digits", "rho-401-digits"])
    def test_refused_config_writes_nothing(self, write_files, capsys, command,
                                           fields, violation):
        # parse_config refuses each, the frequency by its scan and K0 by its
        # horizon, before any output
        cfg_path, out = write_files(PENDULUM, "out", **fields)
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert not out.exists()

    BAD_MODELS = [
        (rough_model(2), "rough term coordinate 2 outside [0, 2) for n=1"),
        (rough_model(-1), "rough term coordinate -1 outside [0, 2) for n=1"),
        (rough_model(profile={"type": "sinpower", "power": 4.0}),
         "power must exceed 4 for C^4 regularity"),
        # Python's json reads NaN and Infinity, and every model number must be finite
        (dict(ROUGH, terms=[{"k": [0], "m": [2], "re": math.inf, "im": 0.0}]),
         "term {'k': [0], 'm': [2], 're': inf, 'im': 0.0} needs a finite re and im"),
        (dict(ROUGH, rough=[dict(ROUGH["rough"][0], amplitude=math.inf)]),
         "rough amplitude must be finite, got inf"),
        (rough_model(profile={"type": "bspline", "coefficients": [0.0, math.nan] * 3}),
         "bspline coefficients must be finite, got [0.0, nan, 0.0, nan, 0.0, nan]"),
        (rough_model(profile={"type": "sinpower", "power": math.nan}),
         "sinpower power must be finite, got nan"),
        (rough_model(profile={"type": "sinpower", "scale": math.inf}),
         "sinpower scale must be finite, got inf"),
        (rough_model(profile={"type": "sinpower", "shift": math.nan}),
         "sinpower shift must be finite, got nan"),
        # every integer field is a JSON integer: no float, bool or string
        (dict(ROUGH, n=1.9), "n must be an integer, got 1.9"),
        (dict(ROUGH, n=True), "n must be an integer, got True"),
        (dict(ROUGH, terms=[{"k": [1.5], "m": [0], "re": 0.5, "im": 0.0}]),
         "term {'k': [1.5], 'm': [0], 're': 0.5, 'im': 0.0} needs integer lists k and m"),
        (dict(ROUGH, terms=[{"k": [0], "m": [2.7], "re": 0.5, "im": 0.0}]),
         "term {'k': [0], 'm': [2.7], 're': 0.5, 'im': 0.0} needs integer lists k and m"),
        (dict(ROUGH, terms=[{"k": ["1"], "m": [True], "re": 0.5, "im": 0.0}]),
         "term {'k': ['1'], 'm': [True], 're': 0.5, 'im': 0.0} needs integer lists k and m"),
        (rough_model(0.7), "rough term coordinate must be an integer, got 0.7"),
        (rough_model(profile=dict(ROUGH["rough"][0]["profile"], degree=5.5)),
         "bspline degree must be an integer, got 5.5"),
        (rough_model(profile={"type": "spline"}), "unknown rough profile type: 'spline'"),
        # a file not of the documented form names the rule it breaks
        ([1, 2], "model must be a JSON object, got list"),
        (None, "model must be a JSON object, got NoneType"),
        (dict(ROUGH, terms=5), "terms must be a list of objects, got 5"),
        (dict(ROUGH, terms=[7]), "term 7 is not an object"),
        (dict(ROUGH, rough=ROUGH["rough"][0]),
         f"rough must be a list of objects, got {ROUGH['rough'][0]!r}"),
        (dict(ROUGH, rough=[5]), "rough term 5 is not an object"),
        (dict(ROUGH, rough=[{"coordinate": 0}]),
         "rough term {'coordinate': 0} missing keys ['profile']"),
        (dict(ROUGH, rough=[{"coordinate": 0, "profile": 5}]),
         "rough term profile must be an object, got 5"),
        (dict(ROUGH, terms=[{"k": [0], "m": [2], "re": "a", "im": 0.0}]),
         "term {'k': [0], 'm': [2], 're': 'a', 'im': 0.0} needs a finite re and im"),
        (dict(ROUGH, n=0), "n must be >= 1, got 0"),
        (dict(ROUGH, n=-1), "n must be >= 1, got -1"),
        (rough_model(profile=dict(ROUGH["rough"][0]["profile"], degree=-1)),
         "bspline degree must be >= 0, got -1"),
        (rough_model(profile={"type": "sinpower", "power": "a"}),
         "sinpower power must be finite, got 'a'"),
        # each object of the file holds its own keys and no other
        ({"n": 1, "terms": ROUGH["terms"], "smoothnes_class": 3, "ruogh": ROUGH["rough"]},
         "model has unknown keys ['ruogh', 'smoothnes_class']"),
        (dict(ROUGH, terms=[{"k": [0], "m": [2], "re": 0.5, "im": 0.0, "scale": 2}]),
         "term {'k': [0], 'm': [2], 're': 0.5, 'im': 0.0, 'scale': 2} "
         "has unknown keys ['scale']"),
        (dict(ROUGH, rough=[dict(ROUGH["rough"][0], shift=0.5)]),
         f"rough term {dict(ROUGH['rough'][0], shift=0.5)} has unknown keys ['shift']"),
        (rough_model(profile={"type": "bspline", "coefficient": [0.0] * 6}),
         "rough term profile {'type': 'bspline', 'coefficient': [0.0, 0.0, 0.0, 0.0, "
         "0.0, 0.0]} has unknown keys ['coefficient']"),
        (rough_model(profile={"type": "sinpower", "degree": 5}),
         "rough term profile {'type': 'sinpower', 'degree': 5} has unknown keys ['degree']"),
        # a number must fit a float: an integer beyond the largest is refused
        (dict(ROUGH, terms=[{"k": [0], "m": [2], "re": 10**400, "im": 0.0}]),
         f"term {{'k': [0], 'm': [2], 're': {10**400}, 'im': 0.0}} needs a finite re and im"),
        # the class is null (analytic) or a finite number, not a string or bool
        (dict(PENDULUM, smoothness_class="a"),
         "smoothness_class must be null or a finite number, got 'a'"),
        (dict(PENDULUM, smoothness_class="5"),
         "smoothness_class must be null or a finite number, got '5'"),
        (dict(PENDULUM, smoothness_class=True),
         "smoothness_class must be null or a finite number, got True"),
        (dict(PENDULUM, smoothness_class=math.inf),
         "smoothness_class must be null or a finite number, got inf"),
    ]

    @pytest.mark.parametrize("model, reason", BAD_MODELS,
                             ids=["coordinate=2", "coordinate=-1", "sinpower-power=4",
                                  "term-re=inf", "amplitude=inf", "bspline-coefficient=nan",
                                  "sinpower-power=nan", "sinpower-scale=inf",
                                  "sinpower-shift=nan", "n=1.9", "n=true", "k=1.5",
                                  "m=2.7", "k-string-m-bool", "coordinate=0.7",
                                  "degree=5.5", "type=spline", "list", "null", "terms=5",
                                  "terms=[7]", "rough-object", "rough=[5]", "no-profile",
                                  "profile=5", "re=a", "n=0", "n=-1", "degree=-1",
                                  "power=a", "model-keys", "term-key", "rough-term-key",
                                  "bspline-key", "sinpower-key", "re-401-digits",
                                  "class=a", "class-string", "class=true", "class=inf"])
    def test_bad_model_rejected_before_any_output(self, write_files, capsys,
                                                  model, reason):
        cfg_path, out = write_files(model, "out", y0=[0.4], rho=0.02, r=0.8)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: hamiltonian file does not parse: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "smooth"])
    @pytest.mark.parametrize("declared, knobs, violation", [
        (3, {}, "smoothness class l must be >= 4, got 3"),
        (5, {"l": 6}, "requested l=6 exceeds the model's C^5.0"),
    ], ids=["class-3", "l-above-class"])
    def test_model_class_rejected_before_any_output(self, write_files, capsys, command,
                                                    declared, knobs, violation):
        # l is the model's class where the config gives none
        cfg_path, out = write_files(dict(PENDULUM, smoothness_class=declared), "out",
                                    **knobs)
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error: {violation}\n"
        assert not out.exists()

    def test_echo_round_trips(self, write_files):
        cfg_path, out = write_files(ROTATOR, "echo", trunc=16)
        cfg = parse_config(cfg_path)
        assert main(["verify", "--config", str(cfg_path)]) == 0
        echoed = parse_config(out / "config.json")
        # out names where the run wrote, not one of its inputs
        assert echoed == dataclasses.replace(cfg, out=None)

    def test_echo_names_no_output_directory(self, write_files, tmp_path):
        cfg_path, out = write_files(PENDULUM, "configured")
        elsewhere = tmp_path / "elsewhere"
        assert main(["smooth", "--config", str(cfg_path), "--out", str(elsewhere)]) == 0
        echo = (elsewhere / "config.json").read_text()
        assert "out" not in json.loads(echo)
        assert str(out) not in echo and str(elsewhere) not in echo
        assert not out.exists()


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

    @staticmethod
    def failed_hypothesis_config(write_files, tmp_path, model, torus, command):
        extra = {"y0": [0.0], "trunc": 16}
        if torus is not None:
            K = TorusEmbedding.circle(np.array([GOLDEN]), 16)
            path = tmp_path / "flat.csv"
            path.write_text(K.to_csv().replace("# winding=1 0", torus))
            extra = {"torus_file": str(path)}
        return write_files(model, command, **extra)

    @pytest.mark.parametrize("model, torus, reason, status", FAILED_HYPOTHESES,
                             ids=["twistless", "flat-torus"])
    def test_verify_failed_hypothesis_writes_its_certificate(self, write_files, tmp_path,
                                                             model, torus, reason, status):
        cfg_path, out = self.failed_hypothesis_config(write_files, tmp_path, model, torus,
                                                      "verify")
        assert main(["verify", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert.keys() == {"passed", "error"} and cert["passed"] is False
        assert cert["error"].startswith(reason)

    @pytest.mark.parametrize("command", ["solve", "run"])
    @pytest.mark.parametrize("model, torus, reason, status", FAILED_HYPOTHESES,
                             ids=["twistless", "flat-torus"])
    def test_failed_hypothesis_ends_solve_and_run_with_its_name(
            self, write_files, tmp_path, capsys, model, torus, reason, status, command):
        cfg_path, out = self.failed_hypothesis_config(write_files, tmp_path, model, torus,
                                                      command)
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == ""
        cert = json.loads((out / "certificate.json").read_text())
        assert (out / "torus_final.csv").is_file()
        if command == "solve":
            assert cert["status"] == status and cert["iterations"] == 0
            [row] = map(json.loads, (out / "trace.jsonl").read_text().splitlines())
            assert row["hypothesis_failed"].startswith(reason)
        else:
            assert (cert["converged"], cert["termination_reason"]) == (False, status)
            assert cert["schedule"]["error"].startswith(reason)
            assert cert["stages"] == []

    @pytest.mark.parametrize("command", ["solve", "run"])
    def test_resonant_divisor_ends_solve_and_run_with_its_name(self, write_files, capsys,
                                                               command):
        # omega is certified up to |k|_1 = 8, yet the (1, -1) divisor that
        # the model couples, 2^-49, lies below the resonance guard
        omega = [1.0, 1.0 + 2.0**-49]
        model = dict(ROTOR2, terms=ROTOR2["terms"] + [
            {"k": [1, -1], "m": [0, 0], "re": 1e-3, "im": 0.0}])
        cfg_path, out = write_files(model, command, omega=omega, y0=omega, sigma=2.1,
                                    horizon=8, trunc=2)
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == ""
        cert = json.loads((out / "certificate.json").read_text())
        assert (out / "torus_final.csv").is_file()
        reason = ("resonant mode k = (1, -1): |k.omega| = 1.776e-15 below 1e-14, "
                  "equation is not solvable")
        if command == "solve":
            assert (cert["status"], cert["iterations"]) == ("resonant_divisor", 0)
            [row] = map(json.loads, (out / "trace.jsonl").read_text().splitlines())
        else:
            assert not cert["converged"]
            assert cert["termination_reason"] == "resonant_divisor_at_stage_1"
            assert cert["failed_stage"] == 1
            [stage] = cert["stages"]
            assert stage["status"] == "resonant_divisor"
            rows = (out / "stages" / "stage_1.jsonl").read_text().splitlines()
            row = json.loads(rows[-1])
        assert row["hypothesis_failed"] == reason

    def test_solve_pendulum_artifacts(self, write_files):
        cfg_path, out = write_files(PENDULUM, "solve")
        assert main(["solve", "--config", str(cfg_path)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "config.json",
            "certificate.json",
            "trace.jsonl",
            "torus_final.csv",
        } <= names
        assert "torus_samples.csv" not in names
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) >= 2
        # stored mode amplitude 5e-4 means eps = 1e-3 after reality folding
        first = json.loads(lines[0])
        assert first["error"] == pytest.approx(2 * np.pi * 1e-3, rel=1e-3)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["status"] == "converged"
        assert cert["error"] < 1e-12

    def test_run_gate_failure_names_condition(self, write_files):
        cfg_path, out = write_files(STRONG, "gate", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["termination_reason"] == "condition2_failed"
        assert cert["stages"] == []
        assert cert["conditions_measured"]["condition2_lhs"] > 1.0

    def test_run_unachievable_ladder_writes_its_certificate(self, write_files,
                                                            monkeypatch):
        # at y0 = golden no ladder gap up to degree 16 reaches the defect
        monkeypatch.setattr(smoothing, "MAX_DEGREE", 16)
        cfg_path, out = write_files(ROUGH, "ladder", rho=0.02, r=0.8, target_error=1e-8)
        assert main(["run", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["converged"] is False
        assert cert["termination_reason"] == "smoothing_unachievable"
        assert "unachievable at max degree 16" in cert["smoothing"]["error"]
        assert cert["e0_original"]["error_rho"] > 0
        assert cert["stages"] == []
        assert (out / "torus_final.csv").is_file()

    def test_smooth_unachievable_ladder_writes_its_certificate(self, write_files,
                                                               monkeypatch):
        monkeypatch.setattr(smoothing, "MAX_DEGREE", 16)
        cfg_path, out = write_files(ROUGH, "ladder", rho=0.02, r=0.8, target_error=1e-8)
        assert main(["smooth", "--config", str(cfg_path)]) == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert set(cert) == {"passed", "error"} and cert["passed"] is False
        assert cert["error"].startswith("smoothing bound unachievable at max degree 16: ")
        assert sorted(p.name for p in out.iterdir()) == ["certificate.json", "config.json"]

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
        rows = [json.loads(line)
                for path in sorted((out / "stages").iterdir())
                for line in path.read_text().splitlines()]
        assert rows and all(TAIL_KEYS <= row.keys() for row in rows)
        # per-iterate rows stay out of the certificate: the tail state it
        # records is that of the three defects it summarizes
        cert = json.loads((out / "certificate.json").read_text())
        assert set(tail_state_holders(cert)) == {"e0_original", "e0_stage1", "final"}

    def test_every_defect_record_carries_one_tail_record(self, write_files):
        # trace rows, the run certificate's three defects and verify's
        # certificate report the four tail keys the refinement rule reads
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        rows = [json.loads(line)
                for path in sorted((out / "stages").iterdir())
                for line in path.read_text().splitlines()]
        cfg_path, checked = write_files(PENDULUM, "verify",
                                        torus_file=str(out / "torus_final.csv"))
        main(["verify", "--config", str(cfg_path)])  # the strict conditions fail
        verified = json.loads((checked / "certificate.json").read_text())
        records = rows + [cert["e0_original"], cert["e0_stage1"], cert["final"], verified]
        assert [tail_keys(rec) for rec in records] == [TAIL_KEYS] * len(records)

    def test_run_final_record_holds_a_round_off_tail(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        final = json.loads((out / "certificate.json").read_text())["final"]
        assert 0 < final["tail_max"] < final["round_off"]
        # the record is the final defect's own tail record, taken again
        K = TorusEmbedding.from_csv((out / "torus_final.csv").read_text())
        err = invariance_error(HamiltonianModel.pendulum(1e-3), K, np.array([GOLDEN]))
        assert {key: final[key] for key in TAIL_KEYS} == err.tail_record()

    def test_verify_reports_a_tail_above_round_off(self, write_files, tmp_path):
        # one Newton step from the circle at M = 8 leaves a tail of real modes
        freq = FrequencyVector.estimated(np.array([GOLDEN]), 1.1, 256)
        K, _ = newton_step(HamiltonianModel.pendulum(1e-3),
                           TorusEmbedding.circle(np.array([GOLDEN]), 8), freq)
        torus = tmp_path / "torus.csv"
        torus.write_text(K.to_csv())
        cfg_path, out = write_files(PENDULUM, "verify", torus_file=str(torus))
        main(["verify", "--config", str(cfg_path)])
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["tail_max"] > 10 * cert["round_off"]
        assert cert["tail_sum"] >= cert["tail_max"] and cert["tail_beyond"] > 0

    def test_smooth_rough_ladder(self, write_files):
        cfg_path, out = write_files(
            ROUGH, "smooth", y0=[0.4], rho=0.02, r=0.8
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
        from kamtori.solver import Iterate

        cfg = parse_config(cfg_path)
        h0 = Iterate.evaluate(cfg.model, cfg.torus, cfg.freq, cfg.params.rho)
        h_ext, seq = smoothing_ladder(h0, cfg.params)
        assert h_ext is not cfg.model  # the rough term is cut off
        rung = seq.history["rungs"][0]
        lo, hi = np.array(doc["box"]["lo"]), np.array(doc["box"]["hi"])
        z = lo + (hi - lo) * np.random.default_rng(0).uniform(0, 1, (50, 2))
        t = (z - lo) / (hi - lo)
        angle, action = ((np.exp(2j * np.pi * np.outer(t[:, i], np.arange(2 * N)))
                          @ (pairs[:, 0] + 1j * pairs[:, 1])).real
                         for i, pairs in enumerate(np.array(f[0]) for f in doc["factors"]))
        assert np.max(np.abs(angle * action - rung(z))) <= 1e-12 * np.max(np.abs(rung(z)))

    def test_smooth_analytic_input_short_circuit(self, write_files):
        cfg_path, out = write_files(PENDULUM, "smooth_an")
        assert main(["smooth", "--config", str(cfg_path)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["analytic_input"]
        # LADDER_COUNT copies of H itself, with the zero gaps between them
        assert cert["degrees"] == [0] * LADDER_COUNT
        assert cert["gaps_c3"] == [0.0] * (LADDER_COUNT - 1)
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
        (["--omega", "0.618,0.414", "--sigma", "nan"], "sigma must be finite, got nan"),
        (["--omega", "0.618", "--sigma", "nan"], "sigma must be finite, got nan"),
        (["--omega", "0.618,0.414", "--sigma", "inf"], "sigma must be finite, got inf"),
        (["--omega", "0.618,0.414", "--gamma", "nan"], "gamma must be finite, got nan"),
        (["--omega", "0.618,0.414", "--gamma", "inf"], "gamma must be finite, got inf"),
    ], ids=["horizon=0", "sigma=-1", "gamma=-1", "omega=0,0", "omega=abc",
            "sigma=nan", "sigma=nan-n1", "sigma=inf", "gamma=nan", "gamma=inf"])
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
        read = cli.model_from_json

        def counted(text):
            builds.append(text)
            return read(text)

        monkeypatch.setattr(cli, "model_from_json", counted)
        cfg_path, out = write_files(model, command, **extra)
        assert main([command, "--config", str(cfg_path)]) == 0
        assert len(builds) == 1
        assert "model" not in json.loads((out / "config.json").read_text())


class TestSharedDriverPath:
    """smooth and verify report what run measures on the same config."""

    def test_verify_matches_run_on_analytic_input(self, write_files):
        cfg_path, out = write_files(PENDULUM, "run", target_error=1e-10)
        assert main(["run", "--config", str(cfg_path)]) == 0
        # the literal conditions fail here; the check is that both paths agree
        assert main(["verify", "--config", str(cfg_path), "--out", str(out / "v")]) == 1
        run = json.loads((out / "certificate.json").read_text())
        ver = json.loads((out / "v" / "certificate.json").read_text())
        assert ver["conditions"] == run["conditions_strict"]
        assert ver["c_value"] == run["c_value"]
        assert ver["mu0"] == run["schedule"]["mu0"]
        # one kam_schedule path: verify's frame norms are run's d0, v0, tau0
        nd, schedule = ver["nondegeneracy"], run["schedule"]
        assert (nd["norm_dk"], nd["norm_n"], nd["norm_s_inv"]) == (
            schedule["d0"], schedule["v0"], schedule["tau0"])

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
    """A config command takes the config file and an output directory, and
    every other run input from that file."""

    def test_config_commands_take_config_and_out_only(self):
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        for command in ("solve", "verify", "smooth", "run"):
            flags = set(subs.choices[command]._option_string_actions)
            assert flags == {"-h", "--help", "--config", "--out"}, command

    def test_removed_flag_is_a_usage_error(self, write_files, capsys):
        cfg_path, out = write_files(ROTATOR, "out", trunc=16)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(cfg_path), "--tol", "1e-20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-20" in capsys.readouterr().err
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
        freq = parse_config(cfg_path).freq
        assert freq.gamma == 0.3
        cfg_path2, _ = write_files(PENDULUM, "out", sigma=1.0, horizon=10000)
        est = parse_config(cfg_path2).freq
        assert est.gamma == pytest.approx(0.3819660112501051, abs=1e-15)

    def test_load_torus_circle_default(self, write_files):
        cfg_path, _ = write_files(PENDULUM, "out", trunc=16)
        K = parse_config(cfg_path).torus
        assert K.dim_domain == 1 and K.dim_range == 2
        theta = np.array([[0.25]])
        assert K(theta)[0] == pytest.approx([0.25, GOLDEN], abs=1e-14)
