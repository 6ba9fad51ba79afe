"""The three benchmark workloads, built from a seed.

Every workload draws its per-unit parameter from a seeded random offset
plus a golden-ratio stride (a Kronecker sequence).  Any prefix of the
sequence then covers the parameter range evenly, so a run's median does
not hinge on how many draws of one run land at one end of the range.
The program only ever sees the generated models, tori and config files.

The package is looked up through module attributes at call time
(``kamtori.solver.solve_torus``, ``kamtori.cli.main``) so that a traced
run reaches the wrapped entry points.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import kamtori.cli
import kamtori.solver
from kamtori import FrequencyVector, HamiltonianModel, TorusEmbedding

__all__ = ["WORKLOADS"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SIGMA = 1.1
HORIZON = 256


def _draw(state, i: int, lo: float, hi: float) -> float:
    """i-th log-uniform value in [lo, hi] of the seeded sequence."""
    u = (state["offset"] + i * GOLDEN) % 1.0
    return lo * (hi / lo) ** u


def _offset(seed: int) -> float:
    return float(np.random.default_rng(seed).random())


class _AnalyticSolve:
    """One torus is one ``solve_torus`` call on an analytic model."""

    tol = 1e-12

    def run(self, state, prep):
        h, k0, freq = prep["model"], prep["k0"], prep["freq"]
        return kamtori.solver.solve_torus(
            h, k0, freq, tol=self.tol, max_trunc_order=freq.horizon
        )

    def check(self, state, prep, result):
        """Converged, and the defect on a finer odd grid is <= 10 tol."""
        m = result.torus.trunc_order
        fine = 2 * ((3 * m) // 2) + 1
        err = kamtori.solver.invariance_error(
            prep["model"], result.torus, prep["freq"], grid_size=fine
        ).norm_grid
        return {
            "ok": bool(result.converged and err <= 10 * self.tol),
            "status": result.status,
            "iterations": result.iterations,
            "trunc_order": m,
            "error": result.error,
            "fine_grid": fine,
            "fine_error": err,
            "param": prep["param"],
        }

    def agree(self, a, b):
        keys = ("status", "iterations", "trunc_order", "error", "fine_error")
        return all(a.get(k) == b.get(k) for k in keys)

    def release(self, prep):
        pass


class PendulumFamily(_AnalyticSolve):
    """H = y^2/2 + eps cos 2 pi x at omega = 1/(a + g), a = 1..4, M = 64."""

    name = "pendulum_family"
    eps_range = (2e-4, 2e-3)

    def setup(self, seed, workdir):
        freqs = [
            FrequencyVector.estimated(np.array([1.0 / (a + GOLDEN)]), SIGMA, HORIZON)
            for a in (1, 2, 3, 4)
        ]
        rng = np.random.default_rng(seed)
        return {"offset": float(rng.random()), "first": int(rng.integers(4)),
                "freqs": freqs}

    def prepare(self, state, i, tag):
        eps = _draw(state, i, *self.eps_range)
        freq = state["freqs"][(state["first"] + i) % 4]
        return {
            "model": HamiltonianModel.pendulum(eps),
            "k0": TorusEmbedding.circle(freq.omega, 64),
            "freq": freq,
            "param": {"eps": eps, "omega": float(freq.omega[0])},
        }


class Coupled2Dof(_AnalyticSolve):
    """H = |y|^2/2 + eps (cos 2pi x1 + cos 2pi x2 + cos 2pi (x1 - x2)), M = 16.

    The eps range keeps every torus on the 16 -> 32 -> 64 refinement path
    with 4 Newton iterations: below about 4.5e-4 a torus stops at M = 32
    after 3 iterations, and above about 1.4e-3 it refines to M = 128 and
    costs three to four times as much.
    """

    name = "coupled_2dof"
    eps_range = (5e-4, 1.2e-3)
    omega = np.array([GOLDEN, math.sqrt(2.0) - 1.0])

    def setup(self, seed, workdir):
        return {"offset": _offset(seed),
                "freq": FrequencyVector.estimated(self.omega, SIGMA, HORIZON)}

    def prepare(self, state, i, tag):
        eps = _draw(state, i, *self.eps_range)
        c = eps / 2.0  # cos 2pi k.x = (e^{2pi i k.x} + conj) / 2
        terms = [
            ((0, 0), (2, 0), 0.5),
            ((0, 0), (0, 2), 0.5),
            ((1, 0), (0, 0), c),
            ((0, 1), (0, 0), c),
            ((1, -1), (0, 0), c),
        ]
        return {
            "model": HamiltonianModel(2, terms),
            "k0": TorusEmbedding.circle(self.omega, 16),
            "freq": state["freq"],
            "param": {"eps": eps},
        }


class RoughCascadeCli:
    """``kamtori run`` on the free rotator plus a degree-5 B-spline term (C^4)."""

    name = "rough_cascade_cli"
    amp_range = (5e-5, 2e-4)
    profile = [0.0, 0.52, 0.55, 0.05, -0.48, -0.55]
    max_error = 1e-7

    def setup(self, seed, workdir):
        return {"offset": _offset(seed), "workdir": Path(workdir)}

    def prepare(self, state, i, tag):
        amp = _draw(state, i, *self.amp_range)
        unit = state["workdir"] / f"unit-{i}-{tag}"
        unit.mkdir(parents=True)
        model = {
            "n": 1,
            "smoothness_class": None,
            "terms": [{"k": [0], "m": [2], "re": 0.5, "im": 0.0}],
            "rough": [{
                "coordinate": 0,
                "amplitude": amp,
                "profile": {"type": "bspline", "degree": 5,
                            "coefficients": self.profile},
            }],
        }
        config = {
            "hamiltonian": str(unit / "model.json"),
            "omega": [GOLDEN],
            "y0": [0.4],
            "rho": 0.02,
            "r": 0.8,
            "sigma": SIGMA,
            "horizon": HORIZON,
            "target_error": 1e-8,
            "out": str(unit / "run"),
        }
        (unit / "model.json").write_text(json.dumps(model, sort_keys=True))
        (unit / "config.json").write_text(json.dumps(config, sort_keys=True))
        return {"dir": unit, "param": {"amplitude": amp}}

    def run(self, state, prep):
        return kamtori.cli.main(["run", "--config", str(prep["dir"] / "config.json")])

    def check(self, state, prep, code):
        """Exit 0, converged certificate, lemma 4 passed, final error <= 1e-7."""
        out = prep["dir"] / "run"
        raw = (out / "certificate.json").read_bytes()
        cert = json.loads(raw)
        files = [p for p in out.rglob("*") if p.is_file()]
        final = cert["final"]["error_vs_original_grid"]
        return {
            "ok": bool(code == 0 and cert["converged"] and cert["lemma4"]["passed"]
                       and final <= self.max_error),
            "exit_code": code,
            "converged": cert["converged"],
            "lemma4_passed": cert["lemma4"]["passed"],
            "final_error": final,
            "stages": len(cert["stages"]),
            "certificate_sha256": hashlib.sha256(raw).hexdigest(),
            "files_written": len(files),
            "bytes_written": sum(p.stat().st_size for p in files),
            "param": prep["param"],
        }

    def agree(self, a, b):
        return a.get("certificate_sha256") == b.get("certificate_sha256")

    def release(self, prep):
        shutil.rmtree(prep["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (PendulumFamily(), Coupled2Dof(), RoughCascadeCli())}
