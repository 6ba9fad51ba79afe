"""The benchmark's span tracer (perfbench/tracing.py) against the package.

The tracer wraps functions and methods it names by owner and attribute;
a rename in the package would first show as a failing traced benchmark
run.  These tests install it here instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import kamtori.hamiltonian
from kamtori import HamiltonianModel, TorusEmbedding

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name]


def owner_of(target):
    module_name, _, cls_name = target.owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def test_every_target_resolves():
    tracing = load_tracing()
    missing = []
    for target in tracing.TARGETS:
        try:
            inspect.getattr_static(owner_of(target), target.attr)
        except AttributeError:
            missing.append(f"{target.owner}.{target.attr}")
    assert missing == []


def test_install_traces_jets_and_uninstall_restores():
    tracing = load_tracing()
    before = {
        (t.owner, t.attr): inspect.getattr_static(owner_of(t), t.attr)
        for t in tracing.TARGETS
    }
    samples = TorusEmbedding.circle(np.array([0.4]), trunc_order=8).grid_samples()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kamtori.hamiltonian.jet_grid(HamiltonianModel.pendulum(1e-3), samples)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["jet_grid", "jet_batch"]
    # M = 8 is sampled on 21 = 3 * 7 points, the smallest fast odd N >= 17
    assert tracer.spans[1].counts == {"points": 21}
    after = {
        (t.owner, t.attr): inspect.getattr_static(owner_of(t), t.attr)
        for t in tracing.TARGETS
    }
    assert after == before
