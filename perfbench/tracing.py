"""In-memory span tracing of kamtori's public functions, from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper at every place
its callers look it up: the attribute of every loaded ``kamtori`` module
that holds the same function object, or the class attribute for methods.
Each call records one span (name, layer, start, end, parent span, unit id,
counts).  Nothing inside ``src/`` changes; :meth:`Tracer.uninstall`
restores the original objects, so an untraced run executes exactly the
package's own code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Target", "Tracer", "TARGETS", "self_times", "layer_metrics"]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    unit: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner`` is "module" or "module:Class"."""

    layer: str
    name: str
    owner: str
    attr: str
    counts: object = None  # (args, kwargs, result) -> dict of counts


def _points(z) -> int:
    shape = getattr(z, "shape", ())
    return int(math.prod(shape[:-1])) if shape else 1


def _canonical_vectors(n: int, horizon: int) -> int:
    """Canonical wavevectors (one per +-k pair) with 1 <= |k|_1 <= horizon."""
    if n == 1:
        return horizon
    total = 0
    for s in range(1, horizon + 1):
        # integer vectors with |k|_1 = s and exactly j nonzero entries:
        # choose the support, the signs, and a composition of s into j parts
        total += sum(
            2**j * math.comb(n, j) * math.comb(s - 1, j - 1)
            for j in range(1, min(n, s) + 1)
        )
    return total // 2


def _scan_counts(args, kwargs, result):
    omega = args[0] if args else kwargs["omega"]
    horizon = kwargs["horizon"] if "horizon" in kwargs else args[-1]
    n = int(getattr(omega, "size", 1))
    return {"vectors": _canonical_vectors(n, int(horizon))}


def _solve_counts(args, kwargs, result):
    k0 = args[1] if len(args) > 1 else kwargs["K0"]
    ratio = result.torus.trunc_order / max(k0.trunc_order, 1)
    return {
        "iterations": result.iterations,
        "refinements": max(0, round(math.log2(ratio))) if ratio > 0 else 0,
    }


TARGETS = (
    Target("fourier", "analyze", "kamtori.fourier:FourierMap", "from_samples",
           lambda a, k, r: {"points": int(getattr(a[1], "size", 0))}),
    Target("fourier", "synthesize", "kamtori.fourier:FourierMap", "synthesize",
           lambda a, k, r: {"points": int(r.size)}),
    Target("fourier", "strip_norm", "kamtori.fourier:FourierMap", "strip_norm"),
    Target("diophantine", "estimated", "kamtori.diophantine:FrequencyVector",
           "estimated"),
    Target("diophantine", "estimate_gamma", "kamtori.diophantine", "estimate_gamma",
           _scan_counts),
    Target("diophantine", "check_diophantine", "kamtori.diophantine",
           "check_diophantine", _scan_counts),
    Target("hamiltonian", "jet_grid", "kamtori.hamiltonian", "jet_grid",
           lambda a, k, r: {"points": _points(a[1])}),
    Target("hamiltonian", "jet_batch", "kamtori.hamiltonian:HamiltonianModel",
           "jet_batch", lambda a, k, r: {"points": _points(a[1])}),
    Target("hamiltonian", "jet_batch", "kamtori.hamiltonian:CompositeHamiltonian",
           "jet_batch", lambda a, k, r: {"points": _points(a[1])}),
    Target("hamiltonian", "jet_batch", "kamtori.smoothing:SumModel",
           "jet_batch", lambda a, k, r: {"points": _points(a[1])}),
    Target("hamiltonian", "jet_batch", "kamtori.smoothing:BernsteinHamiltonian",
           "jet_batch", lambda a, k, r: {"points": _points(a[1])}),
    Target("cohomology", "solve_cohomological", "kamtori.cohomology",
           "solve_cohomological", lambda a, k, r: {"modes": len(a[0].modes)}),
    Target("solver", "solve_torus", "kamtori.solver", "solve_torus", _solve_counts),
    Target("solver", "newton_step", "kamtori.solver", "newton_step"),
    Target("solver", "invariance_error", "kamtori.solver", "invariance_error"),
    Target("solver", "nondegeneracy", "kamtori.solver", "nondegeneracy"),
    Target("smoothing", "cutoff_extend", "kamtori.smoothing", "cutoff_extend"),
    Target("smoothing", "build_smoothing_sequence", "kamtori.smoothing",
           "build_smoothing_sequence",
           lambda a, k, r: {"rungs": len(r.history["ladder_degrees"])}),
    Target("smoothing", "bernstein_nd", "kamtori.smoothing", "bernstein_nd"),
    Target("smoothing", "cl_gap", "kamtori.smoothing", "cl_gap"),
    Target("smoothing", "bump_distance", "kamtori.smoothing:PlateauBump", "distance",
           lambda a, k, r: {"points": _points(a[1]), "anchors": len(a[0].anchors)}),
    Target("driver", "run_scheme", "kamtori.driver", "run_scheme",
           lambda a, k, r: {"stages": len(r.stages)}),
    Target("cli", "main", "kamtori.cli", "main"),
)


class Tracer:
    """Records spans for the functions in ``targets`` while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.unit = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(target.name, target.layer, 0.0, 0.0,
                        stack[-1] if stack else -1, self.unit)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if target.counts is not None:
                span.counts = target.counts(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            module_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, target.attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._set(cls, target.attr, wrapped)
                continue
            func = getattr(module, target.attr)
            wrapped = self._wrap(target, func)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "kamtori" and not mod_name.startswith("kamtori."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "unit": s.unit,
                    "counts": s.counts,
                }, sort_keys=True) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


def _outermost(spans, i: int, same) -> bool:
    """True when no ancestor of span i satisfies ``same``."""
    p = spans[i].parent
    while p >= 0:
        if same(spans[p]):
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans, tori: int) -> dict[str, float]:
    """Per-layer metrics for one torus made by a fresh process.

    Each value is the set-up phase's total (spans whose unit is "setup")
    plus the mean over the ``tori`` traced units.  Times named ``<f>_s``
    are inclusive and count a function nested inside itself once; a
    layer's ``self_s`` sums the self time of its spans.
    """
    selfs = self_times(spans)

    def per_torus(pairs) -> float:
        setup = units = 0.0
        for s, v in pairs:
            if s.unit == "setup":
                setup += v
            else:
                units += v
        return setup + units / max(tori, 1)

    def by_name(*names):
        return lambda s: s.name in names

    def calls(*names):
        return per_torus((s, 1) for s in spans if s.name in names)

    def count(key, *names):
        return per_torus((s, s.counts.get(key, 0)) for s in spans if s.name in names)

    def inclusive(same):
        return per_torus(
            (s, s.duration)
            for i, s in enumerate(spans)
            if same(s) and _outermost(spans, i, same)
        )

    def layer_self(layer, *names):
        return per_torus(
            (s, t)
            for s, t in zip(spans, selfs)
            if s.layer == layer and (not names or s.name in names)
        )

    is_jet = by_name("jet_grid", "jet_batch")
    outer_jets = [
        s for i, s in enumerate(spans) if is_jet(s) and _outermost(spans, i, is_jet)
    ]
    steps = calls("newton_step")
    m = {
        "fourier.analyze_calls": calls("analyze"),
        "fourier.analyze_s": inclusive(by_name("analyze")),
        "fourier.synthesize_calls": calls("synthesize"),
        "fourier.synthesize_s": inclusive(by_name("synthesize")),
        "fourier.strip_norm_calls": calls("strip_norm"),
        "fourier.strip_norm_s": inclusive(by_name("strip_norm")),
        "fourier.points": count("points", "analyze", "synthesize"),
        "diophantine.scan_calls": calls("estimate_gamma", "check_diophantine"),
        "diophantine.scan_s": inclusive(lambda s: s.layer == "diophantine"),
        "diophantine.vectors": count("vectors", "estimate_gamma", "check_diophantine"),
        "hamiltonian.jet_calls": per_torus((s, 1) for s in outer_jets),
        "hamiltonian.jet_points": per_torus((s, s.counts["points"]) for s in outer_jets),
        "hamiltonian.jet_s": per_torus((s, s.duration) for s in outer_jets),
        "cohomology.solve_calls": calls("solve_cohomological"),
        "cohomology.modes": count("modes", "solve_cohomological"),
        "cohomology.solve_s": inclusive(by_name("solve_cohomological")),
        "solver.newton_step_calls": steps,
        "solver.newton_step_self_s": layer_self("solver", "newton_step"),
        "solver.invariance_error_calls": calls("invariance_error"),
        "solver.invariance_error_s": inclusive(by_name("invariance_error")),
        "solver.nondegeneracy_calls": calls("nondegeneracy"),
        "solver.nondegeneracy_s": inclusive(by_name("nondegeneracy")),
        "solver.iterations": count("iterations", "solve_torus"),
        "solver.refinements": count("refinements", "solve_torus"),
        "smoothing.cutoff_s": inclusive(by_name("cutoff_extend")),
        "smoothing.ladder_s": inclusive(by_name("build_smoothing_sequence")),
        "smoothing.ladder_rungs": count("rungs", "build_smoothing_sequence"),
        "smoothing.bernstein_nd_calls": calls("bernstein_nd"),
        "smoothing.bernstein_nd_s": inclusive(by_name("bernstein_nd")),
        "smoothing.cl_gap_calls": calls("cl_gap"),
        "smoothing.cl_gap_s": inclusive(by_name("cl_gap")),
        "smoothing.bump_distance_calls": calls("bump_distance"),
        "smoothing.bump_distance_points": count("points", "bump_distance"),
        "smoothing.bump_anchors": float(max(
            (s.counts["anchors"] for s in spans if s.name == "bump_distance"),
            default=0,
        )),
        "smoothing.bump_distance_s": inclusive(by_name("bump_distance")),
        "driver.run_scheme_s": inclusive(by_name("run_scheme")),
        "driver.stages": count("stages", "run_scheme"),
        "cli.command_s": inclusive(by_name("main")),
    }
    for layer in ("fourier", "diophantine", "hamiltonian", "cohomology", "solver",
                  "smoothing", "driver", "cli"):
        m[f"{layer}.self_s"] = layer_self(layer)
    # ratios; their base is solver.newton_step_calls
    m["hamiltonian.jets_per_step"] = m["hamiltonian.jet_calls"] / steps if steps else 0.0
    m["solver.defects_per_step"] = (
        m["solver.invariance_error_calls"] / steps if steps else 0.0
    )
    return m
