"""Tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import itertools
import math

import pytest

from bench import measure, summarize, tail_percentile
from tracing import Span, Target, Tracer, _canonical_vectors, layer_metrics, self_times


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_no_tail_below_twenty_samples(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


def test_tail_at_twenty_samples_is_the_median_with_ten_beyond():
    xs = [float(i) for i in range(1, 21)]
    assert tail_percentile(xs) == (50.0, 10.0, 20)


@pytest.mark.parametrize(
    "n, p",
    [(99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    xs = list(range(n, 0, -1))  # unsorted input
    got_p, value, count = tail_percentile(xs)
    assert (got_p, count) == (p, n)
    assert sum(1 for x in xs if x > value) >= 10


def test_tail_counts_failures_as_slowest():
    xs = [1.0] * 19 + [math.inf]
    assert tail_percentile(xs) == (50.0, 1.0, 20)


# -- self time ------------------------------------------------------------------


def _span(name, start, end, parent=-1, unit="0", layer="fourier", **counts):
    return Span(name, layer, start, end, parent, unit, counts)


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        _span("strip_norm", 0.0, 10.0),
        _span("synthesize", 1.0, 3.0, parent=0),
        _span("synthesize", 2.0, 5.0, parent=0),  # overlaps its sibling
        _span("analyze", 1.5, 2.5, parent=1),  # grandchild: not the root's child
        _span("synthesize", 7.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 1.0, 5.0])


def test_layer_metrics_nested_spans_and_per_torus_mean():
    spans = [
        _span("estimate_gamma", 0.0, 2.0, unit="setup", layer="diophantine",
              vectors=256),
        _span("strip_norm", 0.0, 4.0, unit="0"),
        _span("synthesize", 1.0, 2.0, parent=1, unit="0", points=9),
        _span("strip_norm", 10.0, 12.0, unit="1"),
        _span("synthesize", 10.0, 11.5, parent=3, unit="1", points=9),
    ]
    m = layer_metrics(spans, tori=2)
    # set-up counts once, unit spans are averaged over the two tori
    assert m["diophantine.scan_calls"] == 1
    assert m["diophantine.vectors"] == 256
    assert m["diophantine.scan_s"] == pytest.approx(2.0)
    assert m["fourier.strip_norm_calls"] == 1
    assert m["fourier.strip_norm_s"] == pytest.approx(3.0)
    assert m["fourier.synthesize_s"] == pytest.approx(1.25)
    assert m["fourier.points"] == 9
    # the synthesize inside strip_norm is not counted twice in the self time
    assert m["fourier.self_s"] == pytest.approx(3.0)
    assert m["solver.newton_step_calls"] == 0
    assert m["hamiltonian.jets_per_step"] == 0.0


def test_recursive_calls_counted_each_time_but_timed_once():
    spans = [
        _span("bernstein_nd", 0.0, 8.0, layer="smoothing"),
        _span("bernstein_nd", 1.0, 3.0, parent=0, layer="smoothing"),
        _span("cl_gap", 4.0, 6.0, parent=0, layer="smoothing"),
    ]
    m = layer_metrics(spans, tori=1)
    assert m["smoothing.bernstein_nd_calls"] == 2
    assert m["smoothing.bernstein_nd_s"] == pytest.approx(8.0)
    assert m["smoothing.cl_gap_s"] == pytest.approx(2.0)
    assert m["smoothing.self_s"] == pytest.approx(8.0)


class Toy:
    @classmethod
    def make(cls):
        return cls()

    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


TOY_TARGETS = (
    Target("toy", "make", f"{__name__}:Toy", "make"),
    Target("toy", "outer", f"{__name__}:Toy", "outer"),
    Target("toy", "inner", f"{__name__}:Toy", "inner", lambda a, k, r: {"value": r}),
)


def test_tracer_links_parents_and_restores_originals():
    original = Toy.__dict__["outer"]
    tracer = Tracer(TOY_TARGETS)
    with tracer:
        tracer.unit = "7"
        assert Toy.make().outer() == 2
    assert Toy.__dict__["outer"] is original
    assert isinstance(Toy.__dict__["make"], classmethod)
    names = [(s.name, s.parent, s.unit) for s in tracer.spans]
    assert names == [("make", -1, "7"), ("outer", -1, "7"), ("inner", 1, "7"),
                     ("inner", 1, "7")]
    assert tracer.spans[2].counts == {"value": 1}
    outer_self = self_times(tracer.spans)[1]
    children = tracer.spans[2].duration + tracer.spans[3].duration
    assert outer_self == pytest.approx(tracer.spans[1].duration - children)
    # untraced calls record nothing
    Toy().outer()
    assert len(tracer.spans) == 4


def test_canonical_vector_count_matches_enumeration():
    for n, horizon in [(1, 7), (2, 6), (3, 5)]:
        brute = 0
        for k in itertools.product(range(-horizon, horizon + 1), repeat=n):
            first = next((v for v in k if v), 0)
            if first > 0 and sum(map(abs, k)) <= horizon:
                brute += 1
        assert _canonical_vectors(n, horizon) == brute
    assert _canonical_vectors(2, 256) == 256 * 257


# -- failure accounting -----------------------------------------------------------


class FakeWorkload:
    """Unit i takes 1 s; some raise, some fail or break their gate."""

    def __init__(self, raises=(), gate_fails=(), gate_raises=()):
        self.raises, self.gate_fails, self.gate_raises = raises, gate_fails, gate_raises
        self.released = []

    def prepare(self, state, i, tag):
        return {"i": i, "tag": tag}

    def run(self, state, prep):
        state["now"] += 1.0
        if prep["i"] in self.raises:
            raise ValueError("retained modes reach |k|_1 = 128")
        return prep["i"]

    def check(self, state, prep, result):
        if prep["i"] in self.gate_raises:
            raise KeyError("converged")
        return {"ok": prep["i"] not in self.gate_fails, "value": result}

    def agree(self, a, b):
        return a.get("value") == b.get("value")

    def release(self, prep):
        self.released.append((prep["i"], prep["tag"]))


def _run(workload, seconds, tracer=None):
    state = {"now": 0.0}
    return measure(workload, state, seconds, tracer, clock=lambda: state["now"])


def test_raising_unit_counts_as_failed_and_the_run_goes_on():
    units = _run(FakeWorkload(raises={1}, gate_fails={3}, gate_raises={4}), 6.0)
    assert len(units) == 6
    assert [u["ok"] for u in units] == [True, False, True, False, False, True]
    assert units[1]["error"].startswith("ValueError: retained modes")
    assert units[4]["error"].startswith("KeyError")
    s = summarize(units)
    assert (s["attempted"], s["failed"]) == (6, 3)
    assert s["fail_ratio"] == pytest.approx(0.5)
    assert s["tori_per_s"] == pytest.approx(3 / 6.0)
    # failed units count as slowest: three infinite latencies out of six
    assert s["torus_p50_s"] == math.inf


def test_no_failures_gives_zero_fail_ratio():
    s = summarize(_run(FakeWorkload(), 3.0))
    assert (s["attempted"], s["failed"], s["fail_ratio"]) == (3, 0, 0.0)
    assert s["torus_p50_s"] == 1.0


def test_at_least_one_unit_is_attempted():
    assert len(_run(FakeWorkload(), 0.0)) == 1


class FakeTracer:
    def __init__(self):
        self.unit = "setup"
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self

    def __exit__(self, *exc):
        pass


def test_traced_rerun_must_agree_with_the_plain_run():
    class Drifting(FakeWorkload):
        def run(self, state, prep):
            out = super().run(state, prep)
            return out + (prep["tag"] == "traced" and prep["i"] == 1)

    tracer = FakeTracer()
    workload = Drifting()
    units = _run(workload, 4.0, tracer)
    assert tracer.entered == len(units) == 2
    assert [u["traced_agrees"] for u in units] == [True, False]
    assert [u["ok"] for u in units] == [True, False]
    assert sorted(workload.released) == [(0, "plain"), (0, "traced"), (1, "plain"),
                                         (1, "traced")]


def test_each_unit_is_timed_against_the_median_reference_sample_near_it():
    # units take 1 s, so the kernel is sampled once a second and each unit
    # sees the samples within 5 s; a burst at t = 3, then the machine halves
    # its speed
    readings = iter([10.0, 10.0, 10.0, 40.0] + [10.0] * 6 + [20.0] * 11)
    state = {"now": 0.0}
    units = measure(FakeWorkload(), state, 20.0, clock=lambda: state["now"],
                    reference=lambda: next(readings))
    assert len(units) == 20
    refs = [u["ref_s"] for u in units]
    assert refs[0] == refs[2] == 10.0  # the burst is outvoted
    assert refs[9] == 15.0  # six samples of each speed within 5 s
    assert refs[17] == 20.0
    s = summarize(units)
    assert s["torus_p50_ref"] == pytest.approx((1 / 20.0 + 1 / 15.0) / 2)
    assert s["tori_per_kref"] == pytest.approx(
        1000.0 * 20 / sum(1 / r for r in refs))
