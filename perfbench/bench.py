"""Measurement loop, correctness accounting and summary statistics.

Kept free of kamtori imports so the rules here can be tested with fake
workloads: a unit that raises, does not converge or fails its gate counts
as failed and the loop goes on with the next unit.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback

__all__ = ["TAIL_LADDER", "measure", "summarize", "tail_percentile"]

# percentiles tried for the tail, highest last
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10
REFERENCE_EVERY_S = 1.0
WINDOW_S = 5.0


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the p-th percentile of N sorted
    samples is the ceil(p N / 100)-th smallest.  Returns (p, value, N),
    or None when no percentile qualifies, which is the case for N < 20.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, xs[rank - 1], n)
    return best


def _error_text(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename.rsplit('/', 1)[-1]}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _timed(workload, state, prep, clock):
    t0 = clock()
    try:
        result = workload.run(state, prep)
    except Exception as exc:  # a failed unit is counted, never fatal
        return None, clock() - t0, _error_text(exc)
    return result, clock() - t0, None


def _gate(workload, state, prep, result, error):
    if error is not None:
        return {"ok": False, "error": error}
    try:
        detail = workload.check(state, prep, result)
    except Exception as exc:
        return {"ok": False, "error": _error_text(exc)}
    return detail


def measure(workload, state, seconds: float, tracer=None, clock=time.perf_counter,
            reference=None):
    """Run units until their timed work adds up to ``seconds``.

    Only ``workload.run`` is timed.  Inputs are prepared before the timer
    starts, and each unit passes its correctness gate and releases its
    result before the next unit starts, so memory does not grow with the
    number of units.  With a tracer, each unit runs twice on the same
    inputs, untraced and then traced: the difference is the tracing
    overhead, and both runs must agree.

    ``reference`` is a callable returning the duration of a fixed kernel.
    It runs before the first unit, after the last one and between units at
    least every REFERENCE_EVERY_S seconds.  Each unit gets ``ref_s``, the
    median of the samples taken from WINDOW_S seconds before it starts to
    WINDOW_S seconds after it ends: the median ignores a sample that a
    burst of other work on the machine slowed down.
    """
    units = []
    samples = []  # (clock when taken, kernel seconds)

    def sample():
        samples.append((clock(), reference()))

    busy = 0.0
    if reference is not None:
        sample()
    while not units or busy < seconds:
        i = len(units)
        prep = workload.prepare(state, i, "plain")
        begin = clock()
        result, dt, error = _timed(workload, state, prep, clock)
        rec = {"unit": i, "begin_s": begin, "seconds": dt,
               **_gate(workload, state, prep, result, error)}
        workload.release(prep)
        del result
        busy += dt
        if tracer is not None:
            prep = workload.prepare(state, i, "traced")
            tracer.unit = str(i)
            with tracer:
                result, tdt, error = _timed(workload, state, prep, clock)
            tracer.unit = "setup"
            traced = _gate(workload, state, prep, result, error)
            workload.release(prep)
            del result
            busy += tdt
            agree = workload.agree(rec, traced)
            rec.update(traced_seconds=tdt, traced=traced, traced_agrees=agree,
                       ok=bool(rec["ok"] and traced["ok"] and agree))
        units.append(rec)
        if reference is not None and clock() - samples[-1][0] >= REFERENCE_EVERY_S:
            sample()
    if reference is not None:
        if samples[-1][0] < units[-1]["begin_s"]:
            sample()
        for u in units:
            lo = u["begin_s"] - WINDOW_S
            hi = u["begin_s"] + u["seconds"] + WINDOW_S
            u["ref_s"] = statistics.median(r for t, r in samples if lo <= t <= hi)
    return units


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def summarize(units):
    """End-to-end numbers of one measured run.

    A failed unit counts as infinitely slow in the latency percentiles and
    does not count as a torus in the throughput.
    """
    attempted = len(units)
    failed = sum(1 for u in units if not u["ok"])
    busy = sum(u["seconds"] for u in units)
    latencies = [u["seconds"] if u["ok"] else math.inf for u in units]
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else math.nan,
        "tori_per_s": (attempted - failed) / busy if busy > 0 else math.nan,
        "torus_p50_s": _median(latencies),
        "torus_tail": tail_percentile(latencies),
        "timed_s": busy,
    }
    if all("ref_s" in u for u in units):
        # the same figures with each torus timed in units of the reference kernel
        busy_ref = sum(u["seconds"] / u["ref_s"] for u in units)
        out["tori_per_kref"] = 1000.0 * (attempted - failed) / busy_ref
        out["torus_p50_ref"] = _median(
            [u["seconds"] / u["ref_s"] if u["ok"] else math.inf for u in units]
        )
    return out
