"""One benchmark process: import kamtori, set a workload up, measure it.

Started by run.py, never by hand.  ``--spawned-at`` is the CLOCK_MONOTONIC
reading taken just before this process was started, so the reported set-up
time covers interpreter start, ``import kamtori``, input generation, model
construction and frequency certification.  The reference kernel runs right
after set-up, so that run.py can scale the set-up time to the kernel's
nominal speed.  The process prints one JSON line: its set-up time and,
unless ``--setup-only``, every measured unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("KAMTORI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_kamtori():
    sys.path.insert(0, str(SRC))
    import kamtori

    where = Path(kamtori.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"kamtori imported from {where}, not from {SRC}")


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "kamtori").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def trace_metrics(tracer, units) -> dict:
    from tracing import layer_metrics

    tori = len(units)
    metrics = layer_metrics(tracer.spans, tori)
    plain = sum(u["seconds"] for u in units) / tori
    traced = sum(u["traced_seconds"] for u in units) / tori
    metrics.update({
        "trace.tori": tori,
        "trace.spans": sum(1 for s in tracer.spans if s.unit != "setup") / tori,
        "trace.untraced_s": plain,
        "trace.overhead_s": traced - plain,
        "trace.overhead_ratio": (traced - plain) / plain,
    })
    for key in ("files_written", "bytes_written"):
        metrics[f"cli.{key}"] = sum(u.get(key, 0) for u in units) / tori
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    _import_kamtori()
    from bench import measure
    from reference import Reference
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        state = workload.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    reference = Reference().seconds
    out = {"setup_s": setup_s, "setup_ref_s": reference()}
    if not args.setup_only:
        units = measure(workload, state, args.seconds, tracer,
                        reference=None if tracer else reference)
        out["units"] = units
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["provenance"] = provenance(args.workload, args.seed)
        if tracer is not None:
            out["layers"] = trace_metrics(tracer, units)
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
