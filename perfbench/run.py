"""kamtori benchmark: time to a converged, certified torus.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, metrics and units are listed in BENCHMARK.json at the root.
Each run starts fresh worker processes (perfbench/worker.py), one at a
time, with KAMTORI_THREADS unset and library thread pools capped at the
core count.  With ``--trace 0`` it reports the end-to-end metrics:

  setup_s        median over SETUP_SAMPLES fresh processes of the time from
                 process start to the first torus (import, inputs, models,
                 frequency certification), in seconds at the reference
                 kernel's nominal speed (reference.NOMINAL_S);
  torus_p50_ref  median time per torus, in units of the reference kernel
                 (reference.py): the median of its samples taken within
                 5 s of that torus;
  tori_per_kref  correct tori per 1000 reference-kernel times of work;
  peak_rss_mb    peak resident memory of the measuring process.

Torus times are reported against the reference kernel because on a shared
machine the same work runs up to twice as slow for tens of seconds at a
time; the plain wall-clock figures (set-up seconds, tori_per_s,
torus_p50_s and, with at least 20 tori, torus_tail_s) are printed and kept
in the record.  With
``--trace 1`` one process runs every torus untraced and then traced on
the same inputs and reports the per-layer metrics plus the tracing
overhead.

Every unit passes a correctness gate outside its timed region; a unit that
raises or fails its gate counts in ``failed`` and makes ``correct`` false.
A record with provenance and every unit's result goes to
.perfbench/<workload>-seed<N>-trace<T>.json, and the spans of a traced
run to .perfbench/<workload>-seed<N>.spans.jsonl.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import summarize
from reference import NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
BUDGET_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def child_env(nproc: int) -> dict:
    """Environment with one scan thread and no pool larger than nproc."""
    env = dict(os.environ)
    env.pop("KAMTORI_THREADS", None)
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def spawn(args, env, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at"]
    start = time.monotonic()
    proc = subprocess.run(
        cmd + [repr(start)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _number(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kamtori" / "__init__.py").is_file():
        print(f"no kamtori sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    tag = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]

    def setup_only():
        return spawn(common + ["--setup-only"], env, deadline - time.monotonic())

    # set-up samples before and after the measuring process, which takes
    # its own: spread over the run, they span more than one period of the
    # machine's speed
    before = (SETUP_SAMPLES - 1) // 2
    after = SETUP_SAMPLES - 1 - before
    try:
        setups = [] if args.trace else [setup_only() for _ in range(before)]
        extra = ["--spans", str(OUT / f"{tag}.spans.jsonl")] if args.trace else []
        run = spawn(common + extra, env, deadline - time.monotonic())
        setups.append(run)
        if not args.trace:
            setups += [setup_only() for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(run["units"])
    if args.trace:
        wanted = spec["per_layer"]
        values = run["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(
                p["setup_s"] * NOMINAL_S / p["setup_ref_s"] for p in setups),
            "tori_per_kref": summary["tori_per_kref"],
            "torus_p50_ref": summary["torus_p50_ref"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }

    tail = summary["torus_tail"]
    record = {
        "provenance": dict(run["provenance"], git_commit=git_commit(),
                           argv=sys.argv[1:]),
        "setup_samples": [{k: p[k] for k in ("setup_s", "setup_ref_s")}
                          for p in setups],
        "peak_rss_mb": run["peak_rss_mb"],
        "summary": dict(summary, torus_tail=tail and {
            "percentile": tail[0], "value_s": tail[1], "samples": tail[2]}),
        "metrics": metrics,
        "units": run["units"],
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1, default=str) + "\n")

    print("set-up wall seconds: " + " ".join(f"{p['setup_s']:.4g}" for p in setups))
    print(f"{args.workload} seed {args.seed}: {summary['attempted']} tori, "
          f"{summary['failed']} failed, fail_ratio {summary['fail_ratio']:.4g}, "
          f"tori_per_s {summary['tori_per_s']:.6g}, "
          f"torus_p50_s {summary['torus_p50_s']:.6g}")
    if tail is None:
        print(f"torus_tail_s: none (N = {summary['attempted']} < 20)")
    else:
        print(f"torus_tail_s: p{tail[0]:g} = {tail[1]:.6g} s (N = {tail[2]})")
    hashes = [u["certificate_sha256"] for u in run["units"] if "certificate_sha256" in u]
    if hashes:
        print("certificate sha256: " + " ".join(h[:16] for h in hashes))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
