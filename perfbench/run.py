"""Benchmark of channelmoments: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-t4 --seed 1 --seconds 20 --trace 0

Each workload runs in fresh single-threaded Python processes (``worker.py``)
that import the package from ``src/`` of the same checkout.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
three to five fresh-process set-ups (import plus the S_t table warm-ups),
``wall_s`` the median time of one unit of the workload's work, repeated for
``--seconds``, and ``peak_rss_mb`` the measuring process's peak resident
memory.  Both times are host-adjusted (``HOST_NOMINAL_S``); the raw
medians are in the record.  ``--trace 1`` runs a fixed number of units twice, untraced and with
span wrappers installed (``tracer.py``), and prints the per-layer metrics;
``trace_overhead_s`` is the difference of the two median unit times.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts output
checks, ``failed`` counts failed checks and raised calls.  The line before
it is the full record with provenance, the inputs the seed picked, every
unit time and the trace notes; it is also saved under ``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only processes before the measuring one: four, or fewer once they
# have spent 10 s (float-t6 builds its tables for about 5 s each time).
SETUP_ONLY_MAX = 4
SETUP_ONLY_BUDGET_S = 10.0
DEADLINE_S = 170  # the whole run, so that it ends within 180 s
# Units per traced run: fixed, so that call counts repeat exactly.
TRACE_UNITS = {"exact-t4": 5, "float-t6": 3, "circuit-n5": 3, "cli-session": 3}
# Host speed varies by tens of percent from one minute to the next on shared
# cloud VMs (SMT neighbours, frequency).  Times are rescaled to the host
# speed at which the worker's fixed calibration loop takes this long; the
# loop does not touch the package, so only host drift cancels.
HOST_NOMINAL_S = 0.015
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    pass


def _worker(args, mode: str, units: int = 0, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--units", str(units), "--scale", args.scale, "--references", args.references]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _git(*argv) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "--no-optional-locks", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        raise OSError(proc.stderr.strip())
    return proc.stdout.strip()


def provenance(args, worker_record: dict) -> dict:
    try:
        sha = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        sha, dirty = "unknown (not a git checkout)", None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": worker_record.get("python"),
        "numpy": worker_record.get("numpy"),
        "blas": worker_record.get("blas"),
        "blas_threads": min(int(SINGLE_THREAD["OPENBLAS_NUM_THREADS"]), nproc),
        "nproc": nproc,
        "seed": args.seed,
        "inputs": worker_record.get("inputs"),
        "scale": args.scale,
        "seconds": args.seconds,
    }


def median_unit_s(w: dict) -> float:
    """Median unit time of one worker, rescaled by its median host-loop time."""
    return statistics.median(w["unit_s"]) * HOST_NOMINAL_S / statistics.median(w["host_s"])


def run_untraced(args) -> tuple:
    workers = []
    while (len(workers) < SETUP_ONLY_MAX
           and sum(w["setup_s"] for w in workers) < SETUP_ONLY_BUDGET_S):
        workers.append(_worker(args, "setup"))
    m = _worker(args, "measure")
    workers.append(m)
    setups = [w["setup_s"] for w in workers]
    metrics = {
        "wall_s": median_unit_s(m),
        "setup_s": statistics.median(
            w["setup_s"] * HOST_NOMINAL_S / w["setup_host_s"] for w in workers),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    record = {"raw_wall_s": statistics.median(m["unit_s"]),
              "raw_setup_s": statistics.median(setups), "setup_samples_s": setups,
              "setup_host_s": [w["setup_host_s"] for w in workers],
              "unit_s": m["unit_s"], "host_s": m["host_s"], "failures": m["failures"]}
    return metrics, m, m["attempted"], m["failed"], record


def run_traced(args) -> tuple:
    units = TRACE_UNITS[args.workload]
    ref = _worker(args, "measure", units=units)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    spans = results / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tr = _worker(args, "trace", units=units, spans=spans)
    metrics = dict(tr["layer"])
    traced = median_unit_s(tr)
    untraced = median_unit_s(ref)
    metrics.update({"trace_overhead_s": traced - untraced, "trace.wall_s": traced,
                    "trace.untraced_wall_s": untraced})
    record = {"unit_s": tr["unit_s"], "untraced_unit_s": ref["unit_s"],
              "trace_notes": tr["trace_notes"], "spans_file": str(spans.relative_to(ROOT)),
              "failures": ref["failures"] + tr["failures"]}
    return (metrics, tr, ref["attempted"] + tr["attempted"], ref["failed"] + tr["failed"],
            record)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the harness self-check sizes")
    p.add_argument("--references", default=str(HERE / "references.json"))
    args = p.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "channelmoments" / "__init__.py").is_file():
        print(f"error: no channelmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        values, worker_record, attempted, failed, extra = (
            run_traced(args) if args.trace else run_untraced(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, worker_record),
        "error_rate": failed / attempted,
        "absent_metrics": absent,
        "metrics": metrics,
        **extra,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
