"""One workload in one fresh process; prints a JSON record as its last line.

Started by ``run.py``, never by hand.  Modes:

- ``setup``: import the package and run the workload's warm-up calls, then
  report the elapsed time (one ``setup_s`` sample);
- ``measure``: set up, then repeat the timed unit, untraced;
- ``trace``: install the span wrappers right after import, set up, then
  repeat the unit, traced.

``--units N`` runs exactly N units; ``--units 0`` repeats units for
``--seconds`` seconds (at least ``MIN_UNITS``).  Output checks run after
each unit, outside its timing.  A fixed pure-Python loop is timed at start,
after set-up and after every unit: ``setup_host_s`` is the mean of the two
timings around set-up, ``host_s`` lists the timings from set-up on.
"""

import time


def host_loop_s() -> float:
    """Median of five timings of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


HOST_AT_START = host_loop_s()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_UNITS = 3


def _import_package():
    sys.path.insert(0, str(SRC))
    import channelmoments

    where = Path(channelmoments.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"channelmoments imported from {where}, not from {SRC}")
    import workloads  # imports every layer module of the package

    return workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--units", type=int, default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--references", required=True)
    p.add_argument("--spans", help="trace mode: write the spans here (gzip JSON lines)")
    args = p.parse_args(argv)

    workloads = _import_package()
    tr = None
    if args.mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tr.install()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.pick(args.seed, args.scale)
    wl.setup(inputs)
    setup_s = time.perf_counter() - T0
    host = [host_loop_s()]
    record = {"setup_s": setup_s, "setup_host_s": (HOST_AT_START + host[0]) / 2,
              "inputs": inputs}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    with open(args.references) as fh:
        refs = json.load(fh)[args.scale]
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record.update(python=sys.version.split()[0], numpy=numpy.__version__,
                  blas=f"{blas.get('name')} {blas.get('version')}")

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    ctx = SimpleNamespace(workdir=workdir)
    unit_s, windows, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            first = len(tr.names) if tr else 0
            u0 = time.perf_counter()
            try:
                out = wl.unit(inputs, ctx)
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            u1 = time.perf_counter()
            host.append(host_loop_s())
            unit_s.append(u1 - u0)
            if tr:
                windows.append((first, len(tr.names), u1 - u0))
            if error is None:
                try:
                    checks = wl.check(inputs, out, refs)
                except Exception:
                    checks = [("check raised", False, traceback.format_exc(limit=3))]
            else:
                checks = [("unit raised", False, error)]
            attempted += len(checks)
            for name, ok, detail in checks:
                if not ok:
                    failed += 1
                    if len(failures) < 10:
                        failures.append(f"{name}: {detail}")
            done = len(unit_s)
            if args.units:
                if done >= args.units:
                    break
            elif done >= MIN_UNITS and time.perf_counter() - start + unit_s[-1] > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(unit_s=unit_s, host_s=host, attempted=attempted, failed=failed,
                  failures=failures, peak_rss_mb=peak_rss_mb)
    if tr:
        layer, notes = tracer.summarize(tr, windows)
        record.update(layer=layer, trace_notes=notes)
        if args.spans:
            tracer.write_spans(tr, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
