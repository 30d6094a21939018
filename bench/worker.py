"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --out DIR [--toy]

Imports ``kineticlab.cli`` (timed as ``import_s``), builds the workload's
inputs, notes the ``time.monotonic()`` reading at which they are ready,
then runs and gates every op.  Writes ``DIR/result.json``; with
``--trace 1`` the spans go to ``DIR/spans.json`` when the repetition ends.
``bench/run.py`` starts this script with the BLAS thread pools pinned and
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_ops(workload) -> list[dict]:
    """Run every op of ``workload`` in order; an op that raises or misses
    its gate is recorded as failed, never skipped."""
    outcomes = []
    for name, run, gate in workload.ops():
        t0 = time.perf_counter()
        try:
            report = run()
        except Exception as exc:  # the op's failure is the measurement
            outcomes.append({"op": name, "seconds": time.perf_counter() - t0, "status": "error",
                             "detail": f"{type(exc).__name__}: {exc}"})
            continue
        seconds = time.perf_counter() - t0
        try:
            passed, detail = gate(report)
        except Exception as exc:  # an unreadable report misses its gate
            passed, detail = False, f"unreadable report: {type(exc).__name__}: {exc}"
        outcomes.append({"op": name, "seconds": seconds, "status": "ok" if passed else "gate", "detail": detail})
    return outcomes


def library_versions() -> dict:
    import numpy
    import scipy

    versions = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        versions["blas"] = "unknown"
    return versions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import kineticlab.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(kineticlab.cli.__file__).startswith(SRC + os.sep):
        print(f"error: kineticlab imported from {kineticlab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    size = workloads.SIZES["toy" if args.toy else "full"]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, args.out)
    try:
        workload.setup()
        ready = time.monotonic()
        t_run = time.perf_counter()
        outcomes = run_ops(workload)
        run_s = time.perf_counter() - t_run
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.json"))

    result = {
        "ready": ready,
        "import_s": import_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcomes,
        "checks": workload.checks,
        "versions": library_versions(),
    }
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
