"""kineticlab benchmark: time to a verified result, end to end and per layer.

    python3 bench/run.py --workload {solve,measure,barrier} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  The
benchmark repeats the workload, one repetition at a time (a closed loop
with one client), each in a fresh interpreter started by
``bench/worker.py``, until ``S`` seconds are used: a repetition is not
started when one of median length would overrun ``S``, but at least one
runs (with ``--trace 1``, at least one plain and one traced).  Every op is
checked against its acceptance gate.

The second-to-last line of standard output records the machine, the
library versions, the thread setting and every op's outcome; the last line
is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` alternates plain and traced repetitions and
reports the per-layer metrics as medians over the traced ones, plus the
tracing overhead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
WORKLOAD_NAMES = ("solve", "measure", "barrier")

# One BLAS/OpenMP thread per workload process: on a small shared machine the
# default pool makes a dense step several times slower and measures the
# scheduler instead of the program.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# A run must end within 180 s even when a repetition hangs.
MAX_RUN_S = 170


def run_rep(workload: str, seed: int, trace: bool, toy: bool, out: str, timeout: float) -> dict:
    """One repetition in a fresh interpreter; raises if the worker fails."""
    os.makedirs(out)
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out", out] + (["--toy"] if toy else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(os.path.join(out, "result.json")) as fh:
        rep = json.load(fh)
    rep.update(traced=trace, wall_s=wall, setup_s=rep["ready"] - start)
    if trace:
        with open(os.path.join(out, "spans.json")) as fh:
            layers = tracing.summarize(json.load(fh))
        layers.update(rep["checks"])
        layers["cli.import_s"] = rep["import_s"]
        layers["trace.run_s"] = rep["run_s"]
        rep["layers"] = layers
    return rep


def repeat(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> list[dict]:
    """Repeat the workload for ``seconds``; with ``trace``, alternate plain
    and traced repetitions."""
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    reps: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            timeout = start + MAX_RUN_S - time.monotonic()
            reps.append(run_rep(workload, seed, traced, toy, os.path.join(tmp, f"rep{len(reps)}"), timeout))
            enough = len(reps) >= (2 if trace else 1)
            typical = statistics.median(r["wall_s"] for r in reps)
            if enough and time.monotonic() - start + typical > seconds:
                return reps
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def summarize(reps: list[dict], trace: bool) -> dict:
    """The result line: outcome counts over every op of every repetition,
    and the metric medians."""
    outcomes = [o for r in reps for o in r["ops"]]
    attempted = len(outcomes)
    failed = sum(o["status"] != "ok" for o in outcomes)
    if trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced) for name in tracing.PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = {name: statistics.median(r[name] for r in reps) for name in ("setup_s", "run_s", "peak_rss_mb")}
        values["ok_ratio"] = (attempted - failed) / attempted
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": all(o["status"] != "gate" for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def describe(reps: list[dict], workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Machine, versions, thread setting and per-op outcomes of a run."""
    ops: dict[str, dict] = {}
    for r in reps:
        for o in r["ops"]:
            entry = ops.setdefault(o["op"], {"seconds": [], "failed": 0, "details": []})
            entry["seconds"].append(o["seconds"])
            entry["failed"] += o["status"] != "ok"
            if o["detail"] not in entry["details"]:
                entry["details"].append(o["detail"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": [{"traced": r["traced"], "setup_s": r["setup_s"], "run_s": r["run_s"],
                         "peak_rss_mb": r["peak_rss_mb"]} for r in reps],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": THREADS,
        "versions": reps[0]["versions"],
        "ops": {name: {"median_s": statistics.median(e["seconds"]), "failed": e["failed"], "details": e["details"]}
                for name, e in ops.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kineticlab", "cli.py")):
        print(f"error: no kineticlab source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    reps = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(describe(reps, args.workload, args.seed, args.seconds, bool(args.trace))))
    print(json.dumps(summarize(reps, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
