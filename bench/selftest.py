"""Fast self-test of the benchmark harness (about 15 s).

    python3 bench/selftest.py

Runs every workload at toy size, one plain and one traced repetition each,
and checks:

* metric names, units and workload names against ``BENCHMARK.json``;
* that no toy op misses its gate, and that tracing changes no reported
  number (the traced repetition's gate details equal the plain one's);
* that the traced run reaches the layers each workload is meant to stress;
* that a failing op (an exception, a missed gate, a non-zero CLI exit) is
  counted in ``failed`` and ``ok_ratio``, never skipped;
* self-time arithmetic on hand-made spans;
* that ``run.py`` exits non-zero, printing nothing, without the source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import tracing

sys.path.insert(0, run.SRC)
import worker  # noqa: E402
import workloads  # noqa: E402


def check(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def check_benchmark_file() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS),
          "workload names differ between BENCHMARK.json, run.py and workloads.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(declared == table, f"BENCHMARK.json {key} differs from the harness: {set(declared) ^ set(table)}")


def check_result_line(res: dict, table: dict) -> None:
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(res)}")
    check(res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"], "outcome counts")
    check(list(res["metrics"]) == list(table), f"metric names {sorted(set(res['metrics']) ^ set(table))}")
    for name, m in res["metrics"].items():
        check(m["unit"] == table[name][0], f"{name} unit {m['unit']}")
        check(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r}")


# layers each workload must reach at toy size
EXPECTED_LAYERS = {
    "solve": ["solver.step_transport.calls", "solver.step_collision.calls", "solver.step_collision.gflop_computed",
              "operators.assemble_operator_matrix.calls", "kernels.one_sided_tail.calls",
              "kernels.eval.SymmetricPerturbation.points", "fundsol.j0_table.calls",
              "fundsol.modified_convolution.calls", "cli.main.calls", "cli.Emitter.bytes_written"],
    "measure": ["solver.solve.calls", "fields.save_field.bytes", "fields.load_field.bytes",
                "fields.PhaseField.sample.points", "geometry.KineticCylinder.nodes.points",
                "harnack.tail_bound_ratio.self_s", "harnack.fundamental_field.sample.calls",
                "kernels.check_coercivity.self_s", "kernels.one_sided_tail.calls",
                "fundsol.FundamentalSolutionTable.sample.points", "aronson.decay_envelope_check.self_s",
                "check.fundsol_mass_err", "cli.Emitter.bytes_written"],
    "barrier": ["aronson.k_threshold.self_s", "aronson.region_samples.self_s", "aronson.barrier_residual.calls",
                "aronson.barrier_residual.p999_us", "kernels.eval.FractionalLaplacian.calls"],
}


def check_workload(name: str) -> None:
    reps = run.repeat(name, seed=0, seconds=0, trace=True, toy=True)
    check([r["traced"] for r in reps] == [False, True], "one plain and one traced repetition")
    n_ops = len(reps[0]["ops"])
    for trace, table in ((False, run.END_TO_END), (True, tracing.PER_LAYER)):
        res = run.summarize(reps, trace)
        check_result_line(res, table)
        check(res["attempted"] == 2 * n_ops, f"{name}: attempted {res['attempted']} != {2 * n_ops}")
        check(res["correct"], f"{name}: a toy op missed its gate: {reps[0]['ops']}")
    plain, traced = ([(o["op"], o["status"], o["detail"]) for o in r["ops"]] for r in reps)
    check(plain == traced, f"{name}: tracing changed the outcomes:\n{plain}\n{traced}")
    layers = run.summarize(reps, True)["metrics"]
    for metric in EXPECTED_LAYERS[name]:
        check(layers[metric]["value"] > 0, f"{name}: traced run never reached {metric}")
    if name == "barrier":
        check(layers["aronson.barrier_residual.calls"]["value"] >= 6 * workloads.SIZES["toy"]["region_samples"],
              "barrier: residual calls")
    print(f"ok  {name}: {n_ops} ops x 2 repetitions, {sum(o[1] != 'ok' for o in plain)} failing per repetition")


class FailingWorkload(workloads.Workload):
    def ops(self):
        def boom():
            raise RuntimeError("injected failure")

        return [
            ("passes", lambda: 1.0, lambda r: (True, "fine")),
            ("raises", boom, lambda r: (True, "unreachable")),
            ("misses_gate", lambda: 2.0, lambda r: (r < 1.0, f"value={r}")),
            self.cli_op("cli_exit", ["fundsol", "--s", "1.5"], lambda out: (True, "unreachable")),
        ]


def scratch_dir() -> str:
    os.makedirs(run.SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(dir=run.SCRATCH)


def remove_scratch(tmp: str) -> None:
    shutil.rmtree(tmp)
    try:
        os.rmdir(run.SCRATCH)
    except OSError:
        pass


def check_failures_counted() -> None:
    tmp = scratch_dir()
    try:
        outcomes = worker.run_ops(FailingWorkload(0, workloads.SIZES["toy"], tmp))
    finally:
        remove_scratch(tmp)
    check([o["status"] for o in outcomes] == ["ok", "error", "gate", "error"], f"statuses {outcomes}")
    check("injected failure" in outcomes[1]["detail"], "exception text recorded")
    check("exit 2" in outcomes[3]["detail"] and "s in (0, 1)" in outcomes[3]["detail"], "CLI error text recorded")
    reps = [{"ops": outcomes, "setup_s": 1.0, "run_s": 1.0, "peak_rss_mb": 1.0}] * 2
    res = run.summarize(reps, False)
    check((res["attempted"], res["failed"]) == (8, 6), f"counts {res['attempted']}, {res['failed']}")
    check(res["metrics"]["ok_ratio"]["value"] == 0.25 and not res["correct"], "ok_ratio and correct")
    print("ok  failing ops are counted: exception, missed gate, non-zero CLI exit")


def check_self_time() -> None:
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 7], ["c", 3.0, 4.0, 1, 0], ["b", 6.0, 7.0, 0, 3]]
    totals = tracing.layer_totals(spans)
    self_s = {name: t["self_s"] for name, t in totals.items()}
    check(self_s == {"a": 6.0, "b": 3.0, "c": 1.0}, f"self times {self_s}")
    check((totals["b"]["calls"], totals["b"]["work"]) == (2, 10), "calls and work counts")
    check(set(tracing.summarize({"spans": spans, "counters": {}})) == set(tracing.PER_LAYER), "summary keys")
    print("ok  self time = duration minus direct children")


def check_no_source() -> None:
    tmp = scratch_dir()
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(run.ROOT, "bench"), os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=120)
    finally:
        remove_scratch(tmp)
    check(proc.returncode != 0 and proc.stdout == "", f"exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  without the source tree: exit", proc.returncode, "and no result")


def main() -> int:
    check_benchmark_file()
    print("ok  BENCHMARK.json matches the harness")
    check_self_time()
    check_failures_counted()
    check_no_source()
    for name in run.WORKLOAD_NAMES:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
