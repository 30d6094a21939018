"""In-memory call tracing of kineticlab's public layers.

``install`` wraps public functions and methods without touching the
package source:

* a module-level function is rebound under every name that refers to
  it in any ``kineticlab`` module (``kineticlab.solver.solve`` and
  ``kineticlab.cli.solve`` are one function imported twice), so calls
  made from inside the package are traced as well;
* a method is replaced on its class, so kernel and field objects keep
  their own classes and every ``isinstance`` branch in the package
  (for example the closed forms of ``FractionalLaplacian``) still fires.

Each traced call appends one span ``[name, start, end, parent, count]``
to a list held in memory; ``dump`` writes the list out once, when the
repetition ends.  ``summarize`` turns the spans into per-layer metrics;
a span's self time is its duration minus the durations of its direct
children, and its total time is the whole duration.  Kernel evaluations are too frequent for spans and are only
counted (calls and points per kernel class).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

MODULES = ("geometry", "kernels", "fields", "operators", "fundsol", "solver", "harnack", "aronson", "cli")

# Per-layer metrics in output order: name -> (unit, better).
PER_LAYER = {
    "solver.step_transport.calls": ("count", "lower"),
    "solver.step_transport.self_s": ("s", "lower"),
    "solver.step_transport.p50_ms": ("ms", "lower"),
    "solver.step_collision.calls": ("count", "lower"),
    "solver.step_collision.self_s": ("s", "lower"),
    "solver.step_collision.p50_ms": ("ms", "lower"),
    "solver.step_collision.gflop_computed": ("GFLOP", "lower"),
    "solver.step_collision.gflops": ("GFLOP/s", "higher"),
    "solver.solve.calls": ("count", "lower"),
    "solver.solve.self_s": ("s", "lower"),
    "operators.assemble_operator_matrix.calls": ("count", "lower"),
    "operators.assemble_operator_matrix.self_s": ("s", "lower"),
    "kernels.eval.FractionalLaplacian.calls": ("count", "lower"),
    "kernels.eval.FractionalLaplacian.points": ("count", "lower"),
    "kernels.eval.SymmetricPerturbation.calls": ("count", "lower"),
    "kernels.eval.SymmetricPerturbation.points": ("count", "lower"),
    "kernels.one_sided_tail.calls": ("count", "lower"),
    "kernels.one_sided_tail.self_s": ("s", "lower"),
    "kernels.check_coercivity.calls": ("count", "lower"),
    "kernels.check_coercivity.self_s": ("s", "lower"),
    "kernels.check_coercivity.total_s": ("s", "lower"),
    "fundsol.j0_table.calls": ("count", "lower"),
    "fundsol.j0_table.self_s": ("s", "lower"),
    "fundsol.FundamentalSolutionTable.sample.calls": ("count", "lower"),
    "fundsol.FundamentalSolutionTable.sample.points": ("count", "lower"),
    "fundsol.FundamentalSolutionTable.sample.self_s": ("s", "lower"),
    "fundsol.modified_convolution.calls": ("count", "lower"),
    "fundsol.modified_convolution.self_s": ("s", "lower"),
    "fields.PhaseField.sample.calls": ("count", "lower"),
    "fields.PhaseField.sample.points": ("count", "lower"),
    "fields.PhaseField.sample.self_s": ("s", "lower"),
    "fields.save_field.bytes": ("bytes", "lower"),
    "fields.save_field.self_s": ("s", "lower"),
    "fields.load_field.bytes": ("bytes", "lower"),
    "fields.load_field.self_s": ("s", "lower"),
    "geometry.KineticCylinder.nodes.calls": ("count", "lower"),
    "geometry.KineticCylinder.nodes.points": ("count", "lower"),
    "harnack.tail_bound_ratio.self_s": ("s", "lower"),
    "harnack.tail_bound_ratio.total_s": ("s", "lower"),
    "harnack.strong_harnack_ratio.self_s": ("s", "lower"),
    "harnack.degiorgi_trace.self_s": ("s", "lower"),
    "harnack.lower_bound_check.self_s": ("s", "lower"),
    "harnack.fundamental_field.sample.calls": ("count", "lower"),
    "aronson.barrier_residual.calls": ("count", "lower"),
    "aronson.barrier_residual.self_s": ("s", "lower"),
    "aronson.barrier_residual.p50_us": ("us", "lower"),
    "aronson.barrier_residual.p999_us": ("us", "lower"),
    "aronson.region_samples.self_s": ("s", "lower"),
    "aronson.k_threshold.self_s": ("s", "lower"),
    "aronson.decay_envelope_check.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.Emitter.bytes_written": ("bytes", "lower"),
    "cli.Emitter.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "check.xval_sup_rel_err": ("ratio", "lower"),
    "check.xval_mass_drift": ("ratio", "lower"),
    "check.barrier_max_residual": ("residual", "lower"),
    "check.fundsol_mass_err": ("ratio", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``count(*args, **kwargs)``, evaluated when the call returns or
        raises, gives the span's work count (points or bytes).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if count is not None:
                    rec[4] = count(*args, **kwargs)

        return traced

    def counter(self, name, fn, points):
        """Wrap ``fn`` so every call adds to ``name.calls`` and ``name.points``."""
        counters = self.counters
        calls_key, points_key = name + ".calls", name + ".points"
        counters[calls_key] = counters[points_key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[calls_key] += 1
            counters[points_key] += points(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _file_bytes(*paths) -> int:
    total = 0
    for p in paths:
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def _collision_flops(f, dt, op, scheme, lu=None) -> int:
    """Dense-algebra FLOPs of one ``step_collision`` from the matrix sizes:
    ``f @ M.T`` costs 2 nx nv^2, the two triangular solves 2 nx nv^2, and a
    factorization made inside the call 2/3 nv^3."""
    nx, nv = np.shape(f)
    if scheme == "explicit":
        return 2 * nx * nv * nv
    flops = 2 * nx * nv * nv
    if scheme == "cn":
        flops += 2 * nx * nv * nv
    if lu is None:
        flops += 2 * nv**3 // 3
    return flops


def _rebind(modules, owner, attr, wrapper) -> None:
    original = getattr(owner, attr)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap kineticlab's public layers so their calls land in ``tracer``."""
    mods = {m: importlib.import_module("kineticlab." + m) for m in MODULES}
    everywhere = list(mods.values())

    def file_bytes(path):
        return _file_bytes(path, path + ".json")

    functions = [
        ("solver", "step_transport", None),
        ("solver", "step_collision", _collision_flops),
        ("solver", "solve", None),
        ("operators", "assemble_operator_matrix", None),
        ("kernels", "check_coercivity", None),
        ("fundsol", "j0_table", None),
        ("fundsol", "modified_convolution", None),
        ("fields", "save_field", lambda f, path: file_bytes(path)),
        ("fields", "load_field", file_bytes),
        ("harnack", "tail_bound_ratio", None),
        ("harnack", "strong_harnack_ratio", None),
        ("harnack", "degiorgi_trace", None),
        ("harnack", "lower_bound_check", None),
        ("aronson", "barrier_residual", None),
        ("aronson", "region_samples", None),
        ("aronson", "k_threshold", None),
        ("aronson", "decay_envelope_check", None),
        ("cli", "main", None),
    ]
    for mod, name, count in functions:
        fn = getattr(mods[mod], name)
        _rebind(everywhere, mods[mod], name, tracer.span(f"{mod}.{name}", fn, count))

    kernels, cli = mods["kernels"], mods["cli"]
    for cls in (kernels.FractionalLaplacian, kernels.SymmetricPerturbation):
        cls._eval = tracer.counter(f"kernels.eval.{cls.__name__}", cls._eval,
                                   lambda self, t, x, v, w: np.broadcast(v, w).size)

    def emitted(self, name, *args, **kwargs):
        return _file_bytes(os.path.join(self.out_dir, name))

    methods = [
        (kernels.KernelSpec, "one_sided_tail", "kernels.one_sided_tail", None),
        (mods["fundsol"].FundamentalSolutionTable, "sample", "fundsol.FundamentalSolutionTable.sample",
         lambda self, x, v, t=None: np.broadcast(x, v).size),
        (mods["fields"].PhaseField, "sample", "fields.PhaseField.sample",
         lambda self, t, x, v: np.broadcast(t, x, v).size),
        (mods["geometry"].KineticCylinder, "nodes", "geometry.KineticCylinder.nodes",
         lambda self, nt, nx, nv: nt * nx * nv),
        (mods["harnack"].AnalyticField, "sample", "harnack.fundamental_field.sample", None),
        (cli.Emitter, "json", "cli.Emitter", emitted),
        (cli.Emitter, "csv", "cli.Emitter", emitted),
        (cli.Emitter, "finish", "cli.Emitter", lambda self: emitted(self, "manifest.json")),
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), count))


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_totals(spans: list) -> dict:
    """Per span name: call count, summed self time, summed work count and
    the list of call durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0, "durations": []})
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        t["work"] += count
        t["durations"].append(end - start)
    return totals


def summarize(dump: dict) -> dict:
    """Per-layer metric values of one traced repetition (0 for a layer the
    repetition never called)."""
    totals = layer_totals(dump["spans"])
    out = {name: 0.0 for name in PER_LAYER}
    out.update(dump["counters"])
    for name, t in totals.items():
        for key, value in (("calls", t["calls"]), ("self_s", t["self_s"]), ("total_s", sum(t["durations"])),
                           ("points", t["work"])):
            if f"{name}.{key}" in out:
                out[f"{name}.{key}"] = value

    def work(name):
        return totals[name]["work"] if name in totals else 0

    def durations(name):
        return totals[name]["durations"] if name in totals else []

    out["fields.save_field.bytes"] = work("fields.save_field")
    out["fields.load_field.bytes"] = work("fields.load_field")
    out["cli.Emitter.bytes_written"] = work("cli.Emitter")
    gflop = work("solver.step_collision") / 1e9
    out["solver.step_collision.gflop_computed"] = gflop
    collision_s = out["solver.step_collision.self_s"]
    out["solver.step_collision.gflops"] = gflop / collision_s if collision_s > 0 else 0.0
    for name in ("solver.step_transport", "solver.step_collision"):
        out[f"{name}.p50_ms"] = 1e3 * _quantile(durations(name), 0.5)
    residual = durations("aronson.barrier_residual")
    out["aronson.barrier_residual.p50_us"] = 1e6 * _quantile(residual, 0.5)
    out["aronson.barrier_residual.p999_us"] = 1e6 * _quantile(residual, 0.999)
    return out
