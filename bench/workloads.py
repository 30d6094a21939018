"""The benchmark's workloads: inputs, timed operations and acceptance gates.

A workload object is built from the seed, the size table and a scratch
directory.  ``setup()`` makes the inputs (untimed by ``run_s``, counted in
``setup_s``); ``ops()`` lists the timed operations in order.  Each op is
``(name, run, gate)``: ``run()`` returns a report and raises when the
program fails (a CLI call that exits non-zero raises ``CliExit``);
``gate(report)`` returns ``(passed, detail)`` against the op's acceptance
threshold and may record check values in ``self.checks``.

Functions of the package are looked up as module attributes at call time,
so the traced mode sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from kineticlab import aronson, cli, fields, kernels, solver

# kind=perturbed, c=1/pi, s=0.5, a_min=0.5, a_max=1.5: a rough kernel without
# closed forms, so operator assembly and the coercivity fit take the generic
# quadrature paths.
PERTURBED_CONFIG = f"kind = perturbed\nc = {1 / math.pi!r}\ns = 0.5\nd = 1\na_min = 0.5\na_max = 1.5\n"

SIZES = {
    "full": {
        "xval_n": 256, "xval_steps": 100, "xval_dt": 0.01, "xval_n_freq": 1024,
        "perturbed_n": 256, "perturbed_steps": 20,
        "field_n": 128, "field_steps": 50, "n_freq": 256, "fundsol_n_freq": 1024,
        "refinements": 3, "tail_nodes": 12,
        "k_samples": 30, "region_samples": 1667,
    },
    "toy": {
        "xval_n": 192, "xval_steps": 10, "xval_dt": 0.1, "xval_n_freq": 1024,
        "perturbed_n": 32, "perturbed_steps": 4,
        "field_n": 32, "field_steps": 10, "n_freq": 128, "fundsol_n_freq": 128,
        "refinements": 2, "tail_nodes": 4,
        "k_samples": 3, "region_samples": 10,
    },
}


class CliExit(Exception):
    """A CLI call returned a non-zero exit code; the message is its stderr."""


def run_cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Workload:
    def __init__(self, seed: int, size: dict, tmp: str):
        self.seed = seed
        self.size = size
        self.tmp = tmp
        self.checks: dict[str, float] = {}

    def out(self, name: str) -> str:
        return os.path.join(self.tmp, "out", name)

    def write_kernel_config(self) -> str:
        path = os.path.join(self.tmp, "perturbed.cfg")
        with open(path, "w") as fh:
            fh.write(PERTURBED_CONFIG)
        return path

    def cli_op(self, name, argv, gate):
        """Op that runs ``kineticlab <argv>`` with ``--out <dir>`` placed after
        the subcommand word, and gates on ``dir``."""
        out = self.out(name)

        def run():
            run_cli(argv[:1] + ["--out", out] + argv[1:])
            return out

        return name, run, gate


class SolveWorkload(Workload):
    """Splitting solver: cross-validation against the explicit solution
    (criterion 6 set-up) and a perturbed-kernel run without the torus."""

    def setup(self) -> None:
        self.kernel_config = self.write_kernel_config()

    def ops(self):
        z = self.size
        xval = ["solve", "--cross-validate", "--nx", str(z["xval_n"]), "--nv", str(z["xval_n"]),
                "--x-period", "16", "--v-extent", "12", "--scheme", "cn", "--dt", str(z["xval_dt"]),
                "--steps", str(z["xval_steps"]), "--n-freq", str(z["xval_n_freq"]), "--seed", str(self.seed)]
        perturbed = ["solve", "--no-torus", "--kernel-config", self.kernel_config,
                     "--nx", str(z["perturbed_n"]), "--nv", str(z["perturbed_n"]),
                     "--steps", str(z["perturbed_steps"]), "--seed", str(self.seed)]
        return [
            self.cli_op("solve_xval", xval, self.gate_xval),
            self.cli_op("solve_perturbed", perturbed, self.gate_perturbed),
        ]

    def gate_xval(self, out):
        rep = read_json(os.path.join(out, "solve.json"))
        err, drift = rep["sup_rel_error"], rep["mass_drift"]
        self.checks["check.xval_sup_rel_err"] = err
        self.checks["check.xval_mass_drift"] = drift
        return err < 0.05 and drift < 1e-3, f"sup rel err={err:.4g}, mass drift={drift:.3g}"

    def gate_perturbed(self, out):
        rep = read_json(os.path.join(out, "solve.json"))
        rows = read_csv(os.path.join(out, "diagnostics.csv"))
        values = [v for row in rows for v in row.values()] + list(rep.values())
        ok = bool(rows) and finite(*values) and rep["mass_drift"] < 1e-3
        return ok, f"leak-corrected mass drift={rep['mass_drift']:.3g}, {len(rows)} diagnostic rows"


class MeasureWorkload(Workload):
    """Measurements on the explicit solution and on a saved solver field;
    no time stepping inside the timed region."""

    def setup(self) -> None:
        z = self.size
        n = z["field_n"]
        grid = fields.PhaseGrid(nt=1, nx=n, nv=n, x_period=8.0, v_extent=8.0)
        config = solver.SolverConfig(dt=1.0 / z["field_steps"], steps=z["field_steps"], scheme="cn", torus=True)
        k = kernels.normalized_fractional(0.5)
        traj = solver.solve(k, solver.mollified_delta(grid, 0.5), grid, config)
        field = solver.trajectory_field(traj, farfield=fields.PowerLawEnvelope(amplitude=0.05, exponent=2.0))
        self.field_path = os.path.join(self.tmp, "field.bin")
        fields.save_field(field, self.field_path)
        self.kernel_config = self.write_kernel_config()

    def ops(self):
        z = self.size
        seed = ["--seed", str(self.seed)]
        nf = ["--n-freq", str(z["n_freq"])]
        return [
            self.cli_op("fundsol", ["fundsol", "--n-freq", str(z["fundsol_n_freq"])] + seed, self.gate_fundsol),
            self.cli_op("sweep_harnack_strong", ["sweep", "harnack-strong", "--refinements", str(z["refinements"]),
                                                 "--t0", "1.0"] + nf + seed, self.gate_sweep),
            self.cli_op("harnack_degiorgi", ["harnack"] + nf + seed + ["degiorgi", "--t0", "1.0", "--R", "0.5",
                                                                       "--p", "1.14"], self.gate_degiorgi),
            self.cli_op("harnack_lower", ["harnack"] + nf + seed + ["lower"], self.gate_lower),
            self.cli_op("envelope_upper", ["aronson"] + nf + seed + ["envelope", "--kind", "UpperConditional"],
                        self.gate_envelope),
            self.cli_op("envelope_lower", ["aronson"] + nf + seed + ["envelope", "--kind", "LowerExponential"],
                        self.gate_envelope),
            self.cli_op("harnack_tail", ["harnack"] + seed + ["tail", "--field", self.field_path, "--t0", "1.0",
                                                              "--R", "0.5", "--nodes", str(z["tail_nodes"])],
                        self.gate_tail),
            self.cli_op("ellipticity_fit", ["ellipticity", "--fit", "--kernel-config", self.kernel_config] + seed,
                        self.gate_ellipticity),
        ]

    def gate_fundsol(self, out):
        rep = read_json(os.path.join(out, "fundsol.json"))
        err = abs(rep["mass"] - 1.0)
        self.checks["check.fundsol_mass_err"] = err
        return err <= 1e-3 and finite(rep["peak"]), f"|mass - 1|={err:.3g}"

    def gate_sweep(self, out):
        ratios = [float(row["ratio"]) for row in read_csv(os.path.join(out, "sweep_harnack_strong.csv"))]
        if len(ratios) < 2 or not finite(*ratios) or min(ratios) <= 0:
            return False, f"ratios={ratios}"
        drift = abs(ratios[-1] - ratios[-2]) / ratios[-2]
        return drift < 0.2, f"ratios={ratios}, last drift={drift:.3g}"

    def gate_degiorgi(self, out):
        rep = read_json(os.path.join(out, "harnack_degiorgi.json"))
        masses = [float(row["A_k"]) for row in read_csv(os.path.join(out, "degiorgi.csv"))]
        monotone = all(a >= b for a, b in zip(masses, masses[1:]))
        return bool(rep["decay_ok"]) and monotone, f"decay_ok={rep['decay_ok']}, monotone={monotone}"

    def gate_lower(self, out):
        rep = read_json(os.path.join(out, "harnack_lower.json"))
        ok = rep["flagged"] is None and rep["M"] > 0 and rep["C1"] > 0 and finite(rep["C1"], rep["C2"])
        return ok, f"M={rep['M']:.4g}, C1={rep['C1']:.4g}, C2={rep['C2']:.4g}"

    def gate_envelope(self, out):
        rep = read_json(os.path.join(out, "aronson_envelope.json"))
        c = rep["constant"]
        return finite(c) and c > 0, f"{rep['kind']} constant={c:.4g}"

    def gate_tail(self, out):
        rep = read_json(os.path.join(out, "harnack_tail.json"))
        r = rep["ratio"]
        return finite(r) and r > 0, f"tail ratio={r:.4g}"

    def gate_ellipticity(self, out):
        rep = read_json(os.path.join(out, "ellipticity.json"))
        coer = rep["coercivity"]["fitted_constant"]
        ok = rep["symmetry"]["pass"] and finite(rep["upper_bound"]["fitted_constant"], coer) and coer > 0
        return ok, f"coercivity={coer:.4g}"


class BarrierWorkload(Workload):
    """Criterion 11 through the ``kineticlab.aronson`` API: threshold search,
    region sampling at twice the threshold, one residual per sample."""

    def setup(self) -> None:
        self.kernel = kernels.normalized_fractional(0.5)
        k_stream, region_stream = np.random.SeedSequence(self.seed).spawn(2)
        self.k_seed = int(k_stream.generate_state(1)[0])
        self.region_rng = np.random.default_rng(region_stream)

    def ops(self):
        return [
            ("k_threshold", self.run_k_threshold, self.gate_k_threshold),
            ("region_samples", self.run_region_samples, self.gate_region_samples),
            ("barrier_residuals", self.run_residuals, self.gate_residuals),
        ]

    def run_k_threshold(self):
        rep = aronson.k_threshold(1.0, 0.1, 0.0, 0.0, 0.5, self.kernel, c=2.0,
                                  n_per_region=self.size["k_samples"], seed=self.k_seed)
        self.k_star = rep["k_star"]
        return rep

    def gate_k_threshold(self, rep):
        ok = finite(rep["k_star"]) and rep["k_star"] >= 1.0 and rep["worst_residual"] <= 0.0
        return ok, f"k*={rep['k_star']:.4g}, worst residual={rep['worst_residual']:.4g}"

    def run_region_samples(self):
        k2 = 2.0 * self.k_star
        self.params = aronson.BarrierParams(rho=1.0, k=k2, tau0=0.1, sigma=0.1 + 1.0 / (4 * k2),
                                            y0=0.0, w0=0.0, s=0.5)
        self.points = aronson.region_samples(self.params, self.size["region_samples"], self.region_rng)
        return self.points

    def gate_region_samples(self, points):
        want = 6 * self.size["region_samples"]
        return len(points) == want and bool(np.isfinite(points).all()), f"{len(points)} of {want} points"

    def run_residuals(self):
        return [aronson.barrier_residual(self.params, self.kernel, z, c=2.0) for z in self.points]

    def gate_residuals(self, residuals):
        worst = max(residuals)
        self.checks["check.barrier_max_residual"] = worst
        return worst <= 1e-8, f"max residual={worst:.4g} over {len(residuals)} points"


WORKLOADS = {"solve": SolveWorkload, "measure": MeasureWorkload, "barrier": BarrierWorkload}
