"""Experiment runner.

Subcommands::

    kineticlab fundsol      --s 0.5 --t 1.0 [--n-freq 256]
    kineticlab solve        --s 0.5 [grid/stepper flags] [--cross-validate]
    kineticlab ellipticity  [--kernel-config FILE] [--fit]
    kineticlab harnack  {weak,strong,l1linf,tail,degiorgi,chain,lower} ...
    kineticlab aronson  {barrier,k-threshold,energy,envelope} ...
    kineticlab sweep    harnack-strong --refinements 3

Each mode takes only the flags it reads.  ``--s``, ``--out`` and ``--seed``
are accepted by every subcommand, and ``--n-freq`` by all but
``ellipticity``; for ``harnack`` and ``aronson`` they go before the mode
word.  ``--seed`` is read only by ``ellipticity`` and ``aronson
k-threshold``.  ``--kernel-config`` is taken by ``solve``, ``ellipticity``,
and after the mode word by ``harnack tail`` and ``aronson barrier``,
``k-threshold`` and ``energy``.

Every run writes its reports (JSON) and series (CSV) into ``--out`` and
a ``manifest.json`` listing each output file with a SHA-256 digest.
Outputs are deterministic: fixed iteration orders, sorted JSON keys,
and a timestamp taken from ``SOURCE_DATE_EPOCH`` (0 if unset).

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .fields import PhaseGrid, load_field
from .fundsol import chapman_kolmogorov_residual, j0_table
from .geometry import PhasePoint
from .harnack import (
    AnalyticField,
    degiorgi_trace,
    fundamental_field,
    harnack_chain,
    l1_linf_ratio,
    lower_bound_check,
    strong_harnack_ratio,
    tail_bound_ratio,
    weak_harnack_ratio,
)
from .kernels import (
    SymmetricPerturbation,
    check_coercivity,
    check_symmetry,
    check_upper_bound,
    kernel_from_config,
    normalized_fractional,
)
from .solver import SolverConfig, fundamental_approx, mollified_delta, solve

__all__ = ["main"]


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


class Emitter:
    """Deterministic output writer with a manifest.

    The output directory is created on the first write, so a run that
    fails validation leaves none.  Each file is written to a temporary
    name in that directory and renamed into place, so no output is ever
    left half-written.
    """

    def __init__(self, out_dir: str, config_text: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        self.config_text = config_text

    @contextlib.contextmanager
    def _writer(self, name: str):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    def json(self, name: str, obj) -> None:
        """Write ``obj`` as JSON; a NaN or infinity in it is a numerical
        failure (``RuntimeError``), since JSON has no literal for it."""
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
        except ValueError as exc:
            raise RuntimeError(f"{name}: {exc}") from exc
        with self._writer(name) as fh:
            fh.write(text + "\n")
        self.files.append(name)

    def csv(self, name: str, header: list[str], rows) -> None:
        with self._writer(name) as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(c)) if isinstance(c, (int, float, np.floating)) else str(c) for c in row) + "\n")
        self.files.append(name)

    def finish(self) -> None:
        inventory = {}
        for name in sorted(self.files):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                inventory[name] = hashlib.sha256(fh.read()).hexdigest()
        manifest = {
            "run_id": hashlib.sha256(self.config_text.encode()).hexdigest()[:12],
            "timestamp_epoch": int(os.environ.get("SOURCE_DATE_EPOCH", "0")),
            "config_digest": hashlib.sha256(self.config_text.encode()).hexdigest(),
            "config": self.config_text,
            "version": __version__,
            "outputs": inventory,
        }
        with self._writer("manifest.json") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _kernel_from_args(args) -> object:
    if args.kernel_config:
        with open(args.kernel_config) as fh:
            return kernel_from_config(fh.read())
    return normalized_fractional(args.s)


def _field_from_args(args):
    """The saved field of ``--field``, or else the explicit solution shifted
    by ``--t-offset``.  The explicit field builds its table on its first
    sample: every measurement checks its cylinders before it samples, so a
    cylinder reaching back to the source, where the field vanishes, is
    rejected before the table is paid for."""
    if args.field:
        return load_field(args.field)
    explicit = functools.cache(lambda: fundamental_field(j0_table(1.0, args.s, n_freq=args.n_freq), args.t_offset))
    return AnalyticField(lambda t, x, v: explicit().fn(t, x, v), args.t_offset)


# ---------------------------------------------------------------------------
# subcommand bodies


# a table whose physical-box edge is above this fraction of its peak is
# flagged in the fundsol report
_EDGE_LEVEL_LIMIT = 1e-3


def _run_fundsol(args, em: Emitter) -> None:
    s = args.s
    tab = j0_table(args.t, s, n_freq=args.n_freq)
    ck = chapman_kolmogorov_residual(args.t / 2, args.t / 2, s, n_freq=min(args.n_freq, 128))
    notes = []
    edge = tab.meta["edge_level"]
    if edge > _EDGE_LEVEL_LIMIT:
        notes.append(f"the physical-box edge reads {edge:.3g} of the peak (above {_EDGE_LEVEL_LIMIT:g}): "
                     "periodic images of the tail fold back into the box; raise --n-freq")
    em.json("fundsol.json", {
        "s": s,
        "t": args.t,
        "mass": tab.mass(),
        "peak": tab.peak(),
        "meta": tab.meta,
        "chapman_kolmogorov": ck,
        "notes": notes,
    })


def _grid_from_args(args) -> PhaseGrid:
    return PhaseGrid(nt=1, nx=args.nx, nv=args.nv, x_period=args.x_period, v_extent=args.v_extent)


def _run_solve(args, em: Emitter) -> None:
    s = args.s
    grid = _grid_from_args(args)
    k = _kernel_from_args(args)
    # the reports read the diagnostics and the final slice only
    config = SolverConfig(dt=args.dt, steps=args.steps, scheme=args.scheme, torus=not args.no_torus,
                          save_every=args.steps)
    if args.cross_validate:
        rep = fundamental_approx(k, grid, config, s, n_freq=args.n_freq)
        em.json("solve.json", rep)
        return
    f0 = mollified_delta(grid, s)
    traj = solve(k, f0, grid, config)
    em.csv("diagnostics.csv", ["t", "mass", "min", "max", "l2"],
           zip(traj.times, traj.mass, traj.minimum, traj.maximum, traj.l2))
    em.json("solve.json", {
        "mass_initial": traj.mass[0],
        "mass_final": traj.mass[-1],
        "mass_drift": traj.mass_drift(),
        "leak_total": traj.leak_total,
    })


def _run_ellipticity(args, em: Emitter) -> None:
    k = _kernel_from_args(args)
    sym = check_symmetry(k, samples=args.samples, seed=args.seed)
    upper = check_upper_bound(k)
    report = {"symmetry": sym, "upper_bound": upper}
    if args.fit:
        # against the kernel's own lower constant: c for the fractional
        # kernel, a_min c for its perturbation
        lambda0 = k.a_min * k.base.c if isinstance(k, SymmetricPerturbation) else k.c
        report["coercivity"] = check_coercivity(k, lambda0=lambda0)
    em.json("ellipticity.json", report)


def _run_harnack(args, em: Emitter) -> None:
    s = args.s
    sub = args.harnack_cmd
    if sub == "chain":
        rep = harnack_chain((args.tau0, args.y0, args.w0), (args.t1, args.x1, args.v1), s)
        em.json("harnack_chain.json", {k: v for k, v in rep.items() if k != "path"})
        em.csv("chain_path.csv", ["t", "x", "v"], rep["path"])
        return
    if sub == "lower":
        tab = j0_table(args.t, s, n_freq=args.n_freq)
        em.json("harnack_lower.json", lower_bound_check(tab, alpha=args.alpha))
        return
    z0 = PhasePoint(args.t0, args.x0, args.v0)
    if sub == "strong":
        rep = strong_harnack_ratio(_field_from_args(args), z0, args.r0, s, nodes=args.nodes)
        em.json("harnack_strong.json", rep)
    elif sub == "weak":
        rep = weak_harnack_ratio(_field_from_args(args), z0, args.r0, zeta=args.zeta, s=s, nodes=args.nodes)
        em.json("harnack_weak.json", rep)
    elif sub == "l1linf":
        rep = l1_linf_ratio(_field_from_args(args), z0, args.R, s, nodes=args.nodes)
        em.json("harnack_l1linf.json", rep)
    elif sub == "tail":
        if not args.field:
            raise ValueError("tail measurement needs --field (a saved gridded field)")
        f = load_field(args.field)
        k = _kernel_from_args(args)
        rep = tail_bound_ratio(f, k, z0, args.R, l=args.level, zeta=args.zeta, s=s, nodes=args.nodes)
        em.json("harnack_tail.json", rep)
    else:  # degiorgi
        f = _field_from_args(args)
        trace = degiorgi_trace(f, z0, args.R, delta=args.delta, p=args.p, zeta=args.zeta, s=s, nodes=args.nodes)
        em.json("harnack_degiorgi.json", trace)
        em.csv("degiorgi.csv", ["k", "l_k", "r_k", "A_k"], trace["sequence"])


def _run_aronson(args, em: Emitter) -> None:
    from .aronson import (
        BarrierParams,
        aronson_energy_check,
        barrier_eval,
        barrier_region,
        barrier_residual,
        decay_envelope_check,
        k_threshold,
    )

    s = args.s
    sub = args.aronson_cmd
    if sub in ("barrier", "energy"):
        BarrierParams.check_scale(args.rho, args.k)  # before sigma is derived from them
    if sub == "barrier":
        p = BarrierParams(rho=args.rho, k=args.k, tau0=args.tau0,
                          sigma=args.tau0 + args.rho ** (2 * s) / (4 * args.k),
                          y0=args.y0, w0=args.w0, s=s)
        z = (0.5 * (p.tau0 + p.sigma), args.x1, args.v1)
        kspec = _kernel_from_args(args)
        em.json("aronson_barrier.json", {
            "H": barrier_eval(p, z),
            "region": barrier_region(p, z),
            "residual": barrier_residual(p, kspec, z, c=args.c),
        })
    elif sub == "k-threshold":
        kspec = _kernel_from_args(args)
        rep = k_threshold(args.rho, args.tau0, args.y0, args.w0, s, kspec,
                          c=args.c, n_per_region=args.samples, seed=args.seed)
        em.json("aronson_kthreshold.json", rep)
    elif sub == "energy":
        grid = _grid_from_args(args)
        kspec = _kernel_from_args(args)
        config = SolverConfig(dt=args.dt, steps=args.steps, scheme=args.scheme, torus=True)
        f0 = mollified_delta(grid, s)
        traj = solve(kspec, f0, grid, config)
        T = args.dt * args.steps
        rho = args.rho
        p = BarrierParams(rho=rho, k=args.k, tau0=0.0,
                          sigma=min(T, rho ** (2 * s) / (4 * args.k)),
                          y0=args.y0, w0=args.w0, s=s)
        rep = aronson_energy_check(traj, p)
        em.json("aronson_energy.json", rep)
    else:  # envelope
        tab = j0_table(args.t, s, n_freq=args.n_freq)
        rep = decay_envelope_check(tab, args.kind)
        em.json("aronson_envelope.json", rep)


def _run_sweep(args, em: Emitter) -> None:
    s = args.s
    z0 = PhasePoint(args.t0, args.x0, args.v0)
    f = _field_from_args(args)
    rows = []
    n = args.nodes
    for _ in range(args.refinements):
        rep = strong_harnack_ratio(f, z0, args.r0, s, nodes=n)
        # a ratio flagged for a vanishing infimum is written inf
        rows.append((n, rep["sup"], rep["inf"], math.inf if rep["ratio"] is None else rep["ratio"]))
        n *= 2
    em.csv("sweep_harnack_strong.csv", ["nodes", "sup", "inf", "ratio"], rows)


# ---------------------------------------------------------------------------
# argument parsing


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and +-inf are rejected."""
    with contextlib.suppress(ValueError):
        value = float(text)
        if math.isfinite(value):
            return value
    raise argparse.ArgumentTypeError("must be a finite number")


def _jump_order(text: str) -> float:
    """argparse type of ``--s``: a finite number in (0, 1)."""
    s = _finite_float(text)
    if not 0.0 < s < 1.0:
        raise argparse.ArgumentTypeError(f"s = {s} violates the constraint s in (0, 1)")
    return s


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    with contextlib.suppress(ValueError):
        value = int(text)
        if value >= 1:
            return value
    raise argparse.ArgumentTypeError("must be a positive integer")


def _add_common(p: argparse.ArgumentParser, n_freq: bool = True) -> None:
    """The flags every subcommand takes, and ``--n-freq``.  The benchmark
    passes ``--seed`` to every run, though only ``ellipticity`` and ``aronson
    k-threshold`` draw samples, and ``--n-freq`` before any harnack or
    aronson mode word."""
    p.add_argument("--s", type=_jump_order, default=0.5, help="jump order parameter, in (0, 1)")
    p.add_argument("--out", default="out", help="output directory")
    if n_freq:
        p.add_argument("--n-freq", type=_positive_int, default=256, help="frequency grid size per axis")
    p.add_argument("--seed", type=int, default=0)


def _add_kernel_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel-config", default=None, help="kernel key=value config file")


def _add_floats(p: argparse.ArgumentParser, /, **defaults: float) -> None:
    """One finite-float flag per keyword, ``t_offset`` spelled ``--t-offset``;
    ``p`` is positional-only so that a flag may be named ``--p``."""
    for name, default in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=_finite_float, default=default)


def _add_point(p: argparse.ArgumentParser, nodes: int = 8, t_offset: bool = True) -> None:
    """The field, cylinder centre and nodes per axis of a Harnack-type
    measurement; ``--t-offset`` shifts the explicit field."""
    p.add_argument("--field", default=None, help="saved field path (default: explicit solution)")
    _add_floats(p, t0=0.0, x0=0.0, v0=0.0)
    if t_offset:
        _add_floats(p, t_offset=1.0)
    p.add_argument("--nodes", type=_positive_int, default=nodes)


def _add_grid(p: argparse.ArgumentParser, nx: int, nv: int, v_extent: float, steps: int) -> None:
    """The solver's phase grid and time stepper."""
    p.add_argument("--nx", type=_positive_int, default=nx)
    p.add_argument("--nv", type=_positive_int, default=nv)
    _add_floats(p, x_period=8.0, v_extent=v_extent, dt=0.01)
    p.add_argument("--steps", type=_positive_int, default=steps)
    p.add_argument("--scheme", choices=["explicit", "implicit", "cn"], default="cn")


# argparse reads an argument that starts with "-" as an option name unless
# it matches the parser's negative-number pattern, whose default misses
# exponents and the non-finite spellings ("-1e-3", "-inf", "-nan").  This
# one matches every negative spelling float() reads, so such a value after
# a space reaches the flag's own type check.
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(?:e[+-]?\d[\d_]*)?|inf(?:inity)?|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Parser of the program and of every subcommand.  Option abbreviation
    is disabled, so short flags like ``--k`` are not mistaken for prefixes of
    ``--kernel-config``, and a negative number after a space is read as a value."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="kineticlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    # add_subparsers makes every subcommand parser, at any depth, a _Parser too
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fundsol", help="fundamental-solution table and composition residual")
    _add_common(p)
    _add_floats(p, t=1.0)

    p = sub.add_parser("solve", help="run the split-step solver")
    _add_common(p)
    _add_kernel_config(p)
    _add_grid(p, nx=256, nv=256, v_extent=12.0, steps=100)
    p.add_argument("--no-torus", action="store_true")
    p.add_argument("--cross-validate", action="store_true",
                   help="compare against the explicit fundamental solution")

    p = sub.add_parser("ellipticity", help="symmetry / upper-bound / coercivity checks")
    _add_common(p, n_freq=False)
    _add_kernel_config(p)
    p.add_argument("--fit", action="store_true", help="also fit the coercivity ratio")
    p.add_argument("--samples", type=_positive_int, default=64)

    # each mode declares only the options its measurement reads
    p = sub.add_parser("harnack", help="Harnack-type measurements")
    _add_common(p)
    hs = p.add_subparsers(dest="harnack_cmd", required=True)
    p = hs.add_parser("strong")
    _add_point(p)
    _add_floats(p, r0=0.125)
    p = hs.add_parser("weak")
    _add_point(p)
    _add_floats(p, r0=0.125, zeta=0.5)
    p = hs.add_parser("l1linf")
    _add_point(p)
    _add_floats(p, R=0.5)
    p = hs.add_parser("tail")
    _add_kernel_config(p)
    _add_point(p, t_offset=False)  # a saved field only
    _add_floats(p, R=0.5, zeta=0.5, level=0.0)
    p = hs.add_parser("degiorgi")
    _add_point(p)
    _add_floats(p, R=0.5, zeta=0.5, delta=0.5, p=1.14)
    p = hs.add_parser("chain")
    _add_floats(p, tau0=1.0, y0=0.0, w0=0.0, t1=2.0, x1=1.0, v1=1.0)
    p = hs.add_parser("lower")
    _add_floats(p, t=1.0, alpha=1.0)

    p = sub.add_parser("aronson", help="barrier and decay-envelope checks")
    _add_common(p)
    asub = p.add_subparsers(dest="aronson_cmd", required=True)
    p = asub.add_parser("barrier")
    _add_kernel_config(p)
    _add_floats(p, rho=1.0, k=4.0, c=2.0, tau0=0.0, y0=0.0, w0=0.0, x1=0.0, v1=0.0)
    p = asub.add_parser("k-threshold")
    _add_kernel_config(p)
    _add_floats(p, rho=1.0, c=2.0, tau0=0.0, y0=0.0, w0=0.0)
    p.add_argument("--samples", type=_positive_int, default=30)
    p = asub.add_parser("energy")
    _add_kernel_config(p)
    _add_floats(p, rho=1.0, k=4.0, y0=0.0, w0=0.0)
    _add_grid(p, nx=64, nv=128, v_extent=8.0, steps=10)
    p = asub.add_parser("envelope")
    _add_floats(p, t=1.0)
    p.add_argument("--kind", default="NashOnDiag",
                   choices=["NashOnDiag", "UpperUnconditional", "UpperConditional", "LowerExponential"])

    p = sub.add_parser("sweep", help="refinement sweeps (CSV)")
    _add_common(p)
    p.add_argument("what", choices=["harnack-strong"])
    p.add_argument("--refinements", type=_positive_int, default=3)
    _add_point(p, nodes=4)
    _add_floats(p, r0=0.125)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every command line with, built on first use.
    It holds no handler: a handler is looked up by command name per call."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # the output directory is not part of the experiment configuration
    kept, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--out":
            skip = True
        elif a.startswith("--out="):
            pass
        else:
            kept.append(a)
    config_text = "\n".join(kept)
    em = Emitter(args.out, config_text)
    try:
        globals()[f"_run_{args.cmd}"](args, em)
        em.finish()
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
