"""Experiment runner: subcommands, exit codes, manifests, determinism."""

import argparse
import ast
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kineticlab
from kineticlab import aronson, cli, fundsol, harnack, kernels, solver
from kineticlab.cli import main
from kineticlab.fields import PhaseField, PhaseGrid, load_field, save_field
from kineticlab.geometry import PhasePoint
from test_cli_reports import RUNS, _write_inputs


def _manifest(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def _parsers(ap):
    """``ap`` and every subcommand parser below it."""
    yield ap
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _flag_actions():
    return [a for ap in _parsers(cli.build_parser()) for a in ap._actions]


def _completion(ap):
    """Positionals that complete a command line for ``ap``: its first
    subcommand (with that one's completion) or first choice."""
    out = []
    for action in ap._actions:
        if isinstance(action, argparse._SubParsersAction):
            name, sub = next(iter(action.choices.items()))
            out += [name] + _completion(sub)
        elif not action.option_strings and action.choices:
            out.append(next(iter(action.choices)))
    return out


def _numeric_flags(ap, path=()):
    """``(path, flag, dest, completion, type)`` of every float and count flag
    below ``ap``: ``path + [flag, value] + completion`` is a command line."""
    for action in ap._actions:
        if action.type in (cli._finite_float, cli._jump_order, cli._positive_int, int):
            yield list(path), action.option_strings[0], action.dest, _completion(ap), action.type
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _numeric_flags(sub, path + (name,))


def _leaves(ap, path=(), chain=()):
    """``(path, parsers)`` of every leaf mode below ``ap``: its command words
    and the parsers from its subcommand down to it."""
    subs = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    if path and not subs:
        yield path, chain
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, path + (name,), chain + (sub,))


PARSER = cli.build_parser()
NUMERIC_FLAGS = list(_numeric_flags(PARSER))
LEAVES = dict(_leaves(PARSER))
NON_FINITE = ["nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity", "-iNF"]
RULES = {cli._finite_float: "must be a finite number", cli._jump_order: "must be a finite number",
         cli._positive_int: "must be a positive integer", int: "invalid int value"}
SPELLINGS = [repr, str, "{:e}".format, "{:.3E}".format, "{:g}".format, "{:.17g}".format, "{:f}".format]


# all-zero saved fields: ZERO_STRONG resolves the cylinders of a strong
# ratio at r0 = 0.16 and t0 = 1, ZERO_WIDE those of l1linf and weak
ZERO_STRONG = PhaseGrid(nt=201, nx=128, nv=64, x_period=0.1, v_extent=0.5)
ZERO_WIDE = PhaseGrid(nt=1, nx=1024, nv=128, x_period=1.0, v_extent=1.0)


def _zero_field(root, grid):
    path = str(root / "zero.bin")
    save_field(PhaseField(grid, np.zeros((grid.nt, grid.nx, grid.nv))), path)
    return path


def _flag_and_value(data, flag, value):
    return data.draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))


class TestSubcommands:
    def test_fundsol(self, tmp_path):
        code = main(["fundsol", "--t", "1.0", "--n-freq", "128", "--out", str(tmp_path / "f")])
        assert code == 0
        with open(tmp_path / "f" / "fundsol.json") as fh:
            rep = json.load(fh)
        assert rep["mass"] == pytest.approx(1.0, abs=1e-3)
        man = _manifest(tmp_path / "f")
        assert "fundsol.json" in man["outputs"]

    @pytest.mark.parametrize("s, n_freq, flagged", [(0.25, 256, True), (0.5, 1024, False)])
    def test_fundsol_flags_box_edge(self, tmp_path, s, n_freq, flagged):
        # at s = 0.25 the periodized tail reaches the physical-box edge at a
        # third of the peak; a converged table is not flagged
        out = tmp_path / "f"
        assert main(["fundsol", "--s", str(s), "--n-freq", str(n_freq), "--out", str(out)]) == 0
        with open(out / "fundsol.json") as fh:
            rep = json.load(fh)
        edge = rep["meta"]["edge_level"]
        assert (edge > 1e-3) is flagged
        assert len(rep["notes"]) == flagged
        assert all("physical-box edge" in note for note in rep["notes"])

    def test_solve_writes_diagnostics(self, tmp_path):
        code = main([
            "solve", "--nx", "32", "--nv", "32", "--x-period", "8", "--v-extent", "6",
            "--dt", "0.05", "--steps", "4", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert (tmp_path / "s" / "diagnostics.csv").exists()
        with open(tmp_path / "s" / "solve.json") as fh:
            rep = json.load(fh)
        assert rep["mass_drift"] < 1e-8

    def test_solve_cross_validate(self, tmp_path):
        # the reference is built on the solve lattice: no unit-time profile
        # (and no table sampler) is made along the way
        profiles = fundsol._unit_profile.cache_info().currsize
        samplers = fundsol._unit_sampler.cache_info().currsize
        code = main(["solve", "--cross-validate", "--nx", "64", "--nv", "64", "--x-period", "8",
                     "--v-extent", "6", "--dt", "0.02", "--steps", "10", "--n-freq", "128",
                     "--out", str(tmp_path / "s")])
        assert code == 0
        with open(tmp_path / "s" / "solve.json") as fh:
            rep = json.load(fh)
        assert sorted(rep) == ["computed_peak", "mass_drift", "mass_final", "mass_initial",
                               "reference_peak", "sup_rel_error"]
        assert rep["sup_rel_error"] < 0.05
        assert fundsol._unit_profile.cache_info().currsize == profiles
        assert fundsol._unit_sampler.cache_info().currsize == samplers

    def test_solve_keeps_initial_and_final_slices_only(self, tmp_path, monkeypatch):
        runs, real_solve = [], solver.solve

        def recording_solve(*args, **kwargs):
            runs.append(real_solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "solve", recording_solve)
        code = main(["solve", "--nx", "32", "--nv", "32", "--x-period", "8", "--v-extent", "6",
                     "--dt", "0.05", "--steps", "5", "--out", str(tmp_path / "s")])
        assert code == 0
        [traj] = runs
        assert len(traj.times) == 6
        assert len(traj.slices) == 2
        assert traj.final.shape == (32, 32)

    @pytest.mark.parametrize("torus", [True, False], ids=["torus", "no-torus"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    def test_solve_scheme_and_closure_reach_the_solver(self, tmp_path, monkeypatch, scheme, torus):
        # the torus run steps its collision by FFT, the zero-extended one
        # through the dense propagator
        calls, propagator = [], solver.collision_propagator
        monkeypatch.setattr(solver, "collision_propagator", lambda *a: calls.append(a) or propagator(*a))
        out = tmp_path / "s"
        argv = ["solve", "--nx", "16", "--nv", "16", "--x-period", "8", "--v-extent", "6", "--dt", "0.05",
                "--steps", "3", "--scheme", scheme, "--out", str(out)]
        assert main(argv + ([] if torus else ["--no-torus"])) == 0
        assert len(calls) == (0 if torus else 1)

        grid = PhaseGrid(nt=1, nx=16, nv=16, x_period=8.0, v_extent=6.0)
        traj = solver.solve(kernels.normalized_fractional(0.5), solver.mollified_delta(grid, 0.5), grid,
                            solver.SolverConfig(dt=0.05, steps=3, scheme=scheme, torus=torus))
        with open(out / "solve.json") as fh:
            assert json.load(fh) == {"mass_initial": traj.mass[0], "mass_final": traj.mass[-1],
                                     "mass_drift": traj.mass_drift(), "leak_total": traj.leak_total}
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert header == "t,mass,min,max,l2"
        assert [[float(c) for c in row.split(",")] for row in rows] == [
            list(r) for r in zip(traj.times, traj.mass, traj.minimum, traj.maximum, traj.l2)]

    def test_ellipticity(self, tmp_path):
        code = main(["ellipticity", "--out", str(tmp_path / "e")])
        assert code == 0
        with open(tmp_path / "e" / "ellipticity.json") as fh:
            rep = json.load(fh)
        assert rep["symmetry"]["pass"]

    def test_ellipticity_fit(self, tmp_path):
        code = main(["ellipticity", "--fit", "--out", str(tmp_path / "e")])
        assert code == 0
        with open(tmp_path / "e" / "ellipticity.json") as fh:
            rep = json.load(fh)
        # np.bool_ verdicts serialize as JSON booleans; the normalized kernel
        # is compared with its own constant lambda0 = 1/pi, so it fits 1
        assert rep["coercivity"]["pass"] is True
        assert rep["coercivity"]["lambda0"] == pytest.approx(1 / math.pi, rel=1e-15)
        assert rep["coercivity"]["fitted_constant"] == pytest.approx(1.0, rel=1e-9)
        assert "ellipticity.json" in _manifest(tmp_path / "e")["outputs"]

    def test_ellipticity_fit_perturbed_config(self, tmp_path):
        # a perturbed kernel is compared with a_min c, below which it never falls
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"kind = perturbed\nc = {1 / math.pi!r}\ns = 0.5\na_min = 0.5\na_max = 1.5\n")
        code = main(["ellipticity", "--fit", "--kernel-config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == 0
        with open(tmp_path / "e" / "ellipticity.json") as fh:
            coer = json.load(fh)["coercivity"]
        assert coer["lambda0"] == pytest.approx(0.5 / math.pi, rel=1e-15)
        assert coer["pass"] is True and coer["fitted_constant"] >= 1.0

    @pytest.mark.parametrize("sub, kind", [("weak", "Weak"), ("l1linf", "L1Linf")])
    def test_harnack_weak_and_l1linf(self, tmp_path, sub, kind):
        code = main(["harnack", "--n-freq", "128", "--out", str(tmp_path / "h"), sub, "--t0", "1.0"])
        assert code == 0
        with open(tmp_path / "h" / f"harnack_{sub}.json") as fh:
            rep = json.load(fh)
        assert rep["kind"] == kind
        assert all(math.isfinite(rep[key]) for key in ("sup", "inf", "ratio"))
        assert rep["ratio"] > 0.0

    def test_harnack_strong(self, tmp_path):
        code = main([
            "harnack", "--n-freq", "128", "--out", str(tmp_path / "h"),
            "strong", "--t0", "1.0", "--r0", "0.1",
        ])
        assert code == 0
        with open(tmp_path / "h" / "harnack_strong.json") as fh:
            rep = json.load(fh)
        assert rep["ratio"] > 1.0

    def test_harnack_chain_csv(self, tmp_path):
        code = main([
            "harnack", "--out", str(tmp_path / "c"),
            "chain", "--tau0", "1.0", "--t1", "2.0", "--x1", "1.0", "--v1", "1.0",
        ])
        assert code == 0
        with open(tmp_path / "c" / "harnack_chain.json") as fh:
            rep = json.load(fh)
        assert rep["N"] == 36
        assert (tmp_path / "c" / "chain_path.csv").exists()

    def test_aronson_barrier(self, tmp_path):
        code = main([
            "aronson", "--out", str(tmp_path / "a"),
            "barrier", "--rho", "1.0", "--k", "2.0", "--x1", "0.1", "--v1", "0.5",
        ])
        assert code == 0
        with open(tmp_path / "a" / "aronson_barrier.json") as fh:
            rep = json.load(fh)
        assert rep["residual"] <= 1e-8

    def test_aronson_k_threshold(self, tmp_path):
        code = main(["aronson", "--out", str(tmp_path / "a"), "k-threshold", "--samples", "3"])
        assert code == 0
        with open(tmp_path / "a" / "aronson_kthreshold.json") as fh:
            rep = json.load(fh)
        assert rep["k_star"] >= 1.0
        assert rep["worst_residual"] <= 0.0

    def test_aronson_energy(self, tmp_path):
        code = main(["aronson", "--out", str(tmp_path / "a"), "energy", "--nx", "16", "--nv", "32", "--steps", "2"])
        assert code == 0
        with open(tmp_path / "a" / "aronson_energy.json") as fh:
            rep = json.load(fh)
        assert math.isfinite(rep["constant"]) and rep["constant"] >= 0.0

    def test_harnack_degiorgi_default_p(self, tmp_path):
        code = main(["harnack", "--n-freq", "128", "--out", str(tmp_path / "g"), "degiorgi", "--t0", "1.0"])
        assert code == 0
        with open(tmp_path / "g" / "harnack_degiorgi.json") as fh:
            rep = json.load(fh)
        assert rep["p"] == 1.14
        assert math.isfinite(rep["L"]) and rep["decay_ok"]
        assert (tmp_path / "g" / "degiorgi.csv").exists()

    def test_sweep(self, tmp_path):
        code = main([
            "sweep", "harnack-strong", "--n-freq", "128", "--refinements", "2",
            "--t0", "1.0", "--out", str(tmp_path / "w"),
        ])
        assert code == 0
        lines = (tmp_path / "w" / "sweep_harnack_strong.csv").read_text().strip().splitlines()
        assert lines[0] == "nodes,sup,inf,ratio"
        assert len(lines) == 3


class TestExitCodes:
    def test_invalid_s_is_config_error(self, tmp_path, capsys):
        code = main(["fundsol", "--s", "1.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "s in (0, 1)" in capsys.readouterr().err

    def test_unknown_kernel(self, tmp_path):
        # the fractional kernel is the default; any other comes from --kernel-config
        assert main(["ellipticity", "--kernel", "weird", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["ellipticity", "--fit"],
        ["solve", "--nx", "16", "--nv", "16", "--steps", "2"],
    ])
    @pytest.mark.parametrize("kind", ["fractional", "perturbed"])
    def test_kernel_config_of_two_dimensions_is_config_error(self, tmp_path, capsys, argv, kind):
        cfg = tmp_path / "k.cfg"
        cfg.write_text(f"kind = {kind}\nc = {1 / math.pi!r}\ns = 0.5\nd = 2\na_min = 0.5\na_max = 1.5\n")
        out = tmp_path / "x"
        assert main(argv[:1] + ["--kernel-config", str(cfg), "--out", str(out)] + argv[1:]) == 2
        assert "violates the rule d = 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, rule", [
        ({"t0": 1.0, "t1": 0.0}, "t1 must exceed t0 when nt > 1"),
        ({"t1": math.nan}, "t0 and t1 must be finite"),
        ({"d": None}, "lacks the keys ['d']"),
        ({"nx": 128.0}, "nt, nx and nv must be integers"),
        ({"d": 2}, "violates the rule d = 1"),
        ({"d": 1.0}, "violates the rule d = 1"),
        ({"x_period": "8"}, "x_period, v_extent, t0 and t1 must be real numbers"),
        ({"farfield": "zero"}, "violates the rule: an object with a 'kind' key"),
        ({"farfield": {"kind": "power_law", "exponent": 2.0}}, "lacks the keys ['amplitude']"),
        ({"farfield": {"kind": "power_law", "amplitude": "1", "exponent": 2.0}},
         "power-law amplitude and exponent must be real numbers"),
    ])
    def test_bad_field_header_is_config_error(self, tmp_path, capsys, change, rule):
        grid = PhaseGrid(nt=3, nx=128, nv=32, x_period=8.0, v_extent=8.0, t0=0.0, t1=1.0)
        path = str(tmp_path / "field.bin")
        save_field(PhaseField(grid, np.ones((3, 128, 32))), path)
        with open(path + ".json") as fh:
            header = json.load(fh)
        header.update(change)
        with open(path + ".json", "w") as fh:
            json.dump({key: value for key, value in header.items() if value is not None}, fh)
        out = tmp_path / "x"
        argv = ["harnack", "--out", str(out), "weak", "--field", path, "--t0", "0.6", "--r0", "0.3"]
        assert main(argv) == 2
        assert rule in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["harnack", "--n-freq", "128", "strong", "--t0", "1.0", "--r0", "0.1", "--t-offset", "-5"],
        # only the end of the current cylinder, [0.975, 1], lies after the source
        ["harnack", "--n-freq", "128", "strong", "--t0", "1.0", "--r0", "0.1", "--t-offset", "-0.99"],
        ["harnack", "--n-freq", "128", "weak", "--t0", "1.0", "--t-offset", "-5"],
        ["harnack", "--n-freq", "128", "l1linf", "--t0", "1.0", "--t-offset", "-5"],
        ["harnack", "--n-freq", "128", "degiorgi", "--t0", "1.0", "--t-offset", "-5"],
        # the cylinder of R = 1 starts at t = -1, on the source
        ["harnack", "--n-freq", "128", "degiorgi", "--R", "1.0"],
        ["sweep", "harnack-strong", "--n-freq", "128", "--t0", "1.0", "--t-offset", "-5"],
    ])
    def test_explicit_field_before_its_source_is_config_error(self, tmp_path, capsys, argv):
        # the explicit field vanishes there, so a ratio would read inf or nan
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert "violates the rule t + t_offset > 0 over the cylinder's time window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["harnack", "--n-freq", "1024", "strong", "--t-offset", "-5"],
        ["harnack", "--n-freq", "1024", "degiorgi", "--t-offset", "-5"],
        # at this s the profile build fails; the rule is named first
        ["harnack", "--s", "1e-12", "weak"],
        ["sweep", "harnack-strong", "--s", "1e-12"],
    ])
    def test_explicit_field_is_rejected_before_its_table_is_built(self, tmp_path, capsys, argv):
        calls = fundsol._unit_profile.cache_info()[:2]  # hits, misses
        assert main(argv[:1] + ["--out", str(tmp_path / "x")] + argv[1:]) == 2
        assert "violates the rule t + t_offset > 0" in capsys.readouterr().err
        assert fundsol._unit_profile.cache_info()[:2] == calls

    @pytest.mark.parametrize("mode, flags, name, note", [
        ("l1linf", [], "harnack_l1linf.json", "degenerate 0/0 flagged"),
        ("weak", ["--r0", "0.3"], "harnack_weak.json", "vanishing denominator: ratio flagged infinite"),
        ("strong", ["--r0", "0.16"], "harnack_strong.json", "vanishing infimum: ratio flagged infinite"),
    ])
    def test_flagged_ratio_is_written_as_null(self, tmp_path, mode, flags, name, note):
        # on an all-zero field the ratio is 0/0 (l1linf) or over a vanishing
        # infimum (weak, strong); the report flags it in its notes, not as exit 3
        path = _zero_field(tmp_path, ZERO_STRONG if mode == "strong" else ZERO_WIDE)
        out = tmp_path / "x"
        assert main(["harnack", "--out", str(out), mode, "--field", path, "--t0", "1.0"] + flags) == 0
        with open(out / name) as fh:
            rep = json.load(fh)
        assert rep["ratio"] is None
        assert note in rep["notes"]

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_overflowing_ratio_is_numerical_failure(self, tmp_path, monkeypatch, capsys, mode):
        # the infimum is subnormal but positive, so the ratio is not flagged:
        # it overflows to inf, which JSON cannot hold
        field = harnack.AnalyticField(lambda t, x, v: np.where(np.broadcast_arrays(t, x, v)[2] > 0, 1.0, 5e-324))
        monkeypatch.setattr(cli, "_field_from_args", lambda args: field)
        out = tmp_path / "x"
        assert main(["harnack", "--out", str(out), mode]) == 3
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    def test_flagged_sweep_ratio_is_written_inf(self, tmp_path):
        path = _zero_field(tmp_path, ZERO_STRONG)
        out = tmp_path / "x"
        argv = ["sweep", "--out", str(out), "harnack-strong", "--field", path, "--t0", "1.0", "--r0", "0.16"]
        assert main(argv + ["--refinements", "2"]) == 0
        lines = (out / "sweep_harnack_strong.csv").read_text().splitlines()
        assert lines == ["nodes,sup,inf,ratio", "4.0,0.0,0.0,inf", "8.0,0.0,0.0,inf"]

    def test_degiorgi_on_an_unresolved_field_is_config_error(self, tmp_path, capsys):
        # R = 0.05 spans a time window of 0.05 on a field of dt = 0.5; each
        # r_k lies inside the cylinder of R
        paths = _write_inputs(str(tmp_path))
        out = tmp_path / "x"
        argv = ["harnack", "--out", str(out), "degiorgi", "--field", paths["field"], "--t0", "0.6", "--R", "0.05"]
        assert main(argv) == 2
        assert "does not resolve the cylinder" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_overflowing_past_centre_names_the_rule(self, tmp_path, capsys, mode):
        # lag < 5/2, so lag v0 overflows only for v0 near the largest float,
        # where the velocity radius does not yet round away at s = 0.01
        out = tmp_path / "x"
        assert main(["harnack", "--s", "0.01", "--n-freq", "64", "--out", str(out), mode, "--v0", "1.5e308"]) == 2
        err = capsys.readouterr().err
        assert "violates the rule x0 - lag v0 finite" in err
        assert "lag = (5/2) r0^(2s) - (1/2) (r0/2)^(2s)" in err
        assert not out.exists()

    def test_missing_field_file(self, tmp_path):
        code = main([
            "harnack", "--out", str(tmp_path / "x"),
            "tail", "--field", str(tmp_path / "nope.bin"), "--t0", "0.5",
        ])
        assert code == 2

    def test_kernel_config_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("kind = fractional\nc = 0.3\n")
        code = main(["ellipticity", "--kernel-config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "'s'" in capsys.readouterr().err

    def test_meyers_needs_api(self, tmp_path):
        assert main(["aronson", "--out", str(tmp_path / "x"), "meyers"]) == 2

    @pytest.mark.parametrize("argv", [
        ["k-threshold", "--rho", "nan"],
        ["k-threshold", "--w0=-inf"],
        ["barrier", "--y0", "inf"],
    ])
    def test_non_finite_barrier_params_are_config_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(["aronson", "--out", str(out)] + argv) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fundsol", "--s", "nan"],
        ["solve", "--v-extent", "nan"],
        ["ellipticity", "--s", "inf"],
        ["harnack", "lower", "--alpha", "nan"],
        ["harnack", "chain", "--t1", "nan"],
        ["aronson", "barrier", "--x1", "inf"],
        ["sweep", "harnack-strong", "--r0", "nan"],
    ])
    def test_non_finite_flag_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert f"argument {argv[-2]}: must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_every_float_flag_is_finite(self):
        types = [a.type for a in _flag_actions()]
        assert float not in types
        assert cli._finite_float in types

    def test_every_count_flag_is_positive(self):
        actions = [a for a in _flag_actions() if a.type in (int, cli._positive_int)]
        assert {a.option_strings[0] for a in actions if a.type is int} == {"--seed"}
        assert any(a.type is cli._positive_int for a in actions)

    @pytest.mark.parametrize("argv", [
        ["fundsol", "--n-freq", "0"],
        ["harnack", "strong", "--nodes", "0"],
        ["sweep", "harnack-strong", "--nodes", "-1"],
        ["ellipticity", "--samples", "0"],
        ["aronson", "k-threshold", "--samples", "0"],
        ["solve", "--nx", "0"],
        ["aronson", "energy", "--nv", "0"],
        ["solve", "--steps", "0"],
        ["aronson", "energy", "--steps", "-2"],
    ])
    def test_non_positive_count_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert f"argument {argv[-2]}: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["fundsol"], ["solve", "--cross-validate", "--nx", "16", "--nv", "16"]])
    def test_too_few_frequencies_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--n-freq", "3", "--out", str(out)]) == 2
        assert "n_freq must be at least 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, rule", [
        (["aronson", "barrier", "--k", "0"], "k must be at least 1"),
        (["aronson", "energy", "--k", "0"], "k must be at least 1"),
        # rho^{2s} of a negative rho is complex at s = 1/4
        (["aronson", "--s", "0.25", "barrier", "--rho", "-1"], "rho must be positive"),
        (["aronson", "--s", "0.25", "k-threshold", "--rho", "-1"], "rho must be positive"),
        (["harnack", "--n-freq", "128", "degiorgi", "--zeta", "0"], "zeta must lie in (0, 1)"),
        # the past values near the source exceed 1, so f^zeta overflows
        (["harnack", "--n-freq", "128", "weak", "--zeta", "1e12"],
         "zeta = 1e+12 overflows the L^zeta average of the past values"),
        (["harnack", "chain", "--tau0", "1e-12"],
         "the chain needs N = ceil(6.66667e+11) links, which violates the rule N <= 100000"),
        (["harnack", "chain", "--x1", "1e12"],
         "the chain needs N = ceil(3.6e+13) links, which violates the rule N <= 100000"),
    ])
    def test_rule_is_checked_before_what_is_derived_from_it(self, tmp_path, capsys, argv, rule):
        # each rule is checked before what is derived from its value: sigma
        # divides by k, the De Giorgi level cap by zeta, the weak average
        # raises to zeta, and the chain's path holds N + 1 points
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert rule in capsys.readouterr().err
        assert not out.exists()

    def test_chain_whose_link_radius_underflows_runs(self, tmp_path):
        # at s = 1e-12 and an end time below 1 the link radius t^{1/(2s)}
        # underflows to 0; the first term divides by sigma^{2s} = min(1, t)
        out = tmp_path / "x"
        assert main(["harnack", "--s", "1e-12", "--out", str(out), "chain", "--tau0", "0.25", "--t1", "0.5"]) == 0
        with open(out / "harnack_chain.json") as fh:
            rep = json.load(fh)
        assert rep["sigma"] == 0.0 and rep["terms"][0] == 0.25 / 1.5

    def test_overflowing_degiorgi_cap_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["harnack", "--n-freq", "128", "--out", str(out), "degiorgi", "--p", "1.05"]) == 2
        assert "p = 1.05 overflows the level cap L" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, rule", [
        (["solve", "--nx", "1"], "nx and nv must be at least 2"),
        (["solve", "--nv", "1"], "nx and nv must be at least 2"),
        (["solve", "--x-period", "-1"], "x_period and v_extent must be finite and positive"),
        (["sweep", "harnack-strong", "--refinements", "0"], "argument --refinements: must be a positive integer"),
        (["harnack", "--n-freq", "128", "lower", "--alpha", "0"], "alpha must be positive"),
        (["harnack", "--n-freq", "128", "lower", "--alpha", "-1"], "alpha must be positive"),
    ])
    def test_bad_counts_and_boxes_are_config_errors(self, tmp_path, capsys, argv, rule):
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert rule in capsys.readouterr().err
        assert not out.exists()

    def test_nan_in_report_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "lower_bound_check", lambda tab, alpha: {"C1": float("nan")})
        out = tmp_path / "x"
        assert main(["harnack", "--n-freq", "128", "--out", str(out), "lower"]) == 3
        assert "harnack_lower.json" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_is_usage_error(self, tmp_path):
        assert main(["fundsol", "--frequency", "12"]) == 2

    def test_fundsol_has_no_dimension_flag(self, tmp_path, capsys):
        # the table is the d = 1 solution; a dimension flag would be ignored
        out = tmp_path / "x"
        assert main(["fundsol", "--d", "3", "--n-freq", "64", "--out", str(out)]) == 2
        assert "unrecognized arguments: --d 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fundsol", "--t", "nan"],
        ["fundsol", "--t", "inf"],
        ["fundsol", "--t", "0"],
        ["harnack", "lower", "--t", "nan"],
        ["aronson", "envelope", "--t", "-1"],
    ])
    def test_bad_table_time_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        # nan and inf stop at the flag; 0 and -1 reach the table's check
        rule = "t must be finite and positive" if math.isfinite(float(argv[-1])) else "--t: must be a finite number"
        assert rule in capsys.readouterr().err
        assert not out.exists()

    def test_nan_table_mass_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        x_axis, v_axis, vals, meta = fundsol._unit_profile(128, 0.5)
        monkeypatch.setattr(fundsol, "_unit_profile", lambda *a: (x_axis, v_axis, np.full_like(vals, np.nan), meta))
        assert main(["fundsol", "--n-freq", "128", "--out", str(tmp_path / "x")]) == 3
        assert "mass deficit" in capsys.readouterr().err

    def test_internal_type_error_is_not_config_error(self, tmp_path, monkeypatch):
        def broken(args, em):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli, "_run_fundsol", broken)
        with pytest.raises(TypeError, match="internal bug"):
            main(["fundsol", "--out", str(tmp_path / "x")])


class TestNumericFlags:
    """Every float and count flag of every parser, in both spellings
    ``--flag value`` and ``--flag=value``; parsing only."""

    def test_every_kind_is_walked(self):
        assert {kind for *_, kind in NUMERIC_FLAGS} == set(RULES)
        assert len({(tuple(path), flag) for path, flag, *_ in NUMERIC_FLAGS}) == len(NUMERIC_FLAGS)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bad_values_exit_2_and_write_nothing(self, data):
        path, flag, _, rest, kind = data.draw(st.sampled_from(NUMERIC_FLAGS))
        bad = st.sampled_from(NON_FINITE)
        if kind is cli._positive_int:
            bad = bad | st.integers(max_value=0).map(str)
        pair = _flag_and_value(data, flag, data.draw(bad))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(path[:1] + ["--out", out] + path[1:] + pair + rest)
            assert code == 2
            assert f"argument {flag}: {RULES[kind]}" in err.getvalue()
            assert not os.path.exists(out)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_finite_values_parse_in_every_spelling(self, data):
        path, flag, dest, rest, kind = data.draw(st.sampled_from(NUMERIC_FLAGS))
        if kind is cli._finite_float:
            x = data.draw(st.floats(min_value=-1e300, max_value=1e300))
            text = data.draw(st.sampled_from([f(x) for f in SPELLINGS] + ["-1e-3", "-.5", "-1.", "-2E+3", "-1_000.5"]))
            want = float(text)
        elif kind is cli._jump_order:
            # inside (0, 1) in every spelling, "{:f}" rounding to 6 places
            x = data.draw(st.floats(min_value=1e-3, max_value=0.999))
            text = data.draw(st.sampled_from([f(x) for f in SPELLINGS] + [".5", "5e-1", "0_0.5"]))
            want = float(text)
        else:
            want = data.draw(st.integers(min_value=1 if kind is cli._positive_int else None, max_value=10**9))
            text = str(want)
        args = PARSER.parse_args(path + _flag_and_value(data, flag, text) + rest)
        assert getattr(args, dest) == want

    @pytest.mark.parametrize("value, code", [("-1e-3", 0), ("-inf", 2), ("-nan", 2), ("-Infinity", 2)])
    def test_negative_value_after_a_space(self, tmp_path, capsys, value, code):
        # argparse's own pattern took these for option names: "expected one argument"
        out = tmp_path / "a"
        assert main(["aronson", "--out", str(out), "barrier", "--w0", value]) == code
        err = capsys.readouterr().err
        assert "expected one argument" not in err
        assert out.exists() == (code == 0)
        if code:
            assert "argument --w0: must be a finite number" in err


def _declared(path):
    """The destinations of the flags the leaf mode ``path`` accepts."""
    return {a.dest for ap in LEAVES[path] for a in ap._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)}


def _leaf(argv):
    args = PARSER.parse_args(argv)
    return (args.cmd,) + tuple(value for key, value in vars(args).items() if key.endswith("_cmd"))


def _unread(path):
    """Flags ``path`` accepts without reading them, kept because the bench
    passes them: ``--seed`` outside the two modes that draw samples, and the
    group-level ``--n-freq`` in the harnack and aronson modes that build no
    table."""
    unread = set() if path in {("ellipticity",), ("aronson", "k-threshold")} else {"seed"}
    if path in {("harnack", "tail"), ("harnack", "chain"), ("aronson", "barrier"), ("aronson", "k-threshold"),
                ("aronson", "energy")}:
        unread.add("n_freq")
    return unread


# the golden runs, one or more per leaf mode, and the cross-validated solve,
# the one solve path that reads --n-freq
READ_RUNS = {}
for _argv in [*RUNS.values(), ["solve", "--cross-validate", "--nx", "32", "--nv", "32", "--steps", "2",
                               "--n-freq", "64"]]:
    READ_RUNS.setdefault(_leaf(_argv), []).append(_argv)

SWEEP_VALUES = ["0", "-1", "1e-12", "1e12"]
# huge but finite values, swept where they once ended in an overflow, in
# far-field nodes that round onto the velocity, or (--t0, --x0) in a
# cylinder whose window or position radius rounds away at its centre
SWEEP_EXTRA = {("harnack", "tail"): ["1e17", "1e300", "-1e300"]}
# small base arguments per leaf mode; a swept flag of the mode's own parser
# follows them, so it overrides theirs
SWEEP_BASE = {
    ("solve",): ["--nx", "16", "--nv", "16", "--steps", "2"],
    ("ellipticity",): ["--samples", "4"],
    ("harnack", "tail"): ["--field", "{field}", "--t0", "0.6", "--R", "0.3", "--nodes", "4"],
    ("aronson", "k-threshold"): ["--samples", "1"],
    ("aronson", "energy"): ["--nx", "16", "--nv", "32", "--steps", "2"],
    ("sweep",): ["harnack-strong", "--refinements", "1"],
}
# the numerical failures (exit 3) a swept value may give, and their messages
SWEEP_FAILURES = {
    **{(path, "--s", "1e-12"): "frequency extent search did not converge"
       for path in [("fundsol",), ("harnack", "l1linf"), ("harnack", "degiorgi"), ("harnack", "lower"),
                    ("aronson", "envelope")]},
    (("aronson", "k-threshold"), "--c", "1e12"): "no feasible k below 16777216",
}


class TestModeFlags:
    """Each leaf mode declares only the flags it reads, and every value of a
    float flag either runs or is rejected as a configuration error."""

    def test_every_leaf_has_a_golden_run(self):
        assert sorted(READ_RUNS) == sorted(LEAVES)

    @pytest.mark.parametrize("path", sorted(LEAVES), ids="-".join)
    def test_each_mode_reads_what_it_declares(self, tmp_path, monkeypatch, path):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        class RecordingParser:
            # main's parser, whose namespace records the reads after parsing
            @staticmethod
            def parse_args(argv):
                args = PARSER.parse_args(argv)
                args.__class__ = Recording
                return args

        monkeypatch.setattr(cli, "_parser", RecordingParser)
        paths = _write_inputs(str(tmp_path))
        for i, argv in enumerate(READ_RUNS[path]):
            argv = [a.format(**paths) for a in argv]
            assert main(argv[:1] + ["--out", str(tmp_path / f"run{i}")] + argv[1:]) == 0
        assert _declared(path) - reads == _unread(path)

    @pytest.mark.parametrize("argv", [
        RUNS["harnack-tail"],
        # a velocity whose jump term is live: at the golden point the ball is flat
        ["aronson", "barrier", "--rho", "1.0", "--k", "2.0", "--x1", "0.1", "--v1", "5"],
        # a c at which k = 1 is not feasible, so the kernel moves the threshold
        ["aronson", "k-threshold", "--samples", "3", "--c", "100"],
        RUNS["aronson-energy"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_kernel_config_reaches_the_mode(self, tmp_path, argv):
        paths = _write_inputs(str(tmp_path))
        reports = []
        for extra in ([], ["--kernel-config", paths["perturbed"]]):
            run = [a.format(**paths) for a in argv] + extra
            out = tmp_path / f"run{len(reports)}"
            assert main(run[:1] + ["--out", str(out)] + run[1:]) == 0
            reports.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f != "manifest.json"})
        assert reports[0].keys() == reports[1].keys()
        assert all(reports[0][f] != reports[1][f] for f in reports[0])

    @pytest.mark.parametrize("argv", [
        ["harnack", "strong", "--kernel-config", "{perturbed}"],
        ["harnack", "--kernel-config", "{perturbed}", "strong"],
        ["harnack", "--kernel-config", "{perturbed}", "tail", "--field", "{field}"],
        ["aronson", "envelope", "--kernel-config", "{perturbed}"],
        ["fundsol", "--kernel-config", "{perturbed}"],
        ["sweep", "harnack-strong", "--kernel-config", "{perturbed}"],
    ])
    def test_kernel_config_is_refused_where_it_is_not_read(self, tmp_path, argv):
        paths = _write_inputs(str(tmp_path))
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + [a.format(**paths) for a in argv[1:]]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(LEAVES), ids="-".join)
    def test_float_values_exit_0_or_2(self, tmp_path, capsys, path):
        paths = _write_inputs(str(tmp_path))
        base = [a.format(**paths) for a in SWEEP_BASE.get(path, [])]
        n_freq = ["--n-freq", "64"] if "n_freq" in _declared(path) else []
        wrong = []
        for depth, ap in enumerate(LEAVES[path]):
            group = depth < len(path) - 1  # a group-level flag goes before the mode word
            for action in ap._actions:
                if action.type not in (cli._finite_float, cli._jump_order):
                    continue
                flag = action.option_strings[0]
                for value in SWEEP_VALUES + SWEEP_EXTRA.get(path, []):
                    pair = [flag, value]
                    out = str(tmp_path / f"{depth}{flag}{value}")
                    argv = ([path[0], "--out", out] + n_freq + (pair if group else []) + list(path[1:]) + base
                            + ([] if group else pair))
                    code = main(argv)
                    err = capsys.readouterr().err
                    if code == 3 and SWEEP_FAILURES.get((path, flag, value), "\0") in err:
                        continue
                    if code not in (0, 2):
                        wrong.append((flag, value, code, err))
        assert wrong == []

    @pytest.mark.parametrize("flag, value, rule", [
        # the cylinder's velocity radius (R/2 = 0.15) rounds away at these
        # centres before the far field is built
        ("--v0", "1e17", "violates the rule v + r != v for the velocity radius"),
        ("--v0", "1e300", "violates the rule v + r != v for the velocity radius"),
        ("--v0", "-1e300", "violates the rule v + r != v for the velocity radius"),
        # the field is saved on t in [0, 1] and v_axis in [-4, 3.75]; it is
        # not read at clamped edge values beyond them
        ("--v0", "1e12", "violates the rule v_axis[0] <= v <= v_axis[-1]"),
        ("--v0", "100", "violates the rule v_axis[0] <= v <= v_axis[-1]"),
        ("--t0", "1e15", "violates the rule t0 <= t <= t1"),
        ("--R", "1e300", "violates the rule r^{1+2s} finite"),
        ("--t0", "1e300", "violates the rule lo < hi for the time window"),
        ("--x0", "1e17", "violates the rule x + r^{1+2s} != x for the position radius"),
    ])
    def test_huge_tail_inputs_name_the_rule(self, tmp_path, capsys, flag, value, rule):
        paths = _write_inputs(str(tmp_path))
        out = tmp_path / "x"
        base = [a.format(**paths) for a in SWEEP_BASE[("harnack", "tail")]]
        assert main(["harnack", "--out", str(out), "tail"] + base + [flag, value]) == 2
        err = capsys.readouterr().err
        assert rule in err and "Warning" not in err
        assert not out.exists()


def _explicit():
    """The explicit field of the golden runs: ``--n-freq 128``, the default offset."""
    return harnack.fundamental_field(fundsol.j0_table(1.0, 0.5, n_freq=128), t_offset=1.0)


# the report of each golden measurement run, by the API call it makes
Z1 = PhasePoint(1.0, 0.0, 0.0)
API_REPORTS = {
    "harnack-strong": lambda paths: harnack.strong_harnack_ratio(_explicit(), Z1, 0.1, 0.5),
    "harnack-weak": lambda paths: harnack.weak_harnack_ratio(_explicit(), Z1, 0.125),
    "harnack-l1linf": lambda paths: harnack.l1_linf_ratio(_explicit(), Z1, 0.5, 0.5),
    "harnack-tail": lambda paths: harnack.tail_bound_ratio(
        load_field(paths["field"]), kernels.normalized_fractional(0.5), PhasePoint(0.6, 0.0, 0.0), 0.3),
    "harnack-degiorgi": lambda paths: harnack.degiorgi_trace(_explicit(), Z1, 0.5, delta=0.5, p=1.14),
    "harnack-lower": lambda paths: harnack.lower_bound_check(fundsol.j0_table(1.0, 0.5, n_freq=128)),
    **{f"aronson-envelope-{kind}": lambda paths, kind=kind: aronson.decay_envelope_check(
        fundsol.j0_table(1.0, 0.5, n_freq=128), kind)
       for kind in ("NashOnDiag", "UpperUnconditional", "UpperConditional", "LowerExponential")},
}


class TestReportsAreTheApiDicts:
    @pytest.mark.parametrize("run", sorted(API_REPORTS))
    def test_cli_writes_the_report_the_api_returns(self, tmp_path, run):
        paths = _write_inputs(str(tmp_path))
        argv = [a.format(**paths) for a in RUNS[run]]
        out = tmp_path / "x"
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 0
        (name,) = [f for f in os.listdir(out) if f.endswith(".json") and f != "manifest.json"]
        with open(out / name) as fh:
            assert json.load(fh) == json.loads(json.dumps(API_REPORTS[run](paths)))


class TestEmitter:
    def test_config_error_leaves_no_directory(self, tmp_path):
        out = tmp_path / "x"
        assert main(["fundsol", "--s", "1.5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_success_leaves_no_temporary_file(self, tmp_path):
        out = tmp_path / "f"
        assert main(["fundsol", "--n-freq", "128", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["fundsol.json", "manifest.json"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        em = cli.Emitter(str(tmp_path / "w"), "")
        em.json("good.json", {"a": 1})
        with pytest.raises(TypeError):
            em.json("bad.json", {"a": object()})
        assert os.listdir(tmp_path / "w") == ["good.json"]
        assert em.files == ["good.json"]


class TestColdStart:
    def test_cli_import_loads_no_lazy_dependency(self):
        # every run pays for what importing the CLI loads; these load only
        # where a mode needs them (seeded sampling, tests), and
        # numpy.polynomial nowhere (test_kernels guards the quadrature users)
        src = os.path.dirname(os.path.dirname(os.path.abspath(kineticlab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        lazy = ("numpy.polynomial", "numpy.random", "scipy")
        code = f"import sys, kineticlab.cli; print(sorted(m for m in sys.modules if m.startswith({lazy})))"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_ellipticity_run_loads_no_numpy_random(self, tmp_path):
        # its symmetry samples come from the stdlib generator
        src = os.path.dirname(os.path.dirname(os.path.abspath(kineticlab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, kineticlab.cli; "
                f"assert kineticlab.cli.main(['ellipticity', '--fit', '--out', {str(tmp_path / 'e')!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m.startswith(('numpy.random', 'numpy.polynomial', 'scipy'))))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"


class TestTracedBench:
    """bench/tracing.py wraps package functions and methods by name and
    signature; a renamed layer or a changed signature would leave its spans
    empty, or fail, under `bench/run.py --trace 1`."""

    @staticmethod
    def _layer_totals(argvs):
        """The tracer's per-layer totals over CLI runs that each exit 0."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "bench")]))
        code = ("import json, tracing\n"
                "tracer = tracing.Tracer()\n"
                "tracing.install(tracer)\n"
                "from kineticlab.cli import main\n"
                + "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
                + "print(json.dumps(tracing.layer_totals(tracer.spans), default=list))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return json.loads(run.stdout)

    def test_traced_runs_reach_the_table_layers(self, tmp_path):
        totals = self._layer_totals([["fundsol", "--n-freq", "64", "--out", str(tmp_path / "f")],
                                     ["harnack", "--n-freq", "64", "--out", str(tmp_path / "h"), "lower"]])
        assert totals["fundsol.j0_table"]["calls"] == 3  # fundsol, its composition check, lower
        assert totals["fundsol.FundamentalSolutionTable.sample"]["work"] > 0  # points read

    def test_traced_runs_reach_the_cylinder_and_field_layers(self, tmp_path):
        paths = _write_inputs(str(tmp_path))
        totals = self._layer_totals([
            ["harnack", "--n-freq", "64", "--out", str(tmp_path / "s"), "strong"],
            ["harnack", "--out", str(tmp_path / "t"), "tail", "--field", paths["field"], "--t0", "0.6", "--R", "0.3",
             "--nodes", "4"],
        ])
        # strong reads two cylinders on 8^3 nodes, tail two on 4^3
        nodes = totals["geometry.KineticCylinder.nodes"]
        assert (nodes["calls"], nodes["work"]) == (4, 2 * 8**3 + 2 * 4**3)
        assert totals["harnack.fundamental_field.sample"]["calls"] > 0
        assert totals["fields.PhaseField.sample"]["calls"] > 0


class TestExports:
    @pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(kineticlab.__path__)))
    def test_every_export_resolves(self, name):
        # a deleted object must not leave its name in __all__
        module = importlib.import_module(f"kineticlab.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    def test_every_import_is_used(self):
        # an imported name that nothing reads, in the package or its tests;
        # a name re-exported through __all__ counts as read
        unused = []
        for folder in (os.path.dirname(kineticlab.__file__), os.path.dirname(__file__)):
            for name in sorted(os.listdir(folder)):
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(folder, name)) as fh:
                    tree = ast.parse(fh.read())
                imported, read = {}, set()
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                        imported.update((a.asname or a.name, node.lineno) for a in node.names)
                    elif isinstance(node, ast.Name):
                        read.add(node.id)
                    elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                        read.update(ast.literal_eval(node.value))
                unused += [f"{name}:{line} {n}" for n, line in sorted(imported.items()) if n not in read]
        assert unused == []


class TestParserCache:
    """``main`` reads every command line with one parser per process; what
    one call parses must not reach the next."""

    @staticmethod
    def _run(argv, out):
        return main(argv[:1] + ["--out", str(out)] + argv[1:])

    @staticmethod
    def _outputs(out):
        return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}

    @pytest.mark.parametrize("first, code", [
        (["harnack", "--n-freq", "128", "strong", "--t0", "1.0"], 0),
        (["harnack", "--n-freq", "128", "strong", "--t0", "nan"], 2),
        (["harnack", "--n-freq", "128", "strong", "--frequency", "12"], 2),
    ])
    def test_a_call_leaves_nothing_for_the_next(self, tmp_path, first, code):
        second = ["harnack", "--n-freq", "128", "strong"]
        cli._parser.cache_clear()
        assert self._run(second, tmp_path / "alone") == 0
        assert self._run(first, tmp_path / "first") == code
        assert self._run(second, tmp_path / "after") == 0
        assert self._outputs(tmp_path / "after") == self._outputs(tmp_path / "alone")

    def test_parser_holds_no_handler(self):
        # a handler held by the parser would outlive a replacement of its
        # module attribute; main looks it up by command name on each call
        for ap in _parsers(cli._parser()):
            assert [v for v in ap._defaults.values() if callable(v)] == []

    def test_subcommand_help_is_unchanged(self, monkeypatch):
        # every subcommand's help text, captured once from the parser whose
        # modes declare only the options they read; the top-level text is
        # the module docstring and is not compared
        monkeypatch.setenv("COLUMNS", "80")
        with open(os.path.join(os.path.dirname(__file__), "cli_help.json")) as fh:
            want = json.load(fh)
        for parser in (cli.build_parser(), cli._parser()):
            got = {ap.prog.split(" ", 1)[1]: ap.format_help() for ap in _parsers(parser) if ap is not parser}
            assert got == want


    def test_top_level_help_is_user_facing(self, capsys):
        # the module docstring is the description: subcommands, outputs
        # and exit codes, and nothing about how main reads a command line
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for cmd in ("fundsol", "solve", "ellipticity", "harnack", "aronson", "sweep"):
            assert f"kineticlab {cmd} " in text
        assert "manifest.json" in text
        assert "Exit codes: 0 success, 2 configuration/validation error, 3 numerical" in text
        assert "parser" not in text and "handler" not in text


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        def args(out):
            return ["harnack", "--n-freq", "128", "--out", out, "strong", "--t0", "1.0", "--r0", "0.1"]

        assert main(args(str(tmp_path / "r1"))) == 0
        assert main(args(str(tmp_path / "r2"))) == 0
        names1 = sorted(os.listdir(tmp_path / "r1"))
        assert names1 == sorted(os.listdir(tmp_path / "r2"))
        for name in names1:
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    def test_manifest_hashes_outputs(self, tmp_path):
        import hashlib

        assert main(["ellipticity", "--out", str(tmp_path / "m")]) == 0
        man = _manifest(tmp_path / "m")
        for name, digest in man["outputs"].items():
            payload = (tmp_path / "m" / name).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == digest
