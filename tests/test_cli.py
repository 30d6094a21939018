"""Experiment runner: subcommands, exit codes, manifests, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kineticlab
from kineticlab import cli, fundsol
from kineticlab.cli import main


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


class TestSubcommands:
    def test_fundsol(self, tmp_path):
        code = main(["fundsol", "--t", "1.0", "--n-freq", "128", "--out", str(tmp_path / "f")])
        assert code == 0
        with open(tmp_path / "f" / "fundsol.json") as fh:
            rep = json.load(fh)
        assert rep["mass"] == pytest.approx(1.0, abs=1e-3)
        man = _manifest(tmp_path / "f")
        assert "fundsol.json" in man["outputs"]

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
        # is 1/pi times the unit Gagliardo kernel on both quadrature sides
        assert isinstance(rep["coercivity"]["pass"], bool)
        assert rep["coercivity"]["fitted_constant"] == pytest.approx(1 / math.pi, rel=1e-9)
        assert "ellipticity.json" in _manifest(tmp_path / "e")["outputs"]

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
        assert main(["ellipticity", "--kernel", "weird", "--out", str(tmp_path / "x")]) == 2

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
        assert {a.option_strings[0] for a in actions if a.type is int} == {"--seed", "--d"}
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

    def test_too_few_frequencies_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["fundsol", "--n-freq", "3", "--out", str(out)]) == 2
        assert "n_freq must be at least 4" in capsys.readouterr().err
        assert not out.exists()

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
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(kineticlab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, kineticlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"


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
