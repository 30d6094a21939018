"""Golden CLI reports: a fixed set of fast runs must reproduce the reports
in ``cli_reports.json``, every number to 1e-9 relative and every other
value exactly.

A change that is meant to keep every report regenerates nothing.  A change
that moves a number on purpose regenerates the file and states the move::

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import json
import math
import os
import sys
import tempfile

import numpy as np

from kineticlab.cli import main
from kineticlab.fields import PhaseField, PhaseGrid, PowerLawEnvelope, save_field

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_reports.json")
REL = 1e-9

# ``{field}`` and ``{perturbed}`` stand for the paths of the inputs that
# ``_write_inputs`` makes
PERTURBED = f"kind = perturbed\nc = {1 / math.pi!r}\ns = 0.5\na_min = 0.5\na_max = 1.5\nd = 1\n"
RUNS = {
    "fundsol": ["fundsol", "--n-freq", "128"],
    "solve": ["solve", "--nx", "32", "--nv", "32", "--x-period", "8", "--v-extent", "6",
              "--dt", "0.05", "--steps", "4"],
    "ellipticity-frac": ["ellipticity", "--fit"],
    "ellipticity-perturbed": ["ellipticity", "--fit", "--kernel-config", "{perturbed}"],
    "harnack-strong": ["harnack", "--n-freq", "128", "strong", "--t0", "1.0", "--r0", "0.1"],
    "harnack-weak": ["harnack", "--n-freq", "128", "weak", "--t0", "1.0"],
    "harnack-l1linf": ["harnack", "--n-freq", "128", "l1linf", "--t0", "1.0"],
    "harnack-tail": ["harnack", "tail", "--field", "{field}", "--t0", "0.6", "--R", "0.3", "--nodes", "6"],
    "harnack-degiorgi": ["harnack", "--n-freq", "128", "degiorgi", "--t0", "1.0"],
    "harnack-chain": ["harnack", "chain", "--tau0", "1.0", "--t1", "2.0", "--x1", "1.0", "--v1", "1.0"],
    "harnack-lower": ["harnack", "--n-freq", "128", "lower"],
    "aronson-barrier": ["aronson", "barrier", "--rho", "1.0", "--k", "2.0", "--x1", "0.1", "--v1", "0.5"],
    "aronson-k-threshold": ["aronson", "k-threshold", "--samples", "3"],
    "aronson-energy": ["aronson", "energy", "--nx", "16", "--nv", "32", "--steps", "2"],
    **{f"aronson-envelope-{kind}": ["aronson", "--n-freq", "128", "envelope", "--kind", kind]
       for kind in ("NashOnDiag", "UpperUnconditional", "UpperConditional", "LowerExponential")},
    "sweep": ["sweep", "harnack-strong", "--n-freq", "128", "--refinements", "2", "--t0", "1.0"],
}


def _write_inputs(root):
    """A saved 3 x 32 x 32 field with a power-law closure, and the perturbed
    kernel config; returns their paths by placeholder name."""
    grid = PhaseGrid(nt=3, nx=32, nv=32, x_period=4.0, v_extent=4.0, t0=0.0, t1=1.0)
    t, x, v = np.meshgrid(grid.t_axis, grid.x_axis, grid.v_axis, indexing="ij")
    values = (1.0 + t) * np.exp(-x**2 - 0.5 * v**2)
    field = os.path.join(root, "field.bin")
    save_field(PhaseField(grid, values, PowerLawEnvelope(amplitude=0.05, exponent=2.0)), field)
    perturbed = os.path.join(root, "perturbed.cfg")
    with open(perturbed, "w") as fh:
        fh.write(PERTURBED)
    return {"field": field, "perturbed": perturbed}


def _read(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    return [rows[0]] + [[float(c) for c in row] for row in rows[1:]]


def run_all(root):
    """Every run of ``RUNS`` into ``root``: ``{run: {file: report}}`` for each
    output but the manifest."""
    paths = _write_inputs(root)
    out = {}
    for name, argv in RUNS.items():
        argv = [a.format(**paths) for a in argv]
        where = os.path.join(root, name)
        code = main(argv[:1] + ["--out", where] + argv[1:])
        assert code == 0, f"{name} exited {code}"
        out[name] = {f: _read(os.path.join(where, f)) for f in sorted(os.listdir(where)) if f != "manifest.json"}
    return out


def _mismatches(want, got, where=""):
    """Paths below ``where`` at which ``got`` differs from ``want``."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        return [] if type(want) is type(got) and want == got else [where]
    if isinstance(want, (int, float)):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and math.isclose(want, got, rel_tol=REL)
        return [] if ok else [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(want) != sorted(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for key in want for m in _mismatches(want[key], got[key], f"{where}/{key}")]
    if not isinstance(got, list) or len(want) != len(got):
        return [f"{where}: {want!r} != {got!r}"]
    return [m for i, (a, b) in enumerate(zip(want, got)) for m in _mismatches(a, b, f"{where}[{i}]")]


def test_reports_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = run_all(str(tmp_path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert _mismatches(want[name], got[name], name) == []


def test_mismatches_reads_numbers_by_tolerance():
    assert _mismatches({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-12, "x", True]}) == []
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-6}) != []
    assert _mismatches({"a": True}, {"a": 1}) != []
    assert _mismatches({"a": 1}, {"a": True}) != []
    assert _mismatches({"a": "x"}, {"a": "y"}) != []
    assert _mismatches({"a": 1.0}, {"b": 1.0}) != []
    assert _mismatches([1.0], [1.0, 2.0]) != []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        reports = run_all(root)
    with open(GOLDEN, "w") as fh:
        json.dump(reports, fh, sort_keys=True, indent=1)
        fh.write("\n")
    sys.exit(0)
