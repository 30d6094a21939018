"""Gridded phase-space fields.

A :class:`PhaseField` lives on a uniform ``(t, x, v)`` grid with
periodic position and a declared far-field closure in velocity, which
stands in for the values of the field outside the velocity box.
Import/export uses a flat binary array plus a JSON header and is
bit-exact.  Position and velocity are one-dimensional; the header states
this as ``"d": 1``.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseGrid",
    "ZeroExtension",
    "PowerLawEnvelope",
    "PhaseField",
    "save_field",
    "load_field",
]


def _is_int(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _is_real(a) -> bool:
    return isinstance(a, numbers.Real) and not isinstance(a, bool)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform grid; ``x`` is periodic on ``[-x_period/2, x_period/2)``,
    ``v`` covers ``[-v_extent, v_extent)``.  Node-based in x and v so
    FFT shifts are exact; cell counts must be even.  ``nt`` slices span
    ``[t0, t1]`` forward in time."""

    nt: int
    nx: int
    nv: int
    x_period: float
    v_extent: float
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if not all(_is_int(n) for n in (self.nt, self.nx, self.nv)):
            raise ValueError("nt, nx and nv must be integers")
        if not all(_is_real(a) for a in (self.x_period, self.v_extent, self.t0, self.t1)):
            raise ValueError("x_period, v_extent, t0 and t1 must be real numbers")
        if self.nx < 2 or self.nv < 2:
            raise ValueError("nx and nv must be at least 2")
        if self.nx % 2 or self.nv % 2:
            raise ValueError("nx and nv must be even")
        if not (0 < self.x_period < np.inf and 0 < self.v_extent < np.inf):
            raise ValueError("x_period and v_extent must be finite and positive")
        if self.nt < 1:
            raise ValueError("need at least one time slice")
        if not (np.isfinite(self.t0) and np.isfinite(self.t1)):
            raise ValueError("t0 and t1 must be finite")
        if self.nt > 1 and not self.t0 < self.t1:
            raise ValueError("t1 must exceed t0 when nt > 1")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / max(self.nt - 1, 1)

    @property
    def dx(self) -> float:
        return self.x_period / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.v_extent / self.nv

    @property
    def t_axis(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    @property
    def x_axis(self) -> np.ndarray:
        return -0.5 * self.x_period + self.dx * np.arange(self.nx)

    @property
    def v_axis(self) -> np.ndarray:
        return -self.v_extent + self.dv * np.arange(self.nv)


@dataclass(frozen=True)
class ZeroExtension:
    """Field vanishes outside the velocity box."""

    def envelope(self, w):
        return np.zeros_like(np.asarray(w, dtype=float))

    def tag(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class PowerLawEnvelope:
    """``f(w) ~ amplitude * |w|^{-exponent}`` outside the box."""

    amplitude: float
    exponent: float

    def __post_init__(self):
        if not (_is_real(self.amplitude) and _is_real(self.exponent)):
            raise ValueError("power-law amplitude and exponent must be real numbers")
        if self.exponent <= 0:
            raise ValueError("power-law exponent must be positive")

    def envelope(self, w):
        w = np.asarray(w, dtype=float)
        return self.amplitude * np.abs(w) ** (-self.exponent)

    def tag(self) -> dict:
        return {"kind": "power_law", "amplitude": self.amplitude, "exponent": self.exponent}


def _closure_from_tag(tag):
    if not (isinstance(tag, dict) and "kind" in tag):
        raise ValueError(f"far-field tag {tag!r} violates the rule: an object with a 'kind' key")
    if tag["kind"] == "zero":
        return ZeroExtension()
    if tag["kind"] == "power_law":
        missing = [key for key in ("amplitude", "exponent") if key not in tag]
        if missing:
            raise ValueError(f"power-law far-field tag lacks the keys {missing}")
        return PowerLawEnvelope(tag["amplitude"], tag["exponent"])
    raise ValueError(f"unknown far-field closure {tag!r}")


class PhaseField:
    """Scalar field sampled on a :class:`PhaseGrid`.

    ``values`` has shape ``(nt, nx, nv)``.  ``sample`` interpolates
    trilinearly (periodic wrap in x, clamped in t and v).  Cell indices and
    weights are computed per axis on each input as given, so separable
    points (say ``t[:, None]``, ``x[:, None]``, ``v[None, :]``) pay per axis;
    only the corner gathers and the weighted sum run at the broadcast shape.
    """

    def __init__(self, grid: PhaseGrid, values: np.ndarray, farfield=None):
        # C order, so that sample reads the flat values without a copy
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != (grid.nt, grid.nx, grid.nv):
            raise ValueError(f"values shape {values.shape} does not match grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values
        self.farfield = farfield if farfield is not None else ZeroExtension()

    def sample(self, t, x, v):
        """Trilinear interpolation, vectorized over broadcastable inputs."""
        g = self.grid
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)

        if g.nt > 1:
            ft = np.clip((t - g.t0) / g.dt, 0.0, g.nt - 1 - 1e-12)
        else:
            ft = np.zeros_like(t)
        it = np.floor(ft).astype(int)
        at = ft - it
        it1 = np.minimum(it + 1, g.nt - 1)

        fx = (x + 0.5 * g.x_period) / g.dx
        ix = np.floor(fx).astype(int)
        ax = fx - ix
        ix0 = np.mod(ix, g.nx)
        ix1 = np.mod(ix + 1, g.nx)

        fv = np.clip((v + g.v_extent) / g.dv, 0.0, g.nv - 1 - 1e-12)
        iv = np.floor(fv).astype(int)
        av = fv - iv
        iv1 = np.minimum(iv + 1, g.nv - 1)

        # corners are gathered from the flat values at the offset of their
        # (t, x) row plus their v index
        V = self.values.ravel()
        out = np.zeros(np.broadcast_shapes(t.shape, x.shape, v.shape))
        for dt_, wt in ((it * (g.nx * g.nv), 1 - at), (it1 * (g.nx * g.nv), at)):
            for dx_, wx in ((ix0 * g.nv, 1 - ax), (ix1 * g.nv, ax)):
                row, wtx = dt_ + dx_, wt * wx
                for dv_, wv in ((iv, 1 - av), (iv1, av)):
                    out += wtx * wv * V.take(row + dv_)
        return out


def save_field(f: PhaseField, path: str) -> None:
    """Write ``path`` (binary, little-endian float64 C-order) and
    ``path + '.json'`` (header)."""
    g = f.grid
    header = {
        "d": 1,
        "nt": g.nt,
        "nx": g.nx,
        "nv": g.nv,
        "x_period": g.x_period,
        "v_extent": g.v_extent,
        "t0": g.t0,
        "t1": g.t1,
        "farfield": f.farfield.tag(),
        "dtype": "<f8",
        "order": "C",
    }
    with open(path + ".json", "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")
    # no copy of a little-endian C-contiguous float64 field
    np.ascontiguousarray(f.values, dtype="<f8").tofile(path)


_HEADER_KEYS = ("d", "nt", "nx", "nv", "x_period", "v_extent", "t0", "t1", "farfield")


def load_field(path: str) -> PhaseField:
    with open(path + ".json") as fh:
        header = json.load(fh)
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"field header {path}.json lacks the keys {missing}")
    if not (_is_int(header["d"]) and header["d"] == 1):
        raise ValueError(f"field header 'd' = {header['d']!r} violates the rule d = 1 (one velocity dimension)")
    grid = PhaseGrid(
        nt=header["nt"],
        nx=header["nx"],
        nv=header["nv"],
        x_period=header["x_period"],
        v_extent=header["v_extent"],
        t0=header["t0"],
        t1=header["t1"],
    )
    count = grid.nt * grid.nx * grid.nv
    if os.path.getsize(path) != count * 8:
        raise ValueError("binary payload size does not match header")
    values = np.fromfile(path, dtype="<f8", count=count).reshape(grid.nt, grid.nx, grid.nv)
    return PhaseField(grid, values, _closure_from_tag(header["farfield"]))
