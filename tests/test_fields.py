"""Gridded fields: grids, interpolation, closures, and I/O."""

import json
import math

import numpy as np
import pytest

from kineticlab.fields import (
    PhaseField,
    PhaseGrid,
    PowerLawEnvelope,
    ZeroExtension,
    load_field,
    save_field,
)


def _grid(nt=3, nx=16, nv=16):
    return PhaseGrid(nt=nt, nx=nx, nv=nv, x_period=4.0, v_extent=2.0, t0=0.0, t1=1.0)


class TestPhaseGrid:
    def test_axes(self):
        g = _grid()
        assert g.x_axis[0] == -2.0 and g.v_axis[0] == -2.0
        assert g.dx == pytest.approx(0.25)
        assert g.dv == pytest.approx(0.25)
        assert g.t_axis[-1] == pytest.approx(1.0)

    def test_rejects_odd_counts(self):
        with pytest.raises(ValueError):
            PhaseGrid(nt=1, nx=15, nv=16, x_period=1.0, v_extent=1.0)

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            PhaseGrid(nt=1, nx=16, nv=16, x_period=-1.0, v_extent=1.0)

    @pytest.mark.parametrize("nx, nv", [(0, 16), (16, 0), (-2, 16), (16, 1)])
    def test_rejects_fewer_than_two_cells(self, nx, nv):
        with pytest.raises(ValueError, match="at least 2"):
            PhaseGrid(nt=1, nx=nx, nv=nv, x_period=1.0, v_extent=1.0)

    @pytest.mark.parametrize("box", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_boxes(self, box):
        for kw in ({"x_period": box, "v_extent": 1.0}, {"x_period": 1.0, "v_extent": box}):
            with pytest.raises(ValueError, match="finite and positive"):
                PhaseGrid(nt=1, nx=16, nv=16, **kw)

    @pytest.mark.parametrize("nt", [1, 3])
    @pytest.mark.parametrize("t0, t1", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
    def test_rejects_non_finite_times(self, nt, t0, t1):
        with pytest.raises(ValueError, match="t0 and t1 must be finite"):
            PhaseGrid(nt=nt, nx=16, nv=16, x_period=1.0, v_extent=1.0, t0=t0, t1=t1)

    @pytest.mark.parametrize("t0, t1", [(1.0, 0.0), (0.5, 0.5)])
    def test_rejects_time_axis_not_forward(self, t0, t1):
        with pytest.raises(ValueError, match="t1 must exceed t0 when nt > 1"):
            PhaseGrid(nt=2, nx=16, nv=16, x_period=1.0, v_extent=1.0, t0=t0, t1=t1)
        # one slice has no time step, so its two ends may coincide
        assert PhaseGrid(nt=1, nx=16, nv=16, x_period=1.0, v_extent=1.0, t0=t0, t1=t0).dt == 0.0

    @pytest.mark.parametrize("counts", [(1, 16.0, 16), (1, 16, np.float64(16)), (2.0, 16, 16), (True, 16, 16)])
    def test_rejects_non_integer_counts(self, counts):
        nt, nx, nv = counts
        with pytest.raises(ValueError, match="nt, nx and nv must be integers"):
            PhaseGrid(nt=nt, nx=nx, nv=nv, x_period=1.0, v_extent=1.0)
        assert PhaseGrid(nt=np.int64(2), nx=np.int32(16), nv=16, x_period=1.0, v_extent=1.0).nx == 16


class TestClosures:
    def test_zero_extension(self):
        assert np.all(ZeroExtension().envelope([1.0, 5.0]) == 0.0)

    def test_power_law(self):
        env = PowerLawEnvelope(amplitude=2.0, exponent=2.0)
        assert env.envelope(4.0) == pytest.approx(2.0 / 16.0)
        with pytest.raises(ValueError):
            PowerLawEnvelope(amplitude=1.0, exponent=-1.0)


def _broadcast_first_sample(f, t, x, v):
    """Trilinear sampling as made on points broadcast to full shape first,
    with a three-array gather per corner."""
    g = f.grid
    t, x, v = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, x, v)))
    ft = np.clip((t - g.t0) / g.dt, 0.0, g.nt - 1 - 1e-12) if g.nt > 1 else np.zeros_like(t)
    it = np.floor(ft).astype(int)
    at = ft - it
    it1 = np.minimum(it + 1, g.nt - 1)
    fx = (x + 0.5 * g.x_period) / g.dx
    ix = np.floor(fx).astype(int)
    ax = fx - ix
    fv = np.clip((v + g.v_extent) / g.dv, 0.0, g.nv - 1 - 1e-12)
    iv = np.floor(fv).astype(int)
    av = fv - iv
    iv1 = np.minimum(iv + 1, g.nv - 1)
    out = np.zeros_like(t)
    for dt_, wt in ((it, 1 - at), (it1, at)):
        for dx_, wx in ((np.mod(ix, g.nx), 1 - ax), (np.mod(ix + 1, g.nx), ax)):
            for dv_, wv in ((iv, 1 - av), (iv1, av)):
                out += wt * wx * wv * f.values[dt_, dx_, dv_]
    return out


class TestPhaseField:
    def test_shape_validation(self):
        g = _grid()
        with pytest.raises(ValueError):
            PhaseField(g, np.zeros((2, 16, 16)))
        with pytest.raises(ValueError):
            PhaseField(g, np.full((3, 16, 16), np.nan))

    def test_sample_reproduces_nodes(self):
        g = _grid()
        vals = np.random.default_rng(0).normal(size=(g.nt, g.nx, g.nv))
        f = PhaseField(g, vals)
        got = f.sample(g.t_axis[1], g.x_axis[3], g.v_axis[5])
        assert got == pytest.approx(vals[1, 3, 5], rel=1e-12)

    def test_sample_is_linear_between_nodes(self):
        # trilinear interpolation is exact for a field affine in v
        g = _grid()
        vals = np.broadcast_to(2.0 * g.v_axis + 1.0, (g.nt, g.nx, g.nv)).copy()
        f = PhaseField(g, vals)
        v_mid = g.v_axis[4] + 0.5 * g.dv
        assert f.sample(0.0, 0.0, v_mid) == pytest.approx(2.0 * v_mid + 1.0, rel=1e-12)

    def test_periodic_wrap_in_x(self):
        g = _grid()
        vals = np.broadcast_to(np.cos(2 * np.pi * g.x_axis / g.x_period)[:, None], (g.nt, g.nx, g.nv)).copy()
        f = PhaseField(g, vals)
        assert f.sample(0.0, g.x_axis[0], 0.0) == pytest.approx(f.sample(0.0, g.x_axis[0] + g.x_period, 0.0), rel=1e-12)


    @pytest.mark.parametrize("nt", [1, 3])
    def test_per_axis_bit_identical_to_broadcast_first(self, nt):
        g = _grid(nt=nt)
        f = PhaseField(g, np.random.default_rng(2).normal(size=(g.nt, g.nx, g.nv)))
        rng = np.random.default_rng(3)
        # before and after the time window, x over several periods (and NaN,
        # whose value is NaN), v beyond the velocity box
        t = np.concatenate([rng.uniform(-0.3, 1.3, 20), [0.0, 1.0]])
        x = np.concatenate([rng.uniform(-9.0, 9.0, 20), [-2.0, np.nan]])
        v = np.concatenate([rng.uniform(-2.5, 2.5, 30), [-2.0, 2.0 - g.dv, 2.0]])
        cases = [
            (t[:, None], x[:, None], v[None, :]),
            (t[:, None, None], x[None, :, None], v[None, None, :]),
            (t, x, 0.3),
            (0.4, x[:, None], v[None, :]),
            (t[:, None], 0.7, v),
            (0.4, 0.7, -0.2),
        ]
        with np.errstate(invalid="ignore"):  # NaN cast to a cell index
            for pts in cases:
                got = f.sample(*pts)
                want = _broadcast_first_sample(f, *pts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_flat_points_bit_identical_to_broadcast_first(self):
        g = _grid()
        f = PhaseField(g, np.random.default_rng(4).normal(size=(g.nt, g.nx, g.nv)))
        rng = np.random.default_rng(5)
        t, x, v = rng.uniform(-0.2, 1.2, 5000), rng.uniform(-5.0, 5.0, 5000), rng.uniform(-2.5, 2.5, 5000)
        assert f.sample(t, x, v).tobytes() == _broadcast_first_sample(f, t, x, v).tobytes()


class TestFieldIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = _grid()
        vals = np.random.default_rng(1).normal(size=(g.nt, g.nx, g.nv))
        f = PhaseField(g, vals, PowerLawEnvelope(amplitude=0.3, exponent=2.5))
        path = str(tmp_path / "field.bin")
        save_field(f, path)
        f2 = load_field(path)
        assert np.array_equal(f2.values, f.values)
        assert f2.grid == f.grid
        assert f2.farfield == f.farfield

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_is_the_little_endian_c_order_values(self, tmp_path, order):
        g = _grid()
        vals = np.asarray(np.random.default_rng(6).normal(size=(g.nt, g.nx, g.nv)), order=order)
        path = str(tmp_path / "field.bin")
        save_field(PhaseField(g, vals), path)
        with open(path, "rb") as fh:
            assert fh.read() == vals.astype("<f8", order="C").tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        g = _grid()
        f = PhaseField(g, np.zeros((g.nt, g.nx, g.nv)))
        path = str(tmp_path / "field.bin")
        save_field(f, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_field(path)

    def test_header_states_one_dimension(self, tmp_path):
        path = str(tmp_path / "field.bin")
        save_field(PhaseField(_grid(), np.zeros((3, 16, 16))), path)
        with open(path + ".json") as fh:
            assert json.load(fh)["d"] == 1
