"""Gridded fields: grids, interpolation, closures, and I/O."""

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


class TestClosures:
    def test_zero_extension(self):
        assert np.all(ZeroExtension().envelope([1.0, 5.0]) == 0.0)

    def test_power_law(self):
        env = PowerLawEnvelope(amplitude=2.0, exponent=2.0)
        assert env.envelope(4.0) == pytest.approx(2.0 / 16.0)
        with pytest.raises(ValueError):
            PowerLawEnvelope(amplitude=1.0, exponent=-1.0)


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

    def test_truncated_payload_rejected(self, tmp_path):
        g = _grid()
        f = PhaseField(g, np.zeros((g.nt, g.nx, g.nv)))
        path = str(tmp_path / "field.bin")
        save_field(f, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_field(path)
