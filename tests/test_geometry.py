"""Phase points and cylinder geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlab.geometry import CylinderKind, KineticCylinder, PhasePoint, make_cylinder

radii = st.floats(0.05, 2.0)
orders = st.floats(0.05, 0.95)


def _pt(t, x, v):
    return PhasePoint(t, x, v)


class TestPhasePoint:
    def test_dimension_and_types(self):
        z = PhasePoint(1.0, [1.0, 2.0], [3.0, 4.0])
        assert z.d == 2
        assert z.t == 1.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PhasePoint(0.0, [1.0, 2.0], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(math.nan, 0.0, 0.0)


class TestCylinders:
    def test_measure_closed_form(self):
        # time length r^{2s}, x interval 2 r^{1+2s}, v interval 2 r
        c = make_cylinder(_pt(0.0, 0.0, 0.0), 0.5, 0.5, CylinderKind.CURRENT)
        r = 0.5
        assert c.measure() == pytest.approx(r * (2 * r**2) * (2 * r), rel=1e-14)

    @given(radii, orders, st.floats(0.1, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_measure_scales_kinetically(self, r0, s, lam):
        z = _pt(0.0, 0.0, 0.0)
        big = make_cylinder(z, r0, s, CylinderKind.CURRENT)
        small = make_cylinder(z, lam * r0, s, CylinderKind.CURRENT)
        # measure ~ r^{2s} * r^{1+2s} * r  =>  ratio lam^{2 + 4s}
        assert small.measure() / big.measure() == pytest.approx(lam ** (2 + 4 * s), rel=1e-9)

    def test_current_window_is_past_of_center(self):
        c = make_cylinder(_pt(1.0, 0.0, 0.0), 0.5, 0.5, CylinderKind.CURRENT)
        lo, hi, closed = c.time_window()
        assert hi == 1.0 and lo == pytest.approx(1.0 - 0.5)
        assert not closed

    def test_slanting_follows_free_flow(self):
        # center with nonzero velocity: membership in x is tested along x0 + (t - t0) v0
        v0 = 2.0
        c = make_cylinder(_pt(0.0, 0.0, v0), 0.1, 0.5, CylinderKind.CURRENT)
        dt = -0.005
        on_flow = _pt(dt, dt * v0, v0)
        off_flow = _pt(dt, dt * v0 + 0.5, v0)
        assert c.contains(on_flow)
        assert not c.contains(off_flow)

    def test_strict_ball_half_open_time(self):
        c = make_cylinder(_pt(0.0, 0.0, 0.0), 0.5, 0.5, CylinderKind.CURRENT)
        assert not c.contains(_pt(0.0, c.x_radius, 0.0))  # boundary excluded
        assert not c.contains(_pt(0.0, 0.0, c.ball_radius))
        lo, _, _ = c.time_window()
        assert not c.contains(_pt(lo, 0.0, 0.0))  # past end open
        assert c.contains(_pt(0.0, 0.0, 0.0))  # future end closed

    def test_detached_windows_do_not_overlap_current(self):
        r0, s = 0.1, 0.5
        z = _pt(0.0, 0.0, 0.0)
        cur = make_cylinder(z, r0 / 4, s, CylinderKind.CURRENT)
        past = make_cylinder(z, r0, s, CylinderKind.TILDE_PAST_QUARTER)
        lo_c, _, _ = cur.time_window()
        _, hi_p, _ = past.time_window()
        assert hi_p < lo_c

    def test_tilde_quarter_radii(self):
        c = make_cylinder(_pt(0.0, 0.0, 0.0), 0.2, 0.5, CylinderKind.TILDE_PAST_QUARTER)
        assert c.ball_radius == pytest.approx(0.05)
        assert c.x_radius == pytest.approx(0.05**2)

    def test_nodes_weight_matches_measure(self):
        c = make_cylinder(_pt(0.5, 0.3, -0.2), 0.4, 0.5, CylinderKind.CURRENT)
        T, X, V, w = c.nodes(5, 6, 7)
        assert T.size == 5 * 6 * 7
        assert T.size * w == pytest.approx(c.measure(), rel=1e-12)

    def test_nodes_lie_inside(self):
        c = make_cylinder(_pt(0.5, 0.3, -0.7), 0.4, 0.5, CylinderKind.CURRENT)
        T, X, V, _ = c.nodes(4, 4, 4)
        for t, x, v in zip(T, X, V):
            assert c.contains(_pt(t, x, v))

    def test_rejects_invalid_inputs(self):
        z = _pt(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_cylinder(z, -1.0, 0.5, CylinderKind.CURRENT)
        with pytest.raises(ValueError):
            make_cylinder(z, 1.0, 1.5, CylinderKind.CURRENT)
        with pytest.raises(ValueError):
            KineticCylinder(z, 1.0, 0.5, "current")
