"""Phase points and cylinder geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlab.geometry import CylinderKind, KineticCylinder, PhasePoint, make_cylinder

radii = st.floats(0.05, 2.0)
orders = st.floats(0.05, 0.95)


def _pt(t, x, v):
    return PhasePoint(t, x, v)


def _measure(c):
    """Lebesgue measure: time length times the two interval lengths."""
    lo, hi = c.time_window()
    return (hi - lo) * (2 * c.x_radius) * (2 * c.ball_radius)


class TestPhasePoint:
    def test_components_are_floats(self):
        z = PhasePoint(1, np.float64(2.0), np.array(3.0))
        assert (z.t, z.x, z.v) == (1.0, 2.0, 3.0)
        assert all(type(c) is float for c in (z.t, z.x, z.v))

    @pytest.mark.parametrize("t, x, v", [
        (0.0, [1.0, 2.0], [3.0, 4.0]), (0.0, 0.0, np.array([1.0])), (np.zeros(2), 0.0, 0.0),
    ])
    def test_rejects_vector_component(self, t, x, v):
        with pytest.raises(ValueError, match="one-dimensional"):
            PhasePoint(t, x, v)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(math.nan, 0.0, 0.0)


class TestCylinders:
    def test_measure_closed_form(self):
        # time length r^{2s}, x interval 2 r^{1+2s}, v interval 2 r
        c = make_cylinder(_pt(0.0, 0.0, 0.0), 0.5, 0.5, CylinderKind.CURRENT)
        r = 0.5
        assert _measure(c) == pytest.approx(r * (2 * r**2) * (2 * r), rel=1e-14)

    @given(radii, orders, st.floats(0.1, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_measure_scales_kinetically(self, r0, s, lam):
        z = _pt(0.0, 0.0, 0.0)
        big = make_cylinder(z, r0, s, CylinderKind.CURRENT)
        small = make_cylinder(z, lam * r0, s, CylinderKind.CURRENT)
        # measure ~ r^{2s} * r^{1+2s} * r  =>  ratio lam^{2 + 4s}
        assert _measure(small) / _measure(big) == pytest.approx(lam ** (2 + 4 * s), rel=1e-9)

    def test_current_window_is_past_of_center(self):
        c = make_cylinder(_pt(1.0, 0.0, 0.0), 0.5, 0.5, CylinderKind.CURRENT)
        lo, hi = c.time_window()
        assert hi == 1.0 and lo == pytest.approx(1.0 - 0.5)

    def test_nodes_follow_free_flow(self):
        # the position interval at time t is centred on x0 + (t - t0) v0
        v0 = 2.0
        c = make_cylinder(_pt(0.0, 0.0, v0), 0.1, 0.5, CylinderKind.CURRENT)
        T, X, _, _ = c.nodes(3, 4, 5)
        for t in np.unique(T):
            at = T == t
            assert X[at].mean() == pytest.approx(t * v0, abs=1e-15)
            assert np.abs(X[at] - t * v0).max() < c.x_radius

    def test_detached_windows_do_not_overlap_current(self):
        r0, s = 0.1, 0.5
        z = _pt(0.0, 0.0, 0.0)
        cur = make_cylinder(z, r0 / 4, s, CylinderKind.CURRENT)
        past = make_cylinder(z, r0, s, CylinderKind.TILDE_PAST_QUARTER)
        lo_c, _ = cur.time_window()
        _, hi_p = past.time_window()
        assert hi_p < lo_c

    def test_tilde_quarter_radii(self):
        c = make_cylinder(_pt(0.0, 0.0, 0.0), 0.2, 0.5, CylinderKind.TILDE_PAST_QUARTER)
        assert c.ball_radius == pytest.approx(0.05)
        assert c.x_radius == pytest.approx(0.05**2)

    def test_nodes_weight_matches_measure(self):
        c = make_cylinder(_pt(0.5, 0.3, -0.2), 0.4, 0.5, CylinderKind.CURRENT)
        T, X, V, w = c.nodes(5, 6, 7)
        assert T.size == 5 * 6 * 7
        assert T.size * w == pytest.approx(_measure(c), rel=1e-12)

    def test_nodes_lie_inside(self):
        c = make_cylinder(_pt(0.5, 0.3, -0.7), 0.4, 0.5, CylinderKind.CURRENT)
        T, X, V, _ = c.nodes(4, 4, 4)
        lo, hi = c.time_window()
        z = c.center
        assert np.all((lo < T) & (T <= hi))
        assert np.all(np.abs(X - z.x - (T - z.t) * z.v) < c.x_radius)
        assert np.all(np.abs(V - z.v) < c.ball_radius)

    def test_rejects_invalid_inputs(self):
        z = _pt(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_cylinder(z, -1.0, 0.5, CylinderKind.CURRENT)
        with pytest.raises(ValueError):
            make_cylinder(z, 1.0, 1.5, CylinderKind.CURRENT)
        with pytest.raises(ValueError):
            KineticCylinder(z, 1.0, 0.5, "current")

    @pytest.mark.parametrize("kind", list(CylinderKind))
    @pytest.mark.parametrize("center, rule", [
        ((1e300, 0.0, 0.0), "lo < hi for the time window"),
        ((0.6, 1e17, 0.0), "x + r^{1+2s} != x for the position radius"),
        ((0.6, 0.0, 1e17), "v + r != v for the velocity radius"),
    ])
    def test_rejects_a_cylinder_that_rounds_away_at_its_centre(self, kind, center, rule):
        with pytest.raises(ValueError, match=re.escape(rule)):
            make_cylinder(_pt(*center), 0.3, 0.5, kind)

    @pytest.mark.parametrize("kind", list(CylinderKind))
    def test_keeps_a_large_centre_whose_extents_survive(self, kind):
        c = make_cylinder(_pt(1e12, 1e12, 1e12), 0.3, 0.5, kind)
        lo, hi = c.time_window()
        assert lo < hi and c.center.x + c.x_radius > c.center.x and c.center.v + c.ball_radius > c.center.v
