"""Phase points and cylinder geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlab.geometry import KineticCylinder, PhasePoint
from kineticlab.harnack import AnalyticField, _past_cylinder, strong_harnack_ratio, weak_harnack_ratio

radii = st.floats(0.05, 2.0)
orders = st.floats(0.05, 0.95)


def _pt(t, x, v):
    return PhasePoint(t, x, v)


def _measure(c):
    """Lebesgue measure: time length times the two interval lengths."""
    lo, hi = c.time_window()
    return (hi - lo) * (2 * c.x_radius) * (2 * c.r)


def _lattice(T, X, V):
    """The broadcast node lattice, raveled in C order."""
    return [a.ravel() for a in np.broadcast_arrays(T, X, V)]


def _meshgrid_nodes(z0, window, rho, s, nt, nx, nv):
    """Reference: the flat ``meshgrid`` nodes of a window, a velocity radius
    ``rho`` and the position radius ``rho^{1+2s}``, slanted along the free
    flow through ``z0``."""
    lo, hi = window
    tau = lo + (np.arange(nt) + 0.5) / nt * (hi - lo)
    xi = -1.0 + (np.arange(nx) + 0.5) / nx * 2.0
    eta = -1.0 + (np.arange(nv) + 0.5) / nv * 2.0
    T, XI, ETA = np.meshgrid(tau, xi, eta, indexing="ij")
    x_radius = rho ** (1 + 2 * s)
    X = z0.x + (T - z0.t) * z0.v + XI * x_radius
    V = z0.v + ETA * rho
    return T.ravel(), X.ravel(), V.ravel()


def _tilde_reference(z0, r0, s, kind):
    """Reference: the window and velocity radius of the detached past
    cylinders as the ``quarter`` (strong) and ``half`` (weak) window
    formulas give them; their nodes are slanted along the free flow
    through ``z0`` itself."""
    if kind == "quarter":
        # t2 = (5/2) r0^{2s} - (1/2) (r0/2)^{2s},   t3 = t2 + (r0/4)^{2s}
        t2 = 2.5 * r0 ** (2 * s) - 0.5 * (r0 / 2) ** (2 * s)
        t3 = t2 + (r0 / 4) ** (2 * s)
        return (z0.t - t3, z0.t - t2), r0 / 4
    half = r0 / 2
    tc = z0.t - 2.5 * r0 ** (2 * s) + 0.5 * half ** (2 * s)
    return (tc - half ** (2 * s), tc), half


def _const_field():
    return AnalyticField(lambda t, x, v: np.ones(np.broadcast(t, x, v).shape))


# the current cylinder Q_r(z) and the measurements built on the two
# detached past cylinders, at a base radius each accepts
CYLINDERS = {
    "current": lambda z: KineticCylinder(z, 0.3, 0.5),
    "strong": lambda z: strong_harnack_ratio(_const_field(), z, 0.125, 0.5),
    "weak": lambda z: weak_harnack_ratio(_const_field(), z, 0.3, s=0.5),
}


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
        c = KineticCylinder(_pt(0.0, 0.0, 0.0), 0.5, 0.5)
        r = 0.5
        assert _measure(c) == pytest.approx(r * (2 * r**2) * (2 * r), rel=1e-14)

    @given(radii, orders, st.floats(0.1, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_measure_scales_kinetically(self, r0, s, lam):
        z = _pt(0.0, 0.0, 0.0)
        big = KineticCylinder(z, r0, s)
        small = KineticCylinder(z, lam * r0, s)
        # measure ~ r^{2s} * r^{1+2s} * r  =>  ratio lam^{2 + 4s}
        assert _measure(small) / _measure(big) == pytest.approx(lam ** (2 + 4 * s), rel=1e-9)

    def test_current_window_is_past_of_center(self):
        c = KineticCylinder(_pt(1.0, 0.0, 0.0), 0.5, 0.5)
        lo, hi = c.time_window()
        assert hi == 1.0 and lo == pytest.approx(1.0 - 0.5)

    def test_nodes_are_a_broadcast_lattice(self):
        T, X, V, _ = KineticCylinder(_pt(0.5, 0.3, -0.7), 0.4, 0.5).nodes(3, 4, 5)
        assert (T.shape, X.shape, V.shape) == ((3, 1, 1), (3, 4, 1), (5,))

    def test_nodes_follow_free_flow(self):
        # the position interval at time t is centred on x0 + (t - t0) v0
        v0 = 2.0
        c = KineticCylinder(_pt(0.0, 0.0, v0), 0.1, 0.5)
        T, X, _, _ = c.nodes(3, 4, 5)
        for t, x in zip(T.ravel(), X):
            assert x.mean() == pytest.approx(t * v0, abs=1e-15)
            assert np.abs(x - t * v0).max() < c.x_radius

    def test_nodes_weight_matches_measure(self):
        c = KineticCylinder(_pt(0.5, 0.3, -0.2), 0.4, 0.5)
        T, X, V, w = c.nodes(5, 6, 7)
        assert np.broadcast(T, X, V).size == 5 * 6 * 7
        assert np.broadcast(T, X, V).size * w == pytest.approx(_measure(c), rel=1e-12)

    def test_nodes_lie_inside(self):
        c = KineticCylinder(_pt(0.5, 0.3, -0.7), 0.4, 0.5)
        T, X, V, _ = c.nodes(4, 4, 4)
        lo, hi = c.time_window()
        z = c.center
        assert np.all((lo < T) & (T <= hi))
        assert np.all(np.abs(X - z.x - (T - z.t) * z.v) < c.x_radius)
        assert np.all(np.abs(V - z.v) < c.r)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), radii, orders)
    @settings(max_examples=50, deadline=None)
    def test_nodes_match_the_meshgrid_reference_bit_for_bit(self, t0, x0, v0, r, s):
        z = _pt(t0, x0, v0)
        c = KineticCylinder(z, r, s)
        ref = _meshgrid_nodes(z, (t0 - r ** (2 * s), t0), r, s, 3, 4, 5)
        for got, want in zip(_lattice(*c.nodes(3, 4, 5)[:3]), ref):
            assert np.array_equal(got, want)

    def test_rejects_invalid_inputs(self):
        z = _pt(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            KineticCylinder(z, -1.0, 0.5)
        with pytest.raises(ValueError):
            KineticCylinder(z, 1.0, 1.5)
        with pytest.raises(ValueError):
            KineticCylinder(z, 0.0, 0.5)

    @pytest.mark.parametrize("cylinder", sorted(CYLINDERS))
    @pytest.mark.parametrize("center, rule", [
        ((1e300, 0.0, 0.0), "lo < hi for the time window"),
        ((0.6, 1e17, 0.0), "x + r^{1+2s} != x for the position radius"),
        ((0.6, 0.0, 1e17), "v + r != v for the velocity radius"),
    ])
    def test_rejects_a_cylinder_that_rounds_away_at_its_centre(self, cylinder, center, rule):
        with pytest.raises(ValueError, match=re.escape(rule)):
            CYLINDERS[cylinder](_pt(*center))

    @pytest.mark.parametrize("cylinder", sorted(CYLINDERS))
    def test_keeps_a_large_centre_whose_extents_survive(self, cylinder):
        c = CYLINDERS[cylinder](_pt(1e12, 1e12, 1e12))
        if cylinder == "current":
            lo, hi = c.time_window()
            assert lo < hi and c.center.x + c.x_radius > c.center.x and c.center.v + c.r > c.center.v
        else:
            assert c["inf"] == 1.0 and c["ratio"] > 0


class TestPastCylinderReference:
    """The detached past cylinders of the Harnack ratios are ``Q_rho`` at a
    centre transported back along the free flow through ``z0``."""

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(0.01, 0.33), orders,
           st.sampled_from(["quarter", "half"]))
    @settings(max_examples=100, deadline=None)
    def test_match_the_window_formulas(self, t0, x0, v0, r0, s, kind):
        # the windows and nodes agree up to the rounding of their operands:
        # times of size |t0| + (5/2) r0^{2s}, positions |x0| + |v0| times that
        z = _pt(t0, x0, v0)
        c = _past_cylinder(z, r0, r0 / (4 if kind == "quarter" else 2), s)
        window, rho = _tilde_reference(z, r0, s, kind)
        assert c.r == rho
        t_scale = abs(t0) + 2.5 * r0 ** (2 * s)
        assert np.abs(np.subtract(c.time_window(), window)).max() <= 1e-15 * t_scale
        T, X, V = _lattice(*c.nodes(3, 4, 5)[:3])
        T_ref, X_ref, V_ref = _meshgrid_nodes(z, window, rho, s, 3, 4, 5)
        assert np.abs(T - T_ref).max() <= 1e-15 * t_scale
        assert np.abs(X - X_ref).max() <= 1e-15 * (abs(x0) + abs(v0) * t_scale)
        assert np.array_equal(V, V_ref)
