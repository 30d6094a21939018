"""Harnack-type measurements: ratios, level sequences, chains."""

import math

import numpy as np
import pytest

from kineticlab.geometry import CylinderKind, PhasePoint, make_cylinder
from kineticlab.harnack import (
    AnalyticField,
    degiorgi_level_cap,
    degiorgi_trace,
    fundamental_field,
    harnack_chain,
    l1_linf_ratio,
    lower_bound_check,
    strong_harnack_ratio,
    tail_bound_ratio,
    weak_harnack_ratio,
)
from kineticlab.kernels import SymmetricPerturbation

S = 0.5
Z0 = PhasePoint(0.0, 0.0, 0.0)


def _const_field(value=1.0):
    return AnalyticField(lambda t, x, v: np.full(np.broadcast(t, x, v).shape, value))


class TestStrongRatio:
    def test_constant_field_ratio_one(self):
        rep = strong_harnack_ratio(_const_field(), Z0, 0.125, S)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            strong_harnack_ratio(_const_field(), Z0, 0.5, S)

    def test_vanishing_infimum_flagged(self):
        rep = strong_harnack_ratio(_const_field(0.0), Z0, 0.125, S)
        assert math.isinf(rep.ratio)
        assert any("infimum" in n or "vanishing" in n for n in rep.notes)

    def test_negative_part_clamped(self):
        f = AnalyticField(lambda t, x, v: np.where(np.asarray(t) > -0.01, -1.0, 1.0))
        rep = strong_harnack_ratio(f, Z0, 0.125, S)
        assert rep.inf == 0.0
        assert any("clamped" in n for n in rep.notes)


class TestWeakRatio:
    def test_constant_field_gives_window_measure(self):
        # numerator is (|window|)^{1/zeta} for f = 1; denominator is 1
        from kineticlab.geometry import CylinderKind, make_cylinder

        r0 = 0.125
        zeta = 0.5
        rep = weak_harnack_ratio(_const_field(), Z0, r0, zeta=zeta, s=S)
        win = make_cylinder(Z0, r0, S, CylinderKind.TILDE_PAST_HALF)
        lo, hi = win.time_window()
        measure = (hi - lo) * (2 * win.x_radius) * (2 * win.ball_radius)
        assert rep.ratio == pytest.approx(measure ** (1 / zeta), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            weak_harnack_ratio(_const_field(), Z0, 0.5, s=S)
        with pytest.raises(ValueError):
            weak_harnack_ratio(_const_field(), Z0, 0.1, zeta=-1.0, s=S)


class TestL1Linf:
    def test_constant_field_scale_invariance(self):
        # for f = 1 the ratio equals 1/|Q_1| and is independent of R
        ratios = [l1_linf_ratio(_const_field(), Z0, R, S).ratio for R in (0.25, 0.5, 1.0)]
        assert max(ratios) - min(ratios) < 1e-10
        assert ratios[0] == pytest.approx(0.25, rel=1e-12)  # |Q_1| = 1 * 2 * 2 = 4

    def test_degenerate_zero_flagged(self):
        rep = l1_linf_ratio(_const_field(0.0), Z0, 0.5, S)
        assert math.isnan(rep.ratio)


def _tail_lhs_loop(f, k, z0, R, l, nodes):
    """Reference: the level-set tail of ``tail_bound_ratio`` node by node."""
    g, v0 = f.grid, z0.v
    T, X, V, w = make_cylinder(z0, R / 2, S, CylinderKind.CURRENT).nodes(*nodes)
    v_far = g.v_axis[np.abs(g.v_axis - v0) > R]
    lo, hi = g.v_axis[0] - g.dv / 2, g.v_axis[-1] + g.dv / 2

    def env(ww):
        return np.clip(f.farfield.envelope(ww) - l, 0.0, None)

    lhs = 0.0
    for t, x, v in zip(T, X, V):
        if f.sample(t, x, v) <= l:
            continue
        fw = np.clip(f.sample(t, x, v_far) - l, 0.0, None)
        acc = np.sum(fw * k._eval(t, x, np.full(v_far.shape, v), v_far)) * g.dv
        acc += k.one_sided_tail(v, max(hi - v, R - (v - v0)), t, x, +1, env)
        acc += k.one_sided_tail(v, max(v - lo, R + (v - v0)), t, x, -1, env)
        lhs += acc * w
    return lhs


class TestTailBound:
    def test_requires_gridded_field(self):
        with pytest.raises(TypeError):
            tail_bound_ratio(_const_field(), None, Z0, 0.5)

    def test_stable_under_refinement(self, solver_run, frac_kernel):
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        for level in (0.0, float(np.median(field.values))):
            r1 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=(6, 6, 6)).ratio
            r2 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=(12, 12, 12)).ratio
            assert abs(r2 - r1) <= 0.3 * max(abs(r1), 1e-12)

    def test_validation(self, solver_run, frac_kernel):
        _, field = solver_run
        with pytest.raises(ValueError):
            tail_bound_ratio(field, frac_kernel, Z0, 0.5, l=-1.0)

    @pytest.mark.parametrize("kernel", ["fractional", "perturbed"])
    def test_matches_per_node_loop(self, solver_run, frac_kernel, kernel):
        # the blocked, vectorized tail equals one loop iteration per node,
        # with more upper-level-set nodes than one block
        _, field = solver_run
        k = frac_kernel if kernel == "fractional" else SymmetricPerturbation(
            base=frac_kernel, multiplier=lambda v, w: 1.0 + 0.5 * np.cos(v + w), a_min=0.5, a_max=1.5)
        z = PhasePoint(1.0, 0.0, 0.3)
        for level in (0.0, float(np.median(field.values))):
            rep = tail_bound_ratio(field, k, z, 0.5, l=level, s=S, nodes=(6, 6, 6))
            assert rep.params["lhs"] == pytest.approx(_tail_lhs_loop(field, k, z, 0.5, level, (6, 6, 6)), rel=1e-12)


class TestDeGiorgi:
    def test_exponent_window_enforced(self, solver_run):
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            degiorgi_trace(field, z, 0.5, delta=0.5, p=2.0, s=S)
        with pytest.raises(ValueError):
            degiorgi_trace(field, z, 0.5, delta=1.5, p=1.1, s=S)

    def test_overflowing_level_cap_rejected(self, solver_run):
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        assert math.isinf(degiorgi_level_cap(1.0, 0.5, 0.5, 1.05, 0.5, 1.0, S))
        with pytest.raises(ValueError, match=r"p = 1.05 overflows the level cap"):
            degiorgi_trace(field, z, 0.5, delta=0.5, p=1.05, s=S)

    def test_sequence_properties(self, solver_run):
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        tr = degiorgi_trace(field, z, 0.5, delta=0.5, p=1.14, s=S)
        ks, ls, rs, As = zip(*tr.sequence)
        assert list(ks) == list(range(7))
        assert all(r1 >= r2 for r1, r2 in zip(rs, rs[1:]))  # radii shrink
        assert all(l1 <= l2 for l1, l2 in zip(ls, ls[1:]))  # levels rise
        assert tr.decay_ok and tr.chebyshev_ok


class TestChain:
    def test_worked_link_count(self):
        # unit displacements from (1, 0, 0) to (2, 1, 1) at s = 1/2:
        # terms (1/3, 1/3, 36, 6) so N = 36
        rep = harnack_chain((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), S)
        assert rep["N"] == 36
        assert rep["terms"][0] == pytest.approx(1.0 / 3.0)
        assert rep["terms"][1] == pytest.approx(1.0 / 3.0)
        assert rep["terms"][2] == pytest.approx(36.0)
        assert rep["terms"][3] == pytest.approx(6.0)

    def test_path_endpoints(self):
        rep = harnack_chain((1.0, 0.5, -0.25), (2.0, 1.0, 1.0), S)
        t0, x0, v0 = rep["path"][0]
        t1, x1, v1 = rep["path"][-1]
        assert (t0, v0) == (1.0, -0.25)
        assert x0 == pytest.approx(0.5 + rep["start_offset_x"])
        assert (t1, x1, v1) == (2.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            harnack_chain((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), S)
        with pytest.raises(ValueError):
            harnack_chain((1.0, 0.0, 0.0), (0.5, 0.0, 0.0), S)


class TestLowerBound:
    def test_cone_mass_positive(self, tab256):
        rep = lower_bound_check(tab256)
        assert rep["M"] > 0.3  # a definite fraction of the unit mass sits in the cone
        assert rep["C1"] > 0
        assert rep["C2"] > 0
        assert rep["flagged"] is None


class TestFundamentalField:
    def test_matches_table(self, tab256):
        f = fundamental_field(tab256, t_offset=1.0)
        got = float(f.sample(0.0, 0.0, 0.0))
        assert got == pytest.approx(tab256.peak(), rel=1e-6)

    def test_time_shift(self, tab256):
        f = fundamental_field(tab256, t_offset=1.0)
        want = float(tab256.sample(0.0, 0.0, t=1.5))
        assert float(f.sample(0.5, 0.0, 0.0)) == pytest.approx(want, rel=1e-9)
