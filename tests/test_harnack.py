"""Harnack-type measurements: ratios, level sequences, chains."""

import math
import re

import numpy as np
import pytest

from kineticlab import harnack
from kineticlab.fields import PhaseField, PhaseGrid
from kineticlab.fundsol import j0_table
from kineticlab.geometry import KineticCylinder, PhasePoint
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
        assert rep["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            strong_harnack_ratio(_const_field(), Z0, 0.5, S)

    def test_vanishing_infimum_flagged(self):
        rep = strong_harnack_ratio(_const_field(0.0), Z0, 0.125, S)
        assert rep["ratio"] is None
        assert any("infimum" in n or "vanishing" in n for n in rep["notes"])

    def test_negative_part_clamped(self):
        f = AnalyticField(lambda t, x, v: np.where(np.asarray(t) > -0.01, -1.0, 1.0))
        rep = strong_harnack_ratio(f, Z0, 0.125, S)
        assert rep["inf"] == 0.0
        assert any("clamped" in n for n in rep["notes"])


class TestWeakRatio:
    def test_constant_field_gives_window_measure(self):
        # numerator is (|Q_{r0/2}|)^{1/zeta} for f = 1; denominator is 1
        r0 = 0.125
        zeta = 0.5
        rep = weak_harnack_ratio(_const_field(), Z0, r0, zeta=zeta, s=S)
        rho = r0 / 2
        measure = rho ** (2 * S) * (2 * rho ** (1 + 2 * S)) * (2 * rho)
        assert rep["ratio"] == pytest.approx(measure ** (1 / zeta), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            weak_harnack_ratio(_const_field(), Z0, 0.5, s=S)
        with pytest.raises(ValueError):
            weak_harnack_ratio(_const_field(), Z0, 0.1, zeta=-1.0, s=S)


def _read_cylinders(monkeypatch, measure):
    """The cylinders a measurement hands to its check-then-read helper."""
    seen = []
    read = harnack._read
    monkeypatch.setattr(harnack, "_read", lambda f, nodes, *cyls: seen.extend(cyls) or read(f, nodes, *cyls))
    measure()
    return seen


class TestPastCylinder:
    """The strong and weak ratios compare a detached past ``Q_rho`` with the
    current ``Q_rho``, ``rho = r0/4`` (strong) or ``r0/2`` (weak)."""

    MEASURES = {
        "strong": (4, lambda z, r0: strong_harnack_ratio(_const_field(), z, r0, S)),
        "weak": (2, lambda z, r0: weak_harnack_ratio(_const_field(), z, r0, s=S)),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_radii(self, monkeypatch, name):
        part, measure = self.MEASURES[name]
        z, r0 = PhasePoint(0.5, 0.3, -0.7), 0.16
        past, current = _read_cylinders(monkeypatch, lambda: measure(z, r0))
        assert past.r == r0 / part and past.x_radius == (r0 / part) ** (1 + 2 * S)
        assert current == KineticCylinder(z, r0 / part, S)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("r0", [0.01, 0.1, 0.16])
    def test_detached_from_the_current_cylinder(self, monkeypatch, name, r0):
        # the past window ends before the current one starts, and its centre
        # lies on the free flow through z0
        z = PhasePoint(0.5, 0.3, -0.7)
        past, current = _read_cylinders(monkeypatch, lambda: self.MEASURES[name][1](z, r0))
        assert past.time_window()[1] < current.time_window()[0]
        lag = z.t - past.center.t
        assert past.center.x == pytest.approx(z.x - lag * z.v, rel=1e-14) and past.center.v == z.v


class TestL1Linf:
    def test_constant_field_scale_invariance(self):
        # for f = 1 the ratio equals 1/|Q_1| and is independent of R
        ratios = [l1_linf_ratio(_const_field(), Z0, R, S)["ratio"] for R in (0.25, 0.5, 1.0)]
        assert max(ratios) - min(ratios) < 1e-10
        assert ratios[0] == pytest.approx(0.25, rel=1e-12)  # |Q_1| = 1 * 2 * 2 = 4

    def test_degenerate_zero_flagged(self):
        rep = l1_linf_ratio(_const_field(0.0), Z0, 0.5, S)
        assert rep["ratio"] is None

    def test_a_field_of_time_alone_is_read_at_every_node(self):
        # a callable that ignores x and v returns values on the time axis
        # of the node lattice only; the field reads them at every node
        alone = AnalyticField(lambda t, x, v: 1.0 + np.asarray(t) ** 2)
        full = AnalyticField(lambda t, x, v: 1.0 + np.broadcast_arrays(t, x, v)[0] ** 2)
        assert l1_linf_ratio(alone, Z0, 0.5, S) == l1_linf_ratio(full, Z0, 0.5, S)

    def test_unresolved_eighth_cylinder_is_rejected_before_any_read(self, solver_run, monkeypatch):
        # the field resolves Q_R but not Q_{R/8}
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        harnack._check_resolution(field, KineticCylinder(z, 0.5, S))
        calls = []
        monkeypatch.setattr(field, "sample", lambda t, x, v: calls.append(1))
        with pytest.raises(ValueError, match="does not resolve the cylinder"):
            l1_linf_ratio(field, z, 0.5, S)
        assert calls == []


def _tail_lhs_loop(f, k, z0, R, l, nodes):
    """Reference: the level-set tail of ``tail_bound_ratio`` node by node."""
    g, v0 = f.grid, z0.v
    T, X, V, w = KineticCylinder(z0, R / 2, S).nodes(nodes, nodes, nodes)
    T, X, V = (a.ravel() for a in np.broadcast_arrays(T, X, V))
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
            r1 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=6)["ratio"]
            r2 = tail_bound_ratio(field, frac_kernel, z, 0.5, l=level, s=S, nodes=12)["ratio"]
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
            rep = tail_bound_ratio(field, k, z, 0.5, l=level, s=S, nodes=6)
            assert rep["params"]["lhs"] == pytest.approx(_tail_lhs_loop(field, k, z, 0.5, level, 6), rel=1e-12)


class TestBroadcastReads:
    # a field on t in [0, 1] fine enough to resolve the strong cylinders of
    # r0 = 0.16 and the eighth cylinder of R = 0.4
    GRID = PhaseGrid(nt=101, nx=128, nv=64, x_period=0.1, v_extent=0.5)
    MEASURES = {
        "strong": lambda f, z: strong_harnack_ratio(f, z, 0.16, S, nodes=4),
        "l1linf": lambda f, z: l1_linf_ratio(f, z, 0.4, S, nodes=4),
        "degiorgi": lambda f, z: degiorgi_trace(f, z, 0.4, delta=0.5, p=1.14, s=S, nodes=4),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_a_gridded_field_reads_each_axis_once(self, monkeypatch, name):
        g = self.GRID
        field = PhaseField(g, np.random.default_rng(3).uniform(0.5, 1.0, (g.nt, g.nx, g.nv)))
        shapes = []
        sample = field.sample
        monkeypatch.setattr(field, "sample", lambda t, x, v: shapes.append((t.shape, x.shape, v.shape))
                            or sample(t, x, v))
        self.MEASURES[name](field, PhasePoint(1.0, 0.0, 0.0))
        assert shapes and set(shapes) == {((4, 1, 1), (4, 4, 1), (4,))}


class TestFieldDomain:
    """A saved field is read inside its saved times and velocity axis only:
    beyond them ``PhaseField.sample`` reads clamped edge values."""

    MEASURES = {
        "tail": lambda f, k, z: tail_bound_ratio(f, k, z, 0.5, s=S),
        "degiorgi": lambda f, k, z: degiorgi_trace(f, z, 0.5, delta=0.5, p=1.14, s=S),
        # the rule every measurement that checks the resolution reads first
        "resolution": lambda f, k, z: harnack._check_resolution(f, KineticCylinder(z, 0.5, S)),
    }

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("z, rule", [
        (PhasePoint(1.5, 0.0, 0.0), "violates the rule t0 <= t <= t1"),
        (PhasePoint(1e15, 0.0, 0.0), "violates the rule t0 <= t <= t1"),
        (PhasePoint(0.3, 0.0, 0.0), "violates the rule t0 <= t <= t1"),
        (PhasePoint(1.0, 0.0, 7.6), "violates the rule v_axis[0] <= v <= v_axis[-1]"),
        (PhasePoint(1.0, 0.0, -100.0), "violates the rule v_axis[0] <= v <= v_axis[-1]"),
    ])
    def test_cylinder_outside_the_saved_field_is_rejected(self, solver_run, frac_kernel, name, z, rule):
        # the field is saved on t in [0, 1] and v_axis in [-8, 7.6875]
        _, field = solver_run
        with pytest.raises(ValueError, match=re.escape(rule)):
            self.MEASURES[name](field, frac_kernel, z)

    def test_the_closed_domain_is_inside(self, solver_run, frac_kernel):
        # the window [0, 1] of R = 1 at t = 1 and a ball reaching v_axis[-1]
        _, field = solver_run
        tail_bound_ratio(field, frac_kernel, PhasePoint(1.0, 0.0, 0.0), 1.0, s=S)
        tail_bound_ratio(field, frac_kernel, PhasePoint(1.0, 0.0, 7.1875), 0.5, s=S)

    def test_one_slice_has_no_time_rule(self, solver_run, frac_kernel):
        _, field = solver_run
        g = field.grid
        one = PhaseField(PhaseGrid(nt=1, nx=g.nx, nv=g.nv, x_period=g.x_period, v_extent=g.v_extent),
                         field.values[-1:], field.farfield)
        tail_bound_ratio(one, frac_kernel, PhasePoint(1e15, 0.0, 0.0), 0.5, s=S)
        with pytest.raises(ValueError, match=re.escape("v_axis[0] <= v <= v_axis[-1]")):
            tail_bound_ratio(one, frac_kernel, PhasePoint(1e15, 0.0, 7.6), 0.5, s=S)


class TestDeGiorgi:
    @pytest.mark.parametrize("R", [0.5, 0.4])
    def test_reads_each_cylinder_once(self, solver_run, monkeypatch, R):
        _, field = solver_run
        z = PhasePoint(1.0, 0.0, 0.0)
        # R and r_0 .. r_6, of which r_0 == R
        reads = len({R, *(R / 8 + 2.0**-k * (7 * R / 8) for k in range(7))})
        assert reads == 7
        calls = []
        sample = field.sample
        monkeypatch.setattr(field, "sample", lambda t, x, v: calls.append(1) or sample(t, x, v))
        tr = degiorgi_trace(field, z, R, delta=0.5, p=1.14, s=S)
        assert len(calls) == reads
        # every A_k as its own read of its cylinder gives it
        for k, l_k, r_k, A_k in tr["sequence"]:
            T, X, V, w = KineticCylinder(z, r_k, S).nodes(8, 8, 8)
            assert A_k == float(np.clip(sample(T, X, V) - l_k, 0.0, None).sum() * w)

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
        ks, ls, rs, As = zip(*tr["sequence"])
        assert list(ks) == list(range(7))
        assert all(r1 >= r2 for r1, r2 in zip(rs, rs[1:]))  # radii shrink
        assert all(l1 <= l2 for l1, l2 in zip(ls, ls[1:]))  # levels rise
        assert tr["decay_ok"] and tr["chebyshev_ok"]


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

    def test_link_count_is_capped_before_the_path_is_built(self, monkeypatch):
        # the worked chain needs 36 links
        monkeypatch.setattr(harnack, "_MAX_LINKS", 35)
        with pytest.raises(ValueError, match=r"violates the rule N <= 35"):
            harnack_chain((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), S)
        monkeypatch.setattr(harnack, "_MAX_LINKS", 36)
        assert len(harnack_chain((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), S)["path"]) == 37

    def test_link_radius_at_small_s(self):
        # t^{1/(2s)} overflows a float at s = 1e-12 and t > 1; min(1, t) is raised instead
        assert harnack_chain((1.0, 0.0, 0.0), (2.0, 1.0, 1.0), 1e-12)["sigma"] == 1.0
        assert harnack_chain((0.25, 0.0, 0.0), (0.5, 1.0, 1.0), 0.3)["sigma"] == 0.5 ** (1.0 / 0.6)

    @pytest.mark.parametrize("s", [1e-12, 0.3, 0.5, 0.8])
    def test_first_term_divides_by_min_one_t(self, s):
        # sigma^{2s} is min(1, t); at s = 1e-12 and t < 1, sigma underflows to 0
        for tau0, t in ((0.25, 0.5), (1.0, 2.0)):
            assert harnack_chain((tau0, 0.0, 0.0), (t, 1.0, 1.0), s)["terms"][0] == (t - tau0) / (3.0 * min(1.0, t))


class TestLowerBound:
    def test_cone_mass_positive(self, tab256):
        rep = lower_bound_check(tab256)
        assert rep["M"] > 0.3  # a definite fraction of the unit mass sits in the cone
        assert rep["C1"] > 0
        assert rep["C2"] > 0
        assert rep["flagged"] is None

    @pytest.mark.parametrize("alpha", [30.0, 1e3, 1e12])
    def test_cone_outside_the_table_is_flagged_without_c2(self, alpha):
        # at n_freq 128 the table box is +-2.5; the cone's box at alpha 30 is
        # +-900 in x, so every midpoint node samples 0
        rep = lower_bound_check(j0_table(1.0, S, n_freq=128), alpha=alpha)
        assert rep["M"] == 0.0 and rep["C1"] == 0.0 and rep["C2"] is None
        assert rep["flagged"].startswith("cone mass nonpositive: every node of the cone's box")
        assert "lies outside the table's box (+-2.51327, +-2.51327)" in rep["flagged"]


class TestFundamentalField:
    def test_matches_table(self, tab256):
        f = fundamental_field(tab256, t_offset=1.0)
        got = float(f.sample(0.0, 0.0, 0.0))
        assert got == pytest.approx(tab256.peak(), rel=1e-6)

    def test_time_shift(self, tab256):
        f = fundamental_field(tab256, t_offset=1.0)
        want = float(tab256.sample(0.0, 0.0, t=1.5))
        assert float(f.sample(0.5, 0.0, 0.0)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("measure", [
        lambda f, z: strong_harnack_ratio(f, z, 0.1, S),
        lambda f, z: weak_harnack_ratio(f, z, 0.125, s=S),
        lambda f, z: l1_linf_ratio(f, z, 0.5, S),
        lambda f, z: degiorgi_trace(f, z, 0.5, delta=0.5, p=1.14, s=S),
    ], ids=["strong", "weak", "l1linf", "degiorgi"])
    def test_cylinder_before_the_source_is_rejected(self, tab256, measure):
        # the field vanishes where t + t_offset <= 0, so a ratio there has no value
        f = fundamental_field(tab256, t_offset=-5.0)
        with pytest.raises(ValueError, match=re.escape("violates the rule t + t_offset > 0")):
            measure(f, PhasePoint(1.0, 0.0, 0.0))
