"""Discrete jump operators: symbol accuracy, conservation, tails."""

import numpy as np
import pytest
from scipy.integrate import quad

from kineticlab.fields import PhaseField, PhaseGrid, PowerLawEnvelope, ZeroExtension
from kineticlab.geometry import PhasePoint
from kineticlab.kernels import FractionalLaplacian, SymmetricPerturbation, normalized_fractional
from kineticlab.operators import (
    _singular_moment,
    assemble_operator_matrix,
    nonlocal_apply,
    nonlocal_profile,
    tail_functional,
    transport_apply,
)

S = 0.5


def _vgrid(nv, v_extent):
    return PhaseGrid(nt=1, nx=2, nv=nv, x_period=1.0, v_extent=v_extent)


class TestSymbol:
    @pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0])
    def test_cosine_eigenfunction(self, kappa):
        # L cos(kappa v) = -|kappa|^{2s} cos(kappa v) for the normalized kernel
        k = normalized_fractional(S)
        grid = _vgrid(2048, 16 * np.pi)
        prof = np.cos(kappa * grid.v_axis)
        out = nonlocal_profile(k, prof, grid)
        want = -abs(kappa) ** (2 * S) * prof
        # compare away from the box edge, where the vanishing-extension
        # closure truncates the oscillatory gain tail
        inner = np.abs(grid.v_axis) <= 8 * np.pi
        err = np.max(np.abs(out - want)[inner]) / np.max(np.abs(want))
        assert err < 1e-3

    def test_annihilates_constants_on_torus(self):
        k = normalized_fractional(S)
        grid = _vgrid(128, 6.0)
        op = assemble_operator_matrix(k, grid, torus=True)
        ones = np.ones(grid.nv)
        # rows sum to -leak (the restored loss rate of beyond-box jumps)
        assert np.max(np.abs(op.matrix @ ones + op.leak)) < 1e-10

    def test_matrix_symmetric_for_symmetric_kernel(self):
        k = normalized_fractional(S)
        grid = _vgrid(64, 4.0)
        op = assemble_operator_matrix(k, grid, torus=True)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off - off.T)) == 0.0


class TestGenericKernelPath:
    """A perturbation with ``a == 1`` must reproduce its base kernel: the
    generic quadrature paths against the fractional closed forms."""

    def _pair(self):
        base = normalized_fractional(S)
        return base, SymmetricPerturbation(base=base, multiplier=lambda v, w: np.ones_like(v + w))

    def test_singular_moment(self):
        base, unit = self._pair()
        v_axis = _vgrid(64, 4.0).v_axis
        h = 0.5 * (v_axis[1] - v_axis[0])
        want = _singular_moment(base, v_axis, h, 0.0, 0.0)
        got = _singular_moment(unit, v_axis, h, 0.0, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_assembled_operator(self):
        base, unit = self._pair()
        grid = _vgrid(64, 4.0)
        cut = {"rho": 2.0}  # no far field: every entry is kernel or moment
        np.testing.assert_allclose(
            assemble_operator_matrix(unit, grid, **cut).matrix,
            assemble_operator_matrix(base, grid, **cut).matrix,
            rtol=1e-12, atol=1e-12,
        )
        # the far-field leak of the generic path is a quadrature of the closed form
        full_unit = assemble_operator_matrix(unit, grid)
        full_base = assemble_operator_matrix(base, grid)
        np.testing.assert_allclose(full_unit.leak, full_base.leak, rtol=1e-4)
        np.testing.assert_allclose(full_unit.matrix, full_base.matrix, rtol=1e-4, atol=1e-12)


class TestCutoffAndTail:
    def _field(self, fn, nv=256, v_extent=8.0, farfield=None):
        g = PhaseGrid(nt=1, nx=4, nv=nv, x_period=2.0, v_extent=v_extent)
        vals = np.broadcast_to(fn(g.v_axis), (1, g.nx, g.nv)).copy()
        return PhaseField(g, vals, farfield), g

    def test_cutoff_plus_remainder_matches_full(self):
        # for f supported in |v| < 1 and rho beyond the support, the cutoff
        # operator at the origin differs from the full one by f(0) times the
        # kernel tail beyond rho (the exterior gain vanishes)
        k = FractionalLaplacian(c=1.0, s=S)
        f, g = self._field(lambda v: np.exp(-8 * v**2))
        z = PhasePoint(g.t0, 0.0, 0.0)
        rho = 3.0
        full = nonlocal_apply(k, f, z)
        cut = nonlocal_apply(k, f, z, rho=rho)
        f0 = float(f.values[0, 0, g.nv // 2])
        # full = cut + [gain beyond rho (~0)] - f(0) * tail(rho)
        assert full - cut == pytest.approx(-f0 * k.tail_mass(0.0, rho), rel=2e-2)

    def test_cutoff_rejects_bad_radius(self):
        k = FractionalLaplacian(c=1.0, s=S)
        f, g = self._field(lambda v: np.exp(-(v**2)))
        with pytest.raises(ValueError):
            nonlocal_apply(k, f, PhasePoint(g.t0, 0.0, 0.0), rho=-1.0)

    def test_cutoff_remainder_beyond_box(self):
        # rho reaches past the box edge: the closure between the edge and
        # rho enters as the tail from the edge minus the tail from rho
        k = FractionalLaplacian(c=1.0, s=S)
        env = PowerLawEnvelope(amplitude=0.05, exponent=2.0)
        f, g = self._field(lambda v: np.exp(-(v**2)), nv=64, v_extent=4.0, farfield=env)
        iv = 40
        z = PhasePoint(g.t0, 0.0, g.v_axis[iv])
        rho = 6.0
        got = nonlocal_apply(k, f, z, rho=rho) - nonlocal_profile(k, f.values[0, 0], g, closure=env, rho=rho)[iv]
        v, f0 = g.v_axis[iv], f.values[0, 0, iv]
        want = 0.0
        for side, dist in ((+1, g.v_axis[-1] + g.dv / 2 - v), (-1, v - g.v_axis[0] + g.dv / 2)):
            want += quad(lambda u: (env.envelope(v + side * u) - f0) * u ** (-1 - 2 * S), dist, rho)[0]
        assert got == pytest.approx(want, rel=1e-4)

    def test_exterior_gain_against_quad(self):
        # the closure's gain per node: int of K times the envelope beyond each box edge
        k = FractionalLaplacian(c=1.0, s=S)
        env = PowerLawEnvelope(amplitude=0.05, exponent=2.0)
        grid = _vgrid(32, 4.0)
        op = assemble_operator_matrix(k, grid, closure=env)
        lo, hi = grid.v_axis[0] - grid.dv / 2, grid.v_axis[-1] + grid.dv / 2
        for i in (0, 9, 16, 31):
            v = grid.v_axis[i]
            want = sum(
                quad(lambda u: env.envelope(v + side * u) * u ** (-1 - 2 * S), dist, np.inf)[0]
                for side, dist in ((+1, hi - v), (-1, v - lo))
            )
            assert op.gain[i] == pytest.approx(want, rel=1e-4)

    def test_tail_functional_constant_field(self):
        # f = 1 inside the box with matching far field: the tail integral
        # equals the kernel tail mass beyond the larger of R and the box cut
        k = FractionalLaplacian(c=1.0, s=S)
        f, g = self._field(lambda v: np.ones_like(v), farfield=PowerLawEnvelope(amplitude=1.0, exponent=1e-9))
        # power-law with ~zero exponent stands in for a constant far field
        got = tail_functional(k, f, r=0.5, R=2.0, v0=0.0, v=0.0)
        assert got == pytest.approx(k.tail_mass(0.0, 2.0), rel=5e-2)

    def test_tail_functional_validates_geometry(self):
        k = FractionalLaplacian(c=1.0, s=S)
        f, g = self._field(lambda v: np.ones_like(v))
        with pytest.raises(ValueError):
            tail_functional(k, f, r=2.0, R=1.0, v0=0.0, v=0.0)
        with pytest.raises(ValueError):
            tail_functional(k, f, r=0.5, R=1.0, v0=0.0, v=0.9)


class TestTransport:
    def test_free_streaming_derivative(self):
        # f(t, x, v) = x - t v satisfies (d/dt + v d/dx) f = -v + v = 0
        g = PhaseGrid(nt=5, nx=32, nv=8, x_period=8.0, v_extent=1.0, t0=0.0, t1=0.4)
        T, X, V = np.meshgrid(g.t_axis, g.x_axis, g.v_axis, indexing="ij")
        # keep the x-profile periodic: use sin(2 pi (x - t v) / period)
        vals = np.sin(2 * np.pi * (X - T * V) / g.x_period)
        f = PhaseField(g, vals)
        z = PhasePoint(g.t_axis[2], g.x_axis[5], g.v_axis[3])
        val, flag = transport_apply(f, z, with_flag=True)
        assert flag == "central"
        assert abs(val) < 5e-2

    def test_one_sided_flag_at_boundary(self):
        g = PhaseGrid(nt=3, nx=8, nv=8, x_period=2.0, v_extent=1.0)
        f = PhaseField(g, np.zeros((3, 8, 8)))
        _, flag = transport_apply(f, PhasePoint(g.t0, 0.0, 0.0), with_flag=True)
        assert flag == "one_sided"

    def test_single_slice_rejected(self):
        g = PhaseGrid(nt=1, nx=8, nv=8, x_period=2.0, v_extent=1.0)
        f = PhaseField(g, np.zeros((1, 8, 8)))
        with pytest.raises(ValueError):
            transport_apply(f, PhasePoint(g.t0, 0.0, 0.0))


class TestValidation:
    def test_order_bound(self):
        k = FractionalLaplacian(c=1.0, s=1.0)
        g = PhaseGrid(nt=1, nx=4, nv=16, x_period=1.0, v_extent=1.0)
        f = PhaseField(g, np.zeros((1, 4, 16)))
        with pytest.raises(ValueError):
            nonlocal_apply(k, f, PhasePoint(0.0, 0.0, 0.0))

    def test_point_outside_grid(self):
        k = FractionalLaplacian(c=1.0, s=S)
        g = PhaseGrid(nt=1, nx=4, nv=16, x_period=1.0, v_extent=1.0)
        f = PhaseField(g, np.zeros((1, 4, 16)))
        with pytest.raises(ValueError):
            nonlocal_apply(k, f, PhasePoint(0.0, 0.0, 5.0))
