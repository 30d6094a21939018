"""Discrete jump operators: symbol accuracy, conservation, the cutoff and the far field."""

import numpy as np
import pytest
from scipy.integrate import quad

from kineticlab.fields import PhaseGrid, PowerLawEnvelope
from kineticlab.kernels import FractionalLaplacian, SymmetricPerturbation, normalized_fractional
from kineticlab.operators import _singular_moment, assemble_operator_matrix, nonlocal_profile

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
    def test_cutoff_plus_remainder_matches_full(self):
        # for f supported in |v| < 1 and rho beyond the support, the cutoff
        # operator at the origin differs from the full one by f(0) times the
        # kernel tail beyond rho (the exterior gain vanishes)
        k = FractionalLaplacian(c=1.0, s=S)
        g = _vgrid(256, 8.0)
        prof = np.exp(-8 * g.v_axis**2)
        rho = 3.0
        full = nonlocal_profile(k, prof, g)[g.nv // 2]
        cut = nonlocal_profile(k, prof, g, rho=rho)[g.nv // 2]
        # full = cut + [gain beyond rho (~0)] - f(0) * tail(rho)
        assert full - cut == pytest.approx(-prof[g.nv // 2] * k.tail_mass(0.0, rho), rel=2e-2)

    def test_cutoff_rejects_bad_radius(self):
        k = FractionalLaplacian(c=1.0, s=S)
        g = _vgrid(256, 8.0)
        with pytest.raises(ValueError):
            nonlocal_profile(k, np.exp(-g.v_axis**2), g, rho=-1.0)

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
