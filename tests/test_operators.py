"""Discrete jump operators: symbol accuracy, conservation and the far field."""

import numpy as np
import pytest
from scipy.integrate import quad

from kineticlab.fields import PhaseGrid
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
        # compare away from the box edge, where zero extension truncates
        # the oscillatory tail of the profile
        inner = np.abs(grid.v_axis) <= 8 * np.pi
        err = np.max(np.abs(out - want)[inner]) / np.max(np.abs(want))
        assert err < 1e-3

    def test_annihilates_constants_on_torus(self):
        k = normalized_fractional(S)
        grid = _vgrid(128, 6.0)
        A = assemble_operator_matrix(k, grid, torus=True)
        # rows sum to minus the restored loss rate of jumps longer than half the period
        leak = k.tail_mass(grid.v_axis, grid.v_extent, grid.v_extent)
        assert np.max(np.abs(A.sum(axis=1) + leak)) < 1e-10

    def test_matrix_symmetric_for_symmetric_kernel(self):
        k = normalized_fractional(S)
        grid = _vgrid(64, 4.0)
        A = assemble_operator_matrix(k, grid, torus=True)
        off = A - np.diag(np.diag(A))
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
        want = _singular_moment(base, v_axis, h)
        got = _singular_moment(unit, v_axis, h)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_assembled_operator(self):
        base, unit = self._pair()
        grid = _vgrid(64, 4.0)
        # off the diagonal every torus entry is a kernel value or a moment
        torus_unit = assemble_operator_matrix(unit, grid, torus=True)
        torus_base = assemble_operator_matrix(base, grid, torus=True)
        off = ~np.eye(grid.nv, dtype=bool)
        np.testing.assert_allclose(torus_unit[off], torus_base[off], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.diag(torus_unit), np.diag(torus_base), rtol=1e-8)
        # the far-field loss of the generic path is a quadrature of the closed form
        full_unit = assemble_operator_matrix(unit, grid)
        full_base = assemble_operator_matrix(base, grid)
        np.testing.assert_allclose(full_unit.sum(axis=1), full_base.sum(axis=1), rtol=1e-4)
        np.testing.assert_allclose(full_unit, full_base, rtol=1e-4, atol=1e-12)


class TestFarField:
    def test_box_rows_sum_to_exit_rate(self):
        # with zero extension each row sums to minus the rate of jumps out
        # of the box: int of K beyond each box edge
        k = FractionalLaplacian(c=1.0, s=S)
        grid = _vgrid(32, 4.0)
        A = assemble_operator_matrix(k, grid)
        lo, hi = grid.v_axis[0] - grid.dv / 2, grid.v_axis[-1] + grid.dv / 2
        for i in (0, 9, 16, 31):
            v = grid.v_axis[i]
            want = sum(quad(lambda u: u ** (-1 - 2 * S), dist, np.inf)[0] for dist in (hi - v, v - lo))
            assert A[i].sum() == pytest.approx(-want, rel=1e-9)
