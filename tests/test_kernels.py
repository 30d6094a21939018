"""Kernel models, scaling and ellipticity diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlab.kernels import (
    EllipticityParams,
    FractionalLaplacian,
    SymmetricPerturbation,
    TimeSpaceModulated,
    check_coercivity,
    check_symmetry,
    check_upper_bound,
    frac_normalization,
    gauss_legendre,
    kernel_eval,
    kernel_from_config,
    kernel_scale,
    kernel_to_config,
    normalized_fractional,
)

orders = st.floats(0.1, 0.9)


class TestNormalization:
    def test_value_at_half(self):
        # 4^{1/2} Gamma(1) (1/2) / (pi^{1/2} Gamma(1/2)) = 1/pi
        assert frac_normalization(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_normalized_kernel_carries_constant(self):
        k = normalized_fractional(0.5)
        assert k.c == pytest.approx(1.0 / math.pi)
        assert k.s == 0.5 and k.d == 1


class TestFractionalKernel:
    def test_pointwise_value(self):
        k = FractionalLaplacian(c=1.0, s=0.5, d=1)
        assert kernel_eval(k, 0.0, 0.0, 0.0, 2.0) == pytest.approx(2.0**-2)

    def test_diagonal_rejected(self):
        k = FractionalLaplacian(c=1.0, s=0.5)
        with pytest.raises(ValueError):
            kernel_eval(k, 0.0, 0.0, 1.0, 1.0)

    def test_tail_closed_form(self):
        # int_{|u|>r} c |u|^{-(1+2s)} du = c r^{-2s} / s; c=1, s=1/2 gives 2/r
        k = FractionalLaplacian(c=1.0, s=0.5)
        assert k.tail_mass(0.3, 0.5) == pytest.approx(2.0 / 0.5, rel=1e-14)

    @given(st.floats(0.3, 0.9), st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_tail_closed_form_matches_quadrature(self, s, r):
        # generic quadrature truncates at dist * 1e6; the remainder is
        # only negligible when the tail decays fast enough (s not tiny)
        k = FractionalLaplacian(c=1.3, s=s)
        quad = FractionalLaplacian.__mro__[1].one_sided_tail(k, 0.0, r)
        assert k.one_sided_tail(0.0, r) == pytest.approx(quad, rel=1e-3)

    def test_multi_dimensional_distance(self):
        # d > 1 stacks components on the leading axis; d = 1 arrays of any
        # rank are taken elementwise
        k2 = FractionalLaplacian(c=1.0, s=0.5, d=2)
        v = np.zeros((2, 3))
        w = np.array([[3.0, 0.0, 1.0], [4.0, 2.0, 0.0]])
        np.testing.assert_allclose(k2._eval(0.0, 0.0, v, w), np.array([5.0, 2.0, 1.0]) ** -3.0)
        k1 = FractionalLaplacian(c=1.0, s=0.5)
        W = np.array([[1.0, 2.0], [4.0, 0.5]])
        np.testing.assert_allclose(k1._eval(0.0, 0.0, np.zeros_like(W), W), W**-2.0)


class TestGaussLegendre:
    def test_cached_and_read_only(self):
        nodes, weights = gauss_legendre(12)
        assert gauss_legendre(12)[0] is nodes
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            nodes[0] = 0.0


class TestScaling:
    def test_fractional_is_fixed_point(self):
        k = FractionalLaplacian(c=2.0, s=0.3)
        assert kernel_scale(k, 0.5) is k

    @given(orders, st.floats(0.1, 1.0), st.floats(0.2, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaled_kernel_value(self, s, r, dist):
        # scaling law r^{d+2s} K(.., r v, r w) applied to a perturbed kernel
        base = FractionalLaplacian(c=1.0, s=s)
        k = SymmetricPerturbation(base=base, multiplier=lambda v, w: 2.0 + np.cos(v - w), a_min=1.0, a_max=3.0)
        ks = kernel_scale(k, r)
        got = float(np.asarray(ks._eval(0.0, 0.0, np.array(0.0), np.array(dist))))
        want = r ** (1 + 2 * s) * float(np.asarray(k._eval(0.0, 0.0, np.array(0.0), np.array(r * dist))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_scale_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            kernel_scale(FractionalLaplacian(c=1.0, s=0.5), 2.0)


class TestEllipticityChecks:
    def test_symmetry_exact_for_fractional(self):
        rep = check_symmetry(normalized_fractional(0.5))
        assert rep["pass"]
        assert rep["max_relative_asymmetry"] == 0.0

    def test_symmetry_detects_asymmetric_kernel(self):
        from kineticlab.kernels import CustomKernel

        k = CustomKernel(evaluator=lambda t, x, v, w: np.abs(v - w) ** -2.0 * (1.0 + 0.1 * np.sign(w - v)), s=0.5)
        rep = check_symmetry(k)
        assert not rep["pass"]

    def test_upper_bound_unit_kernel(self):
        # tail(v, r) = 2/r exactly, so the fitted constant is 2
        rep = check_upper_bound(FractionalLaplacian(c=1.0, s=0.5))
        assert rep["fitted_constant"] == pytest.approx(2.0, rel=1e-12)

    def test_upper_bound_perturbed_within_envelope(self):
        base = FractionalLaplacian(c=1.0, s=0.5)
        k = SymmetricPerturbation(base=base, multiplier=lambda v, w: 1.5 + 0.5 * np.cos(v + w), a_min=1.0, a_max=2.0)
        rep = check_upper_bound(k)
        assert 2.0 * k.a_min * 0.98 <= rep["fitted_constant"] <= 2.0 * k.a_max * 1.02

    def test_coercivity_identity_kernel(self):
        # the reference Gagliardo form uses c=1; a kernel with c=2 has ratio 2
        rep = check_coercivity(FractionalLaplacian(c=2.0, s=0.5), lambda0=1.0)
        assert rep["fitted_constant"] == pytest.approx(2.0, rel=1e-12)
        assert rep["pass"]

    def test_modulated_kernel_tail(self):
        inner = FractionalLaplacian(c=1.0, s=0.5)
        k = TimeSpaceModulated(inner=inner, modulation=lambda t, x: 3.0, m_min=3.0, m_max=3.0)
        assert k.tail_mass(0.0, 1.0) == pytest.approx(3.0 * 2.0)


class TestEllipticityParams:
    def test_validation(self):
        EllipticityParams(s=0.5, lambda0=1.0, Lambda0=2.0)
        with pytest.raises(ValueError):
            EllipticityParams(s=0.5, lambda0=2.0, Lambda0=1.0)
        with pytest.raises(ValueError):
            EllipticityParams(s=1.5, lambda0=1.0, Lambda0=2.0)


class TestConfigRoundtrip:
    def test_fractional_roundtrip(self):
        k = FractionalLaplacian(c=1.0 / math.pi, s=0.5, d=1)
        k2 = kernel_from_config(kernel_to_config(k))
        assert isinstance(k2, FractionalLaplacian)
        assert (k2.c, k2.s, k2.d) == (k.c, k.s, k.d)

    def test_perturbed_roundtrip_bounds(self):
        base = FractionalLaplacian(c=1.0, s=0.4)
        k = SymmetricPerturbation(base=base, multiplier=lambda v, w: 1.0, a_min=0.5, a_max=2.0)
        k2 = kernel_from_config(kernel_to_config(k))
        assert isinstance(k2, SymmetricPerturbation)
        assert (k2.a_min, k2.a_max) == (0.5, 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_config("kind = mystery\ns = 0.5\n")
