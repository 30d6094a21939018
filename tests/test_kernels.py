"""Kernel models, the far-field rule and ellipticity diagnostics."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from kineticlab import kernels
from kineticlab.fields import PowerLawEnvelope
from kineticlab.kernels import (
    FractionalLaplacian,
    KernelSpec,
    SymmetricPerturbation,
    check_coercivity,
    check_symmetry,
    check_upper_bound,
    default_test_family,
    frac_normalization,
    gauss_legendre,
    kernel_from_config,
    normalized_fractional,
)

orders = st.floats(0.1, 0.9)


class TestNormalization:
    def test_value_at_half(self):
        # 4^{1/2} Gamma(1) (1/2) / (pi^{1/2} Gamma(1/2)) = 1/pi
        assert frac_normalization(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.3, 0.4, 0.5, 0.75, 0.9])
    def test_matches_scipy_gamma(self, s):
        want = 4.0**s * gamma(0.5 + s) * s / (math.pi**0.5 * gamma(1 - s))
        assert frac_normalization(s) == pytest.approx(want, rel=1e-15)

    def test_normalized_kernel_carries_constant(self):
        k = normalized_fractional(0.5)
        assert k.c == pytest.approx(1.0 / math.pi)
        assert k.s == 0.5


class TestFractionalKernel:
    def test_pointwise_value(self):
        k = FractionalLaplacian(c=1.0, s=0.5)
        assert k._eval(0.0, 0.0, 0.0, 2.0) == pytest.approx(2.0**-2)

    def test_tail_closed_form(self):
        # int_{|u|>r} c |u|^{-(1+2s)} du = c r^{-2s} / s; c=1, s=1/2 gives 2/r
        k = FractionalLaplacian(c=1.0, s=0.5)
        assert k.tail_mass(0.3, 0.5) == pytest.approx(2.0 / 0.5, rel=1e-14)

    @given(orders, st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_tail_closed_form_matches_quadrature(self, s, r):
        # the generic rule adds the power-law remainder past its cut, so it
        # stays accurate for slowly decaying tails (small s) too
        k = FractionalLaplacian(c=1.3, s=s)
        quad = KernelSpec.one_sided_tail(k, 0.0, r)
        assert k.one_sided_tail(0.0, r) == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("c, s, r", [(1.0, 0.5, 0.5), (1.3, 0.3, 2.0), (1 / math.pi, 0.75, 0.25)])
    def test_two_sided_tail_is_twice_the_closed_form(self, c, s, r):
        # the base two-sided sum reproduces c r^{-2s} / s bit for bit
        assert FractionalLaplacian(c=c, s=s).tail_mass(0.3, r) == c * r ** (-2 * s) / s

    def test_multi_dimensional_distance(self):
        # velocity arrays of any rank are taken elementwise
        k1 = FractionalLaplacian(c=1.0, s=0.5)
        W = np.array([[1.0, 2.0], [4.0, 0.5]])
        np.testing.assert_allclose(k1._eval(0.0, 0.0, np.zeros_like(W), W), W**-2.0)


def _perturbed(c=1 / math.pi, s=0.5):
    base = FractionalLaplacian(c=c, s=s)
    return SymmetricPerturbation(base=base, multiplier=lambda v, w: 1.0 + 0.5 * np.cos(v + w), a_min=0.5, a_max=1.5)


class TestFarFieldQuadrature:
    """``KernelSpec.one_sided_tail`` is the one far-field rule of the package."""

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("amplitude", [0.05, 1.0])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_power_law_envelope_closed_form(self, s, p, amplitude, side):
        # int_dist^inf c u^{-(1+2s)} A u^{-p} du = c A dist^{-(2s+p)} / (2s+p) at v = 0;
        # the remainder past the cut decays like u^{-(1+2s+p)}, weight included
        k = FractionalLaplacian(c=1.3, s=s)
        env = PowerLawEnvelope(amplitude, p).envelope
        for dist in (0.25, 0.5, 3.0):
            want = 1.3 * amplitude * dist ** (-(2 * s + p)) / (2 * s + p)
            assert k.one_sided_tail(0.0, dist, side=side, weight=env) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.7, -1.3])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_perturbed_kernel_against_quad(self, v, side):
        # a = 1 + 0.5 cos(v + w) with w = v + side u splits into
        # cos(2v) cos(u) - side sin(2v) sin(u): two Fourier integrals (QAWF)
        for s in (0.1, 0.25, 0.5, 0.75):
            k = _perturbed(s=s)
            c = k.base.c

            def power(u):
                return c * u ** (-(1 + 2 * s))

            for dist in (0.25, 1.0, 2.0):
                cos_part = quad(power, dist, np.inf, weight="cos", wvar=1.0)[0]
                sin_part = quad(power, dist, np.inf, weight="sin", wvar=1.0)[0]
                want = c * dist ** (-2 * s) / (2 * s) + 0.5 * (
                    math.cos(2 * v) * cos_part - side * math.sin(2 * v) * sin_part)
                assert k.one_sided_tail(v, dist, side=side) == pytest.approx(want, rel=1e-8), (s, dist)

    def test_evaluations_per_point_and_side(self, monkeypatch):
        # every kernel class spends at most 2000 kernel evaluations on one
        # point and side; the plain power law takes the 80-node log rule
        counted = []
        frac_eval = FractionalLaplacian._eval

        def counting(self, t, x, v, w):
            counted.append(np.size(w))
            return frac_eval(self, t, x, v, w)

        monkeypatch.setattr(FractionalLaplacian, "_eval", counting)
        family = {"fractional": FractionalLaplacian(c=1.0, s=0.3), "perturbed": _perturbed(s=0.3)}
        env = PowerLawEnvelope(0.05, 2.0).envelope
        v = np.linspace(-1.0, 1.0, 50)
        per_point = {}
        for name, k in family.items():
            for weight in (None, env):
                counted.clear()
                k.one_sided_tail(v, 0.5, side=-1, weight=weight)
                per_point[name, weight is None] = sum(counted) / v.size
        assert max(per_point.values()) <= 2000
        assert per_point["fractional", False] == 80 and per_point["fractional", True] == 0

    def test_blocks_do_not_change_values(self):
        # more points than one block: each point's value is the one-point value
        k = _perturbed()
        n = kernels._TAIL_BLOCK // (kernels._TAIL_ORDER * kernels._TAIL_CAPPED_PANELS) + 3
        v, dist = np.linspace(-2.0, 2.0, n), np.linspace(0.1, 3.0, n)
        batch = k.one_sided_tail(v, dist, side=-1)
        single = [k.one_sided_tail(a, b, side=-1) for a, b in zip(v, dist)]
        np.testing.assert_array_equal(batch, single)

    def test_broadcasting_and_scalar_result(self):
        k = _perturbed()
        v, dist = np.array([[0.0], [0.7], [-1.3]]), np.array([0.25, 0.5, 1.0, 2.0])
        out = k.one_sided_tail(v, dist, t=0.0, x=np.zeros((3, 1)))
        assert out.shape == (3, 4)
        assert isinstance(k.one_sided_tail(0.7, 0.5), float)
        assert out[1, 1] == k.one_sided_tail(0.7, 0.5)
        frac = FractionalLaplacian(c=1.0, s=0.5)
        np.testing.assert_array_equal(frac.one_sided_tail(v, dist), np.broadcast_to(1.0 / dist, (3, 4)))

    @pytest.mark.parametrize("v, dist", [(1e17, 0.3), (-1e17, 0.3), (1e300, 0.3), (1.0, 0.0), (0.0, 1e300), (-1e300, 1e300),
                                         (0.0, math.nan)])
    def test_rejects_distances_the_nodes_cannot_resolve(self, v, dist):
        # far beyond |v| + dist = 1e8 h the nodes v + u lose u (near 1e16 h
        # they round onto v or onto each other), and past dist = 1e80 the far
        # model u^{-(1+2s)} underflows; either would end in a warning and a
        # NaN or an infinity
        env = PowerLawEnvelope(0.05, 2.0).envelope
        rule = r"violates the rule \|v\| \+ dist <= 1e\+08 (dist|min\(dist, 2\)) and dist <= 1e\+80"
        for k, weight in ((_perturbed(), None), (FractionalLaplacian(c=1.0, s=0.5), env)):
            with pytest.raises(ValueError, match=rule):
                k.one_sided_tail(np.array([0.0, v]), np.array([1.0, dist]), side=-1, weight=weight)

    def test_panel_scale_is_the_shorter_of_dist_and_the_oscillation_length(self):
        # the perturbed kernel's uniform panels are 2 wide, so a distance far
        # beyond 2e8 leaves them unresolved; the pure power law has none
        env = PowerLawEnvelope(0.05, 2.0).envelope
        frac, perturbed = FractionalLaplacian(c=1.0, s=0.5), _perturbed()
        assert math.isfinite(frac.one_sided_tail(0.0, 1e80, weight=env))
        assert math.isfinite(perturbed.one_sided_tail(0.0, 1e8))
        with pytest.raises(ValueError, match=r"1e\+08 min\(dist, 2\)"):
            perturbed.one_sided_tail(0.0, 1e9)
        for k in (frac, perturbed):
            for v in (0.5e8 - 1.0, -0.5e8 + 1.0):
                assert math.isfinite(k.one_sided_tail(v, 1.0, weight=env))
            with pytest.raises(ValueError):
                k.one_sided_tail(1e8, 1.0, weight=env)


class TestGaussLegendre:
    def test_cached_and_read_only(self):
        nodes, weights = gauss_legendre(12)
        assert gauss_legendre(12)[0] is nodes
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    def test_numpy_leggauss_bit_for_bit(self):
        for n in range(1, 101):
            nodes, weights = gauss_legendre(n)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
            assert nodes.tobytes() == want_nodes.tobytes(), n
            assert weights.tobytes() == want_weights.tobytes(), n

    def test_rejects_fewer_than_one_node(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    def test_quadrature_users_never_import_numpy_polynomial(self):
        # the threshold search, the operator assembly of a kernel without a
        # closed form and the weighted far field all build Gauss-Legendre
        # rules; none of them may load numpy.polynomial
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
        code = "\n".join([
            "import sys",
            "from kineticlab import aronson, kernels, operators",
            "from kineticlab.fields import PhaseGrid, PowerLawEnvelope",
            "frac = kernels.normalized_fractional(0.5)",
            "aronson.k_threshold(1.0, 0.1, 0.0, 0.0, 0.5, frac, n_per_region=3)",
            "perturbed = kernels.kernel_from_config('kind = perturbed\\nc = 0.3\\ns = 0.5\\na_min = 0.5\\na_max = 1.5')",
            "grid = PhaseGrid(nt=1, nx=2, nv=16, x_period=1.0, v_extent=4.0, t0=0.0, t1=1.0)",
            "operators.assemble_operator_matrix(perturbed, grid)",
            "frac.one_sided_tail(0.5, 1.0, weight=PowerLawEnvelope(0.05, 2.0).envelope)",
            "print('numpy.polynomial' in sys.modules)",
        ])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "False"


def _asymmetric_multiplier(v, w):
    return 1.0 + 0.4 * np.tanh(v - 2.0 * w) + 0.1 * np.sin(w)


# one instance per order s of every kernel class that declares itself
# symmetric; the perturbation is built on a deliberately asymmetric multiplier
SYMMETRIC_KERNELS = {
    FractionalLaplacian: [lambda s: FractionalLaplacian(c=1.3, s=s)],
    SymmetricPerturbation: [
        lambda s: SymmetricPerturbation(base=FractionalLaplacian(c=0.7, s=s), multiplier=_asymmetric_multiplier,
                                        a_min=0.5, a_max=1.5),
        lambda s: kernel_from_config(f"kind = perturbed\nc = 0.3\ns = {s!r}\na_min = 0.5\na_max = 1.5"),
    ],
}


def _swapped_pairs(rng, n):
    """Velocity pairs with |v|, |w| from 1e-12 to 1e12 of either sign: random
    ones, and every pair of distinct extremes."""
    v, w = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n) for _ in range(2))
    extremes = np.array([s * m for s in (-1.0, 1.0) for m in (1e-12, 1e-6, 1.0, 1e6, 1e12)])
    ev, ew = np.meshgrid(extremes, extremes, indexing="ij")
    distinct = ev != ew
    return np.concatenate([v, ev[distinct]]), np.concatenate([w, ew[distinct]])


class TestSymmetricKernels:
    """``symmetric = True`` promises ``K(v, w) == K(w, v)`` bit for bit."""

    def test_every_symmetric_class_is_covered(self):
        declared = {c for c in vars(kernels).values()
                    if isinstance(c, type) and issubclass(c, KernelSpec) and c.symmetric}
        assert declared == set(SYMMETRIC_KERNELS)
        assert not KernelSpec.symmetric

    def test_the_multiplier_is_asymmetric(self):
        v, w = _swapped_pairs(np.random.default_rng(1), 256)
        assert (_asymmetric_multiplier(v, w) != _asymmetric_multiplier(w, v)).mean() > 0.5

    @pytest.mark.parametrize("cls", sorted(SYMMETRIC_KERNELS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_swapped_velocities_bit_for_bit(self, cls, s):
        rng = np.random.default_rng(7)
        v, w = _swapped_pairs(rng, 4096)
        t, x = rng.uniform(-2.0, 2.0, (2, v.size))
        for make in SYMMETRIC_KERNELS[cls]:
            k = make(s)
            assert type(k) is cls and k.symmetric
            assert k._eval(t, x, v, w).tobytes() == k._eval(t, x, w, v).tobytes()
            # and on the broadcast shapes of the barrier residual: (M, 1)
            # owners against an (M, 24) node block
            vb, wb = v[:96, None], w[:96 * 24].reshape(96, 24)
            tb, xb = t[:96, None], x[:96, None]
            assert k._eval(tb, xb, vb, wb).tobytes() == k._eval(tb, xb, wb, vb).tobytes()
            assert check_symmetry(k)["max_relative_asymmetry"] == 0.0


def _coercivity_loop(k, family, n=256, box=2.0):
    """Reference: the coercivity ratios with one tail call per node and side
    for every test function."""
    grid = np.linspace(-2 * box, 2 * box, n, endpoint=False)
    h = grid[1] - grid[0]
    V, W = np.meshgrid(grid, grid, indexing="ij")
    off = ~np.eye(n, dtype=bool)
    ref = FractionalLaplacian(c=1.0, s=k.s)
    KVW, GVW = np.zeros((n, n)), np.zeros((n, n))
    KVW[off] = k._eval(0.0, 0.0, V[off], W[off])
    GVW[off] = ref._eval(0.0, 0.0, V[off], W[off])
    ratios = {}
    for name, phi in family:
        pv = phi(grid)
        diff2 = (pv[:, None] - pv[None, :]) ** 2
        lhs, rhs = np.sum(diff2 * KVW) * h * h, np.sum(diff2 * GVW) * h * h
        for i, v in enumerate(grid):
            if pv[i] == 0.0:
                continue
            up, down = grid[-1] + h - v, v - grid[0]
            lhs += 2 * pv[i] ** 2 * (k.one_sided_tail(v, up, side=+1) + k.one_sided_tail(v, down, side=-1)) * h
            rhs += 2 * pv[i] ** 2 * (ref.one_sided_tail(v, up, side=+1) + ref.one_sided_tail(v, down, side=-1)) * h
        ratios[name] = lhs / rhs
    return ratios


class TestEllipticityChecks:
    def test_symmetry_exact_for_fractional(self):
        rep = check_symmetry(normalized_fractional(0.5))
        assert rep["pass"]
        assert rep["max_relative_asymmetry"] == 0.0

    def test_symmetry_detects_asymmetric_kernel(self):
        class Skewed(KernelSpec):
            s, d = 0.5, 1

            def _eval(self, t, x, v, w):
                return np.abs(v - w) ** -2.0 * (1.0 + 0.1 * np.sign(w - v))

        rep = check_symmetry(Skewed())
        assert not rep["pass"]
        # the samples are seeded: the same seed, the same report
        assert check_symmetry(Skewed(), seed=3) == check_symmetry(Skewed(), seed=3)
        assert check_symmetry(Skewed(), samples=1, seed=3) != check_symmetry(Skewed(), samples=1, seed=4)
        with pytest.raises(ValueError, match="non-negative"):
            check_symmetry(Skewed(), seed=-1)

    def test_upper_bound_unit_kernel(self):
        # tail(v, r) = 2/r exactly, so the fitted constant is 2
        rep = check_upper_bound(FractionalLaplacian(c=1.0, s=0.5))
        assert rep["fitted_constant"] == pytest.approx(2.0, rel=1e-12)
        assert rep["pass"] is True

    def test_upper_bound_perturbed_within_envelope(self):
        base = FractionalLaplacian(c=1.0, s=0.5)
        k = SymmetricPerturbation(base=base, multiplier=lambda v, w: 1.5 + 0.5 * np.cos(v + w), a_min=1.0, a_max=2.0)
        rep = check_upper_bound(k)
        assert 2.0 * k.a_min * 0.98 <= rep["fitted_constant"] <= 2.0 * k.a_max * 1.02
        assert rep["pass"]

    def test_upper_bound_fails_above_the_declared_constant(self):
        # the multiplier reaches 3 while the kernel declares a_max = 1.5
        base = FractionalLaplacian(c=1.0, s=0.5)
        k = SymmetricPerturbation(base=base, multiplier=lambda v, w: 2.0 + np.cos(v + w), a_min=1.0, a_max=1.5)
        rep = check_upper_bound(k)
        assert rep["fitted_constant"] > 1.05 * 2.0 * k.a_max
        assert rep["pass"] is False

    def test_coercivity_matches_per_node_loop(self):
        # the tails taken once on the joint support equal the per-function,
        # per-node tail loop
        k = _perturbed()
        got = check_coercivity(k)["per_function"]
        want = _coercivity_loop(k, default_test_family())
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-12)

    def test_coercivity_identity_kernel(self):
        # the reference Gagliardo form uses c=1; a kernel with c=2 has ratio 2
        rep = check_coercivity(FractionalLaplacian(c=2.0, s=0.5), lambda0=1.0)
        assert rep["fitted_constant"] == pytest.approx(2.0, rel=1e-12)
        assert rep["pass"]


class TestConfigRoundtrip:
    def test_fractional_roundtrip(self):
        k = FractionalLaplacian(c=1.0 / math.pi, s=0.5)
        k2 = kernel_from_config(f"kind = fractional\nc = {k.c!r}\ns = {k.s!r}\nd = 1\n")
        assert k2 == k

    @pytest.mark.parametrize("d", ["2", "1.0"])
    def test_dimension_other_than_one_rejected(self, d):
        with pytest.raises(ValueError, match="violates the rule d = 1"):
            kernel_from_config(f"kind = fractional\nc = 1.0\ns = 0.5\nd = {d}\n")

    def test_perturbed_roundtrip_bounds(self):
        k2 = kernel_from_config("kind = perturbed\nc = 1.0\ns = 0.4\nd = 1\na_min = 0.5\na_max = 2.0\n")
        assert isinstance(k2, SymmetricPerturbation)
        assert (k2.base.c, k2.s, k2.a_min, k2.a_max) == (1.0, 0.4, 0.5, 2.0)

    @pytest.mark.parametrize("kind, missing", [
        ("fractional", "s"), ("fractional", "c"), ("perturbed", "a_min"), ("perturbed", "a_max"),
    ])
    def test_missing_key_named(self, kind, missing):
        pairs = {"kind": kind, "c": "1.0", "s": "0.5", "a_min": "0.5", "a_max": "1.5"}
        del pairs[missing]
        with pytest.raises(ValueError, match=f"'{missing}'"):
            kernel_from_config("".join(f"{key} = {value}\n" for key, value in pairs.items()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_config("kind = mystery\ns = 0.5\n")
