"""Explicit fundamental solution: symbol, tables, composition."""

import dataclasses
import hashlib
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline

from kineticlab import fundsol
from kineticlab.aronson import decay_envelope_check
from kineticlab.cli import main
from kineticlab.fundsol import (
    FundamentalSolutionTable,
    chapman_kolmogorov_residual,
    j0_hat,
    j0_hat_exponent,
    j0_table,
    modified_convolution,
    peak_decay_exponent,
)
from kineticlab.harnack import fundamental_field

S = 0.5


class TestSymbol:
    def test_worked_exponent(self):
        # int_0^1 |1 - tau|^1 dtau = 1/2
        assert float(j0_hat_exponent(1.0, 1.0, S)) == pytest.approx(0.5, abs=1e-14)

    def test_zero_frequency(self):
        assert float(j0_hat(0.0, 0.0, S)) == 1.0

    def test_pure_velocity_frequency(self):
        # phi = 0: the integral reduces to |xi|^{2s}
        assert float(j0_hat_exponent(0.0, 2.0, 0.3)) == pytest.approx(2.0**0.6, rel=1e-12)

    @given(
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_quadrature(self, phi, xi, s):
        tau = (np.arange(4000) + 0.5) / 4000.0
        quad = float(np.mean(np.abs(xi - tau * phi) ** (2 * s)))
        got = float(j0_hat_exponent(phi, xi, s))
        assert got == pytest.approx(quad, rel=2e-3, abs=2e-3)

    def test_symbol_bounds(self):
        vals = j0_hat(np.linspace(-3, 3, 11), np.linspace(-3, 3, 11), S)
        assert np.all(vals > 0) and np.all(vals <= 1)


class TestTable:
    def test_unit_mass(self, tab256):
        assert tab256.mass() == pytest.approx(1.0, abs=1e-3)

    def test_peak_frozen_value(self, tab256):
        # independently derived via the Fourier inversion of the symbol
        assert tab256.peak() == pytest.approx(0.7244342658395153, rel=1e-9)

    def test_self_similar_rescaling_exact(self, tab256):
        # beta = 2 (1+s) / (2s) = 3 at s = 1/2
        assert peak_decay_exponent(S) == 3.0
        assert float(tab256.sample(0.0, 0.0, t=2.0)) / tab256.peak() == pytest.approx(2.0**-3, abs=1e-12)

    def test_sample_matches_nodes(self, tab256):
        i, j = 100, 140
        got = float(tab256.sample(tab256.x_axis[i], tab256.v_axis[j]))
        assert got == pytest.approx(tab256.values[i, j], rel=1e-6, abs=1e-9)

    def test_sample_zero_outside_box(self, tab256):
        assert float(tab256.sample(1e6, 0.0)) == 0.0

    def test_positive_correlation_of_x_and_v(self, tab256):
        # transported mass moves toward x ~ t v: E[x v] > 0
        X, V = np.meshgrid(tab256.x_axis, tab256.v_axis, indexing="ij")
        exv = float((tab256.values * X * V).sum() * tab256.dx * tab256.dv)
        assert exv > 0.1

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            j0_table(-1.0, S)

    @pytest.mark.parametrize("n", [0, 3])
    def test_too_few_frequencies_rejected(self, n):
        with pytest.raises(ValueError, match="n_freq must be at least 4"):
            j0_table(1.0, S, n_freq=n)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_time_rejected(self, tab256, t):
        with pytest.raises(ValueError, match="finite and positive"):
            j0_table(t, S, n_freq=128)
        with pytest.raises(ValueError, match="finite and positive"):
            tab256.sample(0.0, 0.0, t=t)
        with pytest.raises(ValueError, match="finite and positive"):
            tab256.sample(np.zeros(3), 0.0, t=np.array([1.0, t, 2.0]))

    def test_nan_mass_is_a_numerical_failure(self, monkeypatch):
        x_axis, v_axis, vals, meta = fundsol._unit_profile(128, S)
        monkeypatch.setattr(fundsol, "_unit_profile", lambda *a: (x_axis, v_axis, np.full_like(vals, np.nan), meta))
        with pytest.raises(RuntimeError, match="mass deficit"):
            j0_table(1.0, S, n_freq=128)


def _masked_abs_power_integral(a, b, p):
    """The boolean-mask formula the vectorized closed form replaced."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.empty_like(a)
    zero = np.abs(b) < np.maximum(1e-300, 1e-9 * np.abs(a))
    out[zero] = np.abs(a[zero]) ** p
    bz, az = b[~zero], a[~zero]
    u1 = az - bz
    phi1 = -(u1 * np.abs(u1) ** p) / (bz * (p + 1))
    phi0 = -(az * np.abs(az) ** p) / (bz * (p + 1))
    out[~zero] = phi1 - phi0
    return out


def _full_spectrum_profile(n, s):
    """The profile as the real part of the full complex inverse FFT."""
    _, _, _, meta = fundsol._unit_profile(n, s)
    Phi, Xi = meta["phi_extent"], meta["xi_extent"]
    dphi, dxi = 2 * Phi / n, 2 * Xi / n
    phi = dphi * (np.fft.fftfreq(n) * n)
    xi = dxi * (np.fft.fftfreq(n) * n)
    G = j0_hat(-phi[:, None], xi[None, :], s)
    return np.fft.fftshift(np.fft.ifft2(G).real) * (n * n * dphi * dxi) / (2 * np.pi) ** 2


class TestHalfSpectrumBuild:
    @pytest.mark.parametrize("n", [129, 256, 1024])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_matches_full_complex_transform(self, n, s):
        ref = _full_spectrum_profile(n, s)
        vals = fundsol._unit_profile(n, s)[2]
        assert vals.shape == (n, n)
        # rounding only: mirroring the Nyquist corner at the off-grid +Xi
        # instead of at itself already moves s = 0.25 by 7.6e-12 of the peak
        assert np.max(np.abs(vals - ref)) <= 1e-13 * ref.max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.6])
    def test_closed_form_bit_identical_to_masked_formula(self, p):
        # b = 0, 0 < |b| < 1e-9 |a| (down to a subnormal b, whose discarded
        # antiderivative overflows), a = 0, and both signs of each
        a = np.array([-5.0, -2.5, -1e-12, 0.0, 1e-12, 0.7, 5.0])[:, None]
        b = np.array([-3.0, -4e-9, -1e-12, -5e-324, 0.0, 1e-12, 4e-9, 0.7, 3.0])[None, :]
        freq = 0.3 * np.fft.fftfreq(64) * 64
        for x, y in ((a, b), (freq[None, :], -freq[:, None]), (1.5, 0.0)):
            got = fundsol._abs_power_integral(x, y, p)
            np.testing.assert_array_equal(got, _masked_abs_power_integral(x, y, p))
            assert got.shape == np.broadcast_shapes(np.shape(x), np.shape(y))

    def test_cold_build_peak_memory(self):
        tracemalloc.start()
        try:
            # the uncached build
            vals = fundsol._unit_profile.__wrapped__(1024, 0.5)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # the sampler's first pass reads the transpose without a copy
        assert vals.T.flags.c_contiguous


# sha256 (first 16 hex digits) of x_axis, v_axis and values of the unit
# profile as the half-width j0_lattice build makes it, and the values'
# sum(), which also reads their memory layout (numpy 2.4; a numpy whose FFT
# rounds differently changes them too)
_PROFILE_DIGESTS = {
    (128, 0.25): ("875d93794eb62fc2", 332009.2545592125),
    (128, 0.5): ("6005b2e60b84b31d", 648.4555753109618),
    (128, 0.8): ("5d78c26f8cc1cf2e", 81.05694691387023),
    (256, 0.25): ("0c8dc6c7d0003977", 332009.2545592125),
    (256, 0.5): ("4ad31c774af15fdd", 648.4555753109618),
    (256, 0.8): ("0bdac74dd00381aa", 81.05694691387022),
    (1024, 0.25): ("80f6c890c9472c73", 332009.2545592125),
    (1024, 0.5): ("9d0141561405732c", 648.4555753109618),
    (1024, 0.8): ("4ec7ace69eb4f0d5", 81.05694691387022),
}


def _full_width_lattice(t, s, nx, nv, dx, dv):
    """``j0_lattice`` at ``pad = 1`` as built before the half-width build:
    the full-width inverse transform of every real symbol row along phi,
    one real inverse transform along xi of all nx columns, and
    ``fftshift``."""
    phi = 2 * np.pi / (nx * dx) * (np.fft.fftfreq(nx) * nx)
    xi = 2 * np.pi / (nv * dv) * (np.fft.fftfreq(nv) * nv)
    half = np.arange(nv // 2 + 1)

    def symbol(p, q):
        return np.exp(-t * j0_hat_exponent(-t * p, q, s))

    G = symbol(phi[None, :], xi[half, None])
    if nx % 2 == 0:
        G[:, nx // 2] = 0.5 * (G[:, nx // 2] + symbol(phi[nx // 2], xi[-half]))
    vals = np.fft.irfft(np.fft.ifft(G, axis=1), n=nv, axis=0).T
    vals *= nx * nv * (2 * np.pi / (nx * dx)) * (2 * np.pi / (nv * dv)) / (2 * np.pi) ** 2
    return np.fft.fftshift(vals)


def _periodic_cauchy(y, gamma, period):
    """``sum_k gamma / pi / ((y + k period)^2 + gamma^2)`` in closed form."""
    a = 2 * np.pi / period
    return np.sinh(a * gamma) / (period * (np.cosh(a * gamma) - np.cos(a * y)))


class TestLattice:
    @pytest.mark.parametrize("n, s", sorted(_PROFILE_DIGESTS))
    def test_unit_profile_keeps_its_bits(self, n, s):
        x_axis, v_axis, vals, _ = fundsol._unit_profile.__wrapped__(n, s)
        digest = hashlib.sha256(x_axis.tobytes() + v_axis.tobytes() + vals.tobytes()).hexdigest()
        assert (digest[:16], float(vals.sum())) == _PROFILE_DIGESTS[n, s]

    @pytest.mark.parametrize("pad", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("nx, nv", [(48, 64), (64, 48), (33, 40)])
    def test_padded_lattice_is_the_centre_of_the_full_one(self, pad, s, nx, nv):
        J = fundsol.j0_lattice(1.5, s, nx, nv, 0.1, 0.15, pad=pad)
        full = fundsol.j0_lattice(1.5, s, pad * nx, pad * nv, 0.1, 0.15)
        i, j = pad * nx // 2 - nx // 2, pad * nv // 2 - nv // 2
        assert np.array_equal(J, full[i:i + nx, j:j + nv])

    @pytest.mark.parametrize("pad", [1, 2, 3])
    @pytest.mark.parametrize("nx, nv", [(48, 64), (64, 48), (33, 40), (40, 33)])
    def test_point_symmetric_off_its_self_partner_lines(self, pad, nx, nv):
        # J(-x, -v) = J(x, v) bit for bit at every node whose partner is on
        # the lattice, except on the line x = 0, which is its own partner
        J = fundsol.j0_lattice(1.5, 0.4, nx, nv, 0.1, 0.15, pad=pad)
        cx, cv = nx // 2, nv // 2
        k = np.arange(1, min(cx, nx - cx - 1) + 1)
        q = np.arange(-min(cv, nv - cv - 1), min(cv, nv - cv - 1) + 1)
        plus = J[np.ix_(cx + k, cv + q)]
        minus = J[np.ix_(cx - k, cv - q)]
        assert plus.size and np.array_equal(plus, minus)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("nx, nv", [(128, 128), (1024, 1024), (33, 40), (40, 33), (35, 35)])
    def test_matches_full_width_build(self, nx, nv, s):
        # the half-width build moves each value by rounding only; on the
        # square lattices this is the unit-time profile of _unit_profile
        Phi, Xi = fundsol._auto_extents(s)
        J = fundsol.j0_lattice(1.0, s, nx, nv, np.pi / Phi, np.pi / Xi)
        ref = _full_width_lattice(1.0, s, nx, nv, np.pi / Phi, np.pi / Xi)
        assert np.max(np.abs(J - ref)) <= 1e-15 * ref.max()

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_half_order_marginals_are_periodic_cauchy(self, t):
        # at s = 1/2 the v-marginal of J(t) is the Cauchy density of scale t
        # and the x-marginal that of scale t^2 / 2; on the lattice each is
        # periodized and loses the symbol beyond pi / h, a defect of about
        # exp(-gamma pi / h) of the peak
        m, dx, dv = 1024, 1 / 16, 3 / 32
        J = fundsol.j0_lattice(t, 0.5, m, m, dx, dv)
        nodes = np.arange(m) - m // 2
        for marginal, h, gamma in ((J.sum(axis=0) * dx, dv, t), (J.sum(axis=1) * dv, dx, t * t / 2)):
            exact = _periodic_cauchy(h * nodes, gamma, m * h)
            err = np.max(np.abs(marginal - exact)) / exact.max()
            assert err <= 2 * np.exp(-gamma * np.pi / h) + 1e-13

    def test_centre_node_is_the_origin(self):
        # odd and even sides alike put x = v = 0 on node (mx // 2, mv // 2)
        for mx, mv in ((64, 64), (65, 48), (48, 65)):
            J = fundsol.j0_lattice(1.0, S, mx, mv, 0.25, 0.25)
            assert np.unravel_index(np.argmax(J), J.shape) == (mx // 2, mv // 2)


def _reference_spline(tab):
    """FITPACK's interpolating bicubic on the table's unit-time axes."""
    st = tab.t ** (1 + 1 / (2 * tab.s))
    sv = tab.t ** (1 / (2 * tab.s))
    unit = tab.values * tab.t ** peak_decay_exponent(tab.s)
    spline = RectBivariateSpline(tab.x_axis / st, tab.v_axis / sv, unit, kx=3, ky=3)
    return lambda x, v: tab.t ** -peak_decay_exponent(tab.s) * spline.ev(x / st, v / sv)


def _box_edges(x_axis, v_axis, n=101):
    x0, x1 = x_axis[0], x_axis[-1]
    v0, v1 = v_axis[0], v_axis[-1]
    xs = np.linspace(x0, x1, n)
    vs = np.linspace(v0, v1, n)
    x = np.concatenate([xs, xs, np.full(n, x0), np.full(n, x1), [x0, x0, x1, x1]])
    v = np.concatenate([np.full(n, v0), np.full(n, v1), vs, vs, [v0, v1, v0, v1]])
    return x, v


def _assert_sampler_matches_fitpack(x_axis, v_axis, values, x, v):
    """``_BicubicSampler`` on uniform axes against FITPACK's interpolating
    bicubic on the same nodes."""
    got = fundsol._BicubicSampler(x_axis, v_axis, values)(x, v)
    ref = RectBivariateSpline(x_axis, v_axis, values, kx=3, ky=3).ev(x, v)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(values))


def _scaled_sample(tab, x, v, t=None):
    """``J`` read through a sampler built on ``tab``'s t-scaled arrays scaled
    back to unit time: the arithmetic of a table that samples its own
    values, kept as the reference of the one profile sampler."""
    s, beta = tab.s, peak_decay_exponent(tab.s)
    sampler = fundsol._BicubicSampler(tab.x_axis / tab.t ** (1 + 1 / (2 * s)),
                                      tab.v_axis / tab.t ** (1 / (2 * s)), tab.values * tab.t**beta)
    t = np.asarray(tab.t if t is None else t, dtype=float)
    return t**-beta * sampler(np.asarray(x) / t ** (1 + 1 / (2 * s)), np.asarray(v) / t ** (1 / (2 * s)))


def _broadcast_first_bicubic(sampler, x, v):
    """The bicubic sampler's evaluation as made on points broadcast to full
    shape first, with a joint inside mask and a full-shape gather index."""
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    (xlo, vlo), (xhi, vhi), (hx, hv), (nx, nv) = sampler.lo, sampler.hi, sampler.h, sampler.n
    inside = (x >= xlo) & (x <= xhi) & (v >= vlo) & (v <= vhi)
    ux = np.where(inside, np.clip((x - xlo) / hx, 0.0, nx - 1), 0.0)
    uv = np.where(inside, np.clip((v - vlo) / hv, 0.0, nv - 1), 0.0)
    ix, wx = fundsol._cardinal_weights(ux, nx)
    iv, wv = fundsol._cardinal_weights(uv, nv)
    stride = nv + 2
    base = ix * stride + iv
    out = np.zeros(inside.shape)
    for a in range(4):
        row = wv[0] * sampler.coef.take(base + a * stride)
        for b in range(1, 4):
            row += wv[b] * sampler.coef.take(base + (a * stride + b))
        out += wx[a] * row
    return np.where(inside, out, 0.0)


def _bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSampler:
    """The numpy not-a-knot sampler against FITPACK's ``RectBivariateSpline``."""

    def _assert_matches(self, tab, x, v):
        ref = _reference_spline(tab)(x, v)
        got = tab.sample(x, v)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(tab.values))

    def test_random_interior_points(self, tab256):
        rng = np.random.default_rng(1)
        x = rng.uniform(tab256.x_axis[0], tab256.x_axis[-1], 20000)
        v = rng.uniform(tab256.v_axis[0], tab256.v_axis[-1], 20000)
        self._assert_matches(tab256, x, v)

    def test_table_nodes(self, tab256):
        X, V = np.meshgrid(tab256.x_axis, tab256.v_axis, indexing="ij")
        self._assert_matches(tab256, X.ravel(), V.ravel())
        got = tab256.sample(X, V)
        assert np.max(np.abs(got - tab256.values)) <= 1e-12 * tab256.peak()

    def test_box_edges_and_corners(self, tab256):
        self._assert_matches(tab256, *_box_edges(tab256.x_axis, tab256.v_axis))

    def test_unequal_axis_lengths(self):
        rng = np.random.default_rng(2)
        nx, nv = 37, 11
        x_axis = np.linspace(-2.0, 3.0, nx)
        v_axis = np.linspace(-1.0, 1.0, nv)
        ex, ev = _box_edges(x_axis, v_axis)
        x = np.concatenate([rng.uniform(-2.0, 3.0, 5000), ex])
        v = np.concatenate([rng.uniform(-1.0, 1.0, 5000), ev])
        _assert_sampler_matches_fitpack(x_axis, v_axis, rng.standard_normal((nx, nv)), x, v)

    def test_at_time_axes(self):
        # the t-scaled arrays of a table at t = 1.7: axes of any uniform step
        rng = np.random.default_rng(3)
        tab = j0_table(1.7, S, n_freq=256)
        ex, ev = _box_edges(tab.x_axis, tab.v_axis)
        x = np.concatenate([rng.uniform(tab.x_axis[0], tab.x_axis[-1], 5000), ex])
        v = np.concatenate([rng.uniform(tab.v_axis[0], tab.v_axis[-1], 5000), ev])
        _assert_sampler_matches_fitpack(tab.x_axis, tab.v_axis, tab.values, x, v)

    def test_outside_points_are_zero(self, tab256):
        # the table and the bare sampler on axes of no table (37 x 11 nodes)
        x_axis, v_axis = np.linspace(-2.0, 3.0, 37), np.linspace(-1.0, 1.0, 11)
        sampler = fundsol._BicubicSampler(x_axis, v_axis, np.random.default_rng(7).standard_normal((37, 11)))
        for read, xs, vs in ((tab256.sample, tab256.x_axis, tab256.v_axis), (sampler, x_axis, v_axis)):
            x0, x1, v0, v1 = xs[0], xs[-1], vs[0], vs[-1]
            x = np.array([np.nextafter(x0, -np.inf), np.nextafter(x1, np.inf), 0.5, 0.5, 1e300, 0.5])
            v = np.array([0.5, 0.5, np.nextafter(v0, -np.inf), np.nextafter(v1, np.inf), 0.5, -1e300])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = read(x, v)
            assert np.array_equal(got, np.zeros(len(x)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "v"])
    def test_non_finite_points_rejected(self, tab256, axis, bad):
        # as PhaseField.sample: a non-finite coordinate is no point of the field
        coords = {"x": np.array([0.0, 0.5]), "v": 0.0}
        coords[axis] = np.array([0.0, bad])
        with pytest.raises(ValueError, match=f"sample coordinate {axis} must be finite"):
            tab256.sample(**coords)

    def test_per_axis_bit_identical_to_broadcast_first(self, tab256):
        sampler = fundsol._unit_sampler(tab256.n_freq, tab256.s)
        x0, x1 = sampler.lo[0], sampler.hi[0]
        v0, v1 = sampler.lo[1], sampler.hi[1]
        rng = np.random.default_rng(5)
        # inside, on and beyond the box edges, and NaN on either axis
        xs = np.concatenate([rng.uniform(1.1 * x0, 1.1 * x1, 60), [x0, x1, np.nextafter(x1, np.inf), np.nan]])
        vs = np.concatenate([rng.uniform(1.1 * v0, 1.1 * v1, 50), [v0, v1, np.nextafter(v0, -np.inf), np.nan]])
        flat_x = rng.uniform(1.1 * x0, 1.1 * x1, 500)
        flat_v = rng.uniform(1.1 * v0, 1.1 * v1, 500)
        for x, v in ((xs[:, None], vs[None, :]), (xs[None, :], vs[:, None]), (flat_x, flat_v),
                     (xs, 0.3), (0.3, vs), (0.3, -0.2), (np.nan, 0.0), (2 * x1, 0.0)):
            assert _bit_identical(sampler(np.asarray(x), np.asarray(v)), _broadcast_first_bicubic(sampler, x, v))

    @pytest.mark.parametrize("t", [None, 0.6, 2.5])
    def test_separable_points_bit_identical_to_meshgrid(self, tab256, t):
        xs = np.linspace(-3.0, 3.0, 41)
        vs = np.linspace(-5.0, 5.0, 37)
        X, V = np.meshgrid(xs, vs, indexing="ij")
        want = tab256.sample(X.ravel(), V.ravel(), t=t).reshape(X.shape)
        assert _bit_identical(tab256.sample(xs[:, None], vs[None, :], t=t), want)

    def test_scalar_and_shape(self, tab256):
        assert np.shape(tab256.sample(0.0, 0.0)) == ()
        assert tab256.sample(np.zeros((3, 1)), np.zeros(4)).shape == (3, 4)

    def test_time_array_bit_identical_to_per_time_calls(self, tab256):
        rng = np.random.default_rng(4)
        times = np.array([0.3, 0.75, 1.0, 2.5])
        t = rng.choice(times, size=(40, 50))
        x = rng.uniform(-2.0, 2.0, (40, 50))
        v = rng.uniform(-3.0, 3.0, (40, 1))
        got = tab256.sample(x, v, t=t)
        want = np.empty_like(got)
        X, V = np.broadcast_arrays(x, v)
        for tu in times:
            m = t == tu
            want[m] = tab256.sample(X[m], V[m], t=float(tu))
        assert np.array_equal(got, want)

    def test_fundamental_field_one_call(self, tab256, monkeypatch):
        rng = np.random.default_rng(5)
        f = fundamental_field(tab256, t_offset=1.0)
        t = rng.choice([-0.5, 0.0, 0.25, 1.0, -1.0, -3.0, np.inf, np.nan], size=500)
        x = rng.uniform(-1.0, 1.0, 500)
        v = rng.uniform(-2.0, 2.0, 500)
        # the field is 0 where t + t_offset is not a positive finite time
        want = np.zeros(500)
        for tu in (-0.5, 0.0, 0.25, 1.0):
            m = t == tu
            want[m] = tab256.sample(x[m], v[m], t=float(tu + 1.0))
        calls = []
        sample = FundamentalSolutionTable.sample
        monkeypatch.setattr(FundamentalSolutionTable, "sample", lambda *a, **k: calls.append(1) or sample(*a, **k))
        assert np.array_equal(f.sample(t, x, v), want)
        assert len(calls) == 1

    def test_nash_on_diagonal_one_call(self, tab256, monkeypatch):
        calls = []
        sample = FundamentalSolutionTable.sample
        monkeypatch.setattr(FundamentalSolutionTable, "sample", lambda *a, **k: calls.append(1) or sample(*a, **k))
        rep = decay_envelope_check(tab256, "NashOnDiag")
        assert len(calls) == 1
        ts = np.asarray(rep["extra"]["times"])
        per_time = np.array([float(sample(tab256, 0.0, 0.0, t=float(t))) for t in ts]) * ts ** peak_decay_exponent(S)
        assert rep["constant"] == float(per_time.max())


def _points(tab, n=5000, seed=6):
    """Random points of ``tab``'s box and a margin around it, its box edges
    and its nodes."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.05 * tab.x_axis[0], 1.05 * tab.x_axis[-1], n)
    v = rng.uniform(1.05 * tab.v_axis[0], 1.05 * tab.v_axis[-1], n)
    X, V = np.meshgrid(tab.x_axis, tab.v_axis, indexing="ij")
    ex, ev = _box_edges(tab.x_axis, tab.v_axis)
    return np.concatenate([x, ex, X.ravel()]), np.concatenate([v, ev, V.ravel()])


class TestSharedSampler:
    """Tables that ``j0_table`` makes from one cached unit-time profile read
    it through one sampler, built on their first ``sample``."""

    def test_tables_of_one_profile_share_one_sampler(self, monkeypatch):
        built, sampler = [], fundsol._BicubicSampler

        class Recording(sampler):
            def __init__(self, x_axis, v_axis, values):
                built.append(values.shape)
                super().__init__(x_axis, v_axis, values)

        # a cache of this test's own, so that every build is seen
        monkeypatch.setattr(fundsol, "_unit_sampler", lru_cache(maxsize=8)(fundsol._unit_sampler.__wrapped__))
        monkeypatch.setattr(fundsol, "_BicubicSampler", Recording)
        a, b = j0_table(1.0, S, n_freq=64), j0_table(2.0, S, n_freq=64)
        assert built == []
        a.sample(0.0, 0.0)
        b.sample(0.0, 0.0)
        assert built == [(64, 64)]
        j0_table(1.0, 0.3, n_freq=64).sample(0.0, 0.0)
        assert built == [(64, 64)] * 2

    def test_fields_are_s_t_n_freq(self):
        assert tuple(f.name for f in dataclasses.fields(FundamentalSolutionTable)) == ("s", "t", "n_freq")
        tab = j0_table(2.0, S, n_freq=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tab.t = 1.0
        assert tab == j0_table(2.0, S, n_freq=64)

    def test_a_fresh_table_holds_no_array(self):
        tab = j0_table(2.0, S, n_freq=64)
        tab.sample(0.0, 0.0)
        assert sorted(vars(tab)) == ["n_freq", "s", "t"]
        tab.values
        tab.dx
        assert sorted(vars(tab)) == ["n_freq", "s", "t", "values", "x_axis"]

    def test_meta_is_a_copy_of_the_profile_record(self):
        tab = j0_table(2.0, S, n_freq=64)
        record = fundsol._unit_profile(64, S)[3]
        meta = tab.meta
        assert meta == record and meta is not record
        meta["ringing"] = 1.0
        assert tab.meta == record and record["ringing"] != 1.0

    @pytest.mark.parametrize("t", [None, 0.3, 1.0, 2.5])
    def test_bit_identical_to_scaled_arrays_at_unit_time(self, t):
        tab = j0_table(1.0, S, n_freq=64)
        x, v = _points(tab)
        assert np.array_equal(tab.sample(x, v, t=t), _scaled_sample(tab, x, v, t=t))

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_bit_identical_at_power_of_two_times(self, t):
        # at s = 1/2 the self-similar factors t^2 and t^3 are exact
        tab = j0_table(t, S, n_freq=64)
        x, v = _points(tab)
        assert np.array_equal(tab.sample(x, v), _scaled_sample(tab, x, v))

    @pytest.mark.parametrize("s", [0.25, S, 0.8])
    def test_last_bits_at_other_times(self, s):
        # the reference reads t^-beta values on t-scaled axes, each scaled
        # back with a rounding: up to 7.3e-16 of the peak
        tab = j0_table(1.7, s, n_freq=64)
        x, v = _points(tab)
        for t in (None, 0.7):
            want = _scaled_sample(tab, x, v, t=t)
            assert np.max(np.abs(tab.sample(x, v, t=t) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_a_fundsol_run_builds_no_sampler_for_its_table(self, tmp_path, monkeypatch):
        built, unit_sampler, sampler = [], fundsol._unit_sampler, fundsol._BicubicSampler

        class Recording(sampler):
            def __init__(self, x_axis, v_axis, values):
                built.append(values.shape)
                super().__init__(x_axis, v_axis, values)

        # a cached sampler is requested, not built: record the requests too
        monkeypatch.setattr(fundsol, "_unit_sampler", lambda *key: built.append(key) or unit_sampler(*key))
        monkeypatch.setattr(fundsol, "_BicubicSampler", Recording)
        assert main(["fundsol", "--n-freq", "256", "--out", str(tmp_path / "f")]) == 0
        # only the composition check samples, on its own 128-node table
        assert built and not [b for b in built if 256 in b]

    def test_cached_arrays_are_read_only(self):
        x_axis, v_axis, vals, _ = fundsol._unit_profile(64, S)
        tab = j0_table(2.0, S, n_freq=64)
        tab.sample(0.0, 0.0)
        for a in (x_axis, v_axis, vals, fundsol._unit_sampler(64, S).coef):
            assert not a.flags.writeable
        assert tab.values.flags.writeable

    def test_profile_cache_keys_on_exact_s(self):
        # s = 1/2 + 4e-13 once read the s = 1/2 profile when that was built
        # first: 1.3e-12 away from its own
        s = S + 4e-13
        own = fundsol._unit_profile.__wrapped__(128, s)[2]
        j0_table(1.0, S, n_freq=128)
        np.testing.assert_array_equal(j0_table(1.0, s, n_freq=128).values, own)


class TestComposition:
    def test_convolution_with_point_mass(self):
        # g concentrated at the origin: f *_t g ~ f shifted by the shear
        n = 64
        dx = dv = 0.25
        x = dx * (np.arange(n) - n // 2)
        f = np.exp(-np.add.outer(x**2, x**2))
        g = np.zeros((n, n))
        g[n // 2, n // 2] = 1.0 / (dx * dv)
        out = modified_convolution(f, g, 0.0, dx, dv)
        assert np.max(np.abs(out - f)) < 1e-10

    @staticmethod
    def _complex_convolution(f, g, t, dx, dv):
        """The sheared convolution on full complex transforms: the real part
        of ``ifft2(fft_v(fft_x(f) e^{-i phi t v}) fft2(ifftshift(g)))``."""
        nx, nv = f.shape
        v_axis = dv * (np.arange(nv) - nv // 2)
        phi = 2 * np.pi * np.fft.fftfreq(nx, d=dx)
        Fh = np.fft.fft(f, axis=0) * np.exp(-1j * phi[:, None] * t * v_axis[None, :])
        return np.fft.ifft2(np.fft.fft(Fh, axis=1) * np.fft.fft2(np.fft.ifftshift(g))).real * dx * dv

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("nx, nv", [(32, 24), (33, 24), (31, 17)])
    def test_real_transforms_match_complex_ones(self, nx, nv, t):
        # the Nyquist line of an even nx keeps cos(phi t v) of its phase
        rng = np.random.default_rng(nx + nv)
        f, g = rng.random((nx, nv)), rng.random((nx, nv))
        want = self._complex_convolution(f, g, t, 0.3, 0.2)
        got = modified_convolution(f, g, t, 0.3, 0.2)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_chapman_kolmogorov_small_residual(self):
        rep = chapman_kolmogorov_residual(0.5, 0.5, S, n_freq=256)
        assert rep["residual_max"] < 2e-2 * rep["peak"] + 2e-2

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            chapman_kolmogorov_residual(-0.5, 0.5, S)
