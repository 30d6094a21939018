"""Barrier weight, supersolution residual, energy decay, envelopes."""

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from kineticlab import aronson
from kineticlab.aronson import (
    BarrierParams,
    aronson_energy_check,
    barrier_eval,
    barrier_region,
    barrier_residual,
    barrier_residual_parts,
    barrier_values,
    decay_envelope_check,
    k_threshold,
    region_samples,
)
from kineticlab.fields import PhaseGrid
from kineticlab.kernels import FractionalLaplacian, KernelSpec, normalized_fractional
from kineticlab.solver import SolverConfig, mollified_delta, solve

S = 0.5


def _params(rho=1.0, k=2.0, tau0=0.0, y0=0.0, w0=0.0, s=S):
    sigma = tau0 + rho ** (2 * s) / (4 * k)
    return BarrierParams(rho=rho, k=k, tau0=tau0, sigma=sigma, y0=y0, w0=w0, s=s)


# The forms one phase point can take: a tuple of Python floats (what
# region_samples returns), a list, and a row of an (N, 3) array
ONE_POINT_FORMS = {
    "tuple": lambda row: tuple(float(q) for q in row),
    "list": lambda row: [float(q) for q in row],
    "array-row": lambda row: row,
}


class TestBarrierParams:
    def test_window_constraint(self):
        with pytest.raises(ValueError):
            BarrierParams(rho=1.0, k=2.0, tau0=0.0, sigma=0.5, y0=0.0, w0=0.0, s=S)
        with pytest.raises(ValueError):
            BarrierParams(rho=1.0, k=0.5, tau0=0.0, sigma=0.1, y0=0.0, w0=0.0, s=S)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rho", "k", "tau0", "sigma", "y0", "w0", "s"])
    def test_rejects_non_finite_fields(self, field, value):
        good = dict(rho=1.0, k=2.0, tau0=0.0, sigma=0.125, y0=0.0, w0=0.0, s=S)
        BarrierParams(**good)
        with pytest.raises(ValueError, match="rho, k, tau0, sigma, y0, w0 and s must be finite"):
            BarrierParams(**{**good, field: value})

    def test_log_factor_positive_on_window(self):
        p = _params()
        ts = np.linspace(p.tau0, p.sigma, 9)
        L = aronson._state(p, ts, np.zeros_like(ts), np.zeros_like(ts))[-1]
        assert np.all(L > 0)


class TestBarrierValues:
    def test_core_value(self):
        # where both branch arguments are below 1, H = k delta(t) / rho^{2s}
        p = _params()
        t = 0.5 * (p.tau0 + p.sigma)
        delta = 2.0 * (p.sigma - p.tau0) - (t - p.tau0)
        want = p.k * delta / p.rho ** (2 * S)
        assert barrier_eval(p, (t, p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0, p.w0)) == pytest.approx(want, rel=1e-12)

    def test_decays_in_velocity(self):
        p = _params()
        t = 0.5 * (p.tau0 + p.sigma)
        vals = [barrier_eval(p, (t, 0.0, v)) for v in (0.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_time_window_enforced(self):
        p = _params()
        with pytest.raises(ValueError):
            barrier_values(p, p.sigma + 0.1, 0.0, 0.0)


def _barrier_region_reference(p, z):
    """``barrier_region`` as first written: the spatial root taken on numpy scalars."""
    t, x, v = float(z[0]), float(z[1]), float(z[2])
    rho = p.rho
    dv = abs(v - p.w0)
    X = np.float64(abs(x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0)) ** (1.0 / (1 + 2 * p.s))
    if dv <= 2 * rho:
        return 1 if X <= 3 * rho else 2
    if dv <= 3 * rho:
        return 3 if X <= 3 * rho else 4
    if X <= 3 * rho or X <= dv:
        return 5
    return 6


def _region_samples_reference(p, n_per_region, rng):
    """``region_samples`` as first written: draws by ``Generator.uniform``,
    signs by ``Generator.choice``, regions by ``_barrier_region_reference``."""
    rho = p.rho
    out = []
    for region in range(1, 7):
        count = 0
        while count < n_per_region:
            t = rng.uniform(p.tau0, p.sigma)
            if region in (1, 3, 5):
                Xr = rng.uniform(0.0, 2.9 * rho)
            else:
                Xr = rng.uniform(3.1 * rho, 12.0 * rho)
            if region in (1, 2):
                dv = rng.uniform(0.0, 1.9 * rho)
            elif region in (3, 4):
                dv = rng.uniform(2.1 * rho, 2.9 * rho)
            else:
                dv = rng.uniform(3.1 * rho, 12.0 * rho)
            if region == 5 and Xr > 3 * rho:
                Xr = rng.uniform(3.1 * rho, max(3.2 * rho, dv))
            if region == 6:
                Xr = rng.uniform(max(3.1 * rho, dv * 1.01), 14.0 * rho)
            v = p.w0 + rng.choice([-1.0, 1.0]) * dv
            x = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0 + rng.choice([-1.0, 1.0]) * Xr ** (1 + 2 * p.s)
            z = (t, x, v)
            if _barrier_region_reference(p, z) == region:
                out.append(z)
                count += 1
    return out


class TestRegions:
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("kw", [{}, dict(rho=0.6, k=1.5, tau0=0.2, y0=0.7, w0=-1.3)])
    def test_matches_choice_reference(self, seed, kw):
        p = _params(**kw)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = region_samples(p, 25, rng)
        want = _region_samples_reference(p, 25, ref_rng)
        np.testing.assert_array_equal(np.array(got), np.array(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("y0, w0", [(0.0, 0.0), (0.7, -1.3)])
    def test_matches_reference_at_every_order(self, s, y0, w0):
        # the spatial root has exponent 1/(1 + 2s): the Python float root of
        # barrier_region must classify as the numpy scalar one did
        p = _params(rho=0.8, tau0=0.1, y0=y0, w0=w0, s=s)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = np.array(region_samples(p, 200, rng))
        np.testing.assert_array_equal(got, np.array(_region_samples_reference(p, 200, ref_rng)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [barrier_region(p, z) for z in got] == [_barrier_region_reference(p, z) for z in got]

    def test_all_regions_reachable(self):
        p = _params()
        zs = region_samples(p, 3, np.random.default_rng(0))
        regions = sorted({barrier_region(p, z) for z in zs})
        assert regions == [1, 2, 3, 4, 5, 6]

    def test_threshold_classification(self):
        p = _params(w0=0.0, y0=0.0)
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        assert barrier_region(p, (t, x0, 0.5)) == 1
        assert barrier_region(p, (t, x0 + 5.0**2, 0.5)) == 2
        assert barrier_region(p, (t, x0, 2.5)) == 3
        assert barrier_region(p, (t, x0 + 5.0**2, 2.5)) == 4
        assert barrier_region(p, (t, x0, 5.0)) == 5
        assert barrier_region(p, (t, x0 + 8.0**2, 5.0)) == 6


class TestResidual:
    def test_core_transport_term(self):
        p = _params()
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        TH, I, tie = barrier_residual_parts(p, normalized_fractional(S), (t, x0, 0.0))
        assert not tie
        assert TH == pytest.approx(-p.k / p.rho ** (2 * S), rel=1e-12)
        assert I >= 0.0

    def test_residual_nonpositive_at_k2(self):
        p = _params(k=2.0)
        k = normalized_fractional(S)
        rng = np.random.default_rng(7)
        zs = region_samples(p, 10, rng)
        res = [barrier_residual(p, k, z, c=2.0) for z in zs]
        assert max(res) <= 1e-8

    def test_tie_fallback_finite(self):
        # exactly on the kink |v - w0| = 3 rho the analytic branch is one-sided
        p = _params()
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        r = barrier_residual(p, normalized_fractional(S), (t, x0, 3.0 * p.rho))
        assert math.isfinite(r)


class TestPointsWithoutBarrier:
    # the barrier lives on finite (x, v) and t in [tau0, sigma]; before the
    # check, (0.15, 0.2, inf) gave residual 0.0, certifying the point, and
    # (0.5, 0, 0) gave -2.0
    P = BarrierParams(rho=1.0, k=2.0, tau0=0.1, sigma=0.225, y0=0.0, w0=0.0, s=S)
    GOOD = (0.15, 0.2, 0.3)
    BAD = {
        "inf-v": ((0.15, 0.2, math.inf), "finite"),
        "-inf-x": ((0.15, -math.inf, 0.3), "finite"),
        "nan-x": ((0.15, math.nan, 0.3), "finite"),
        "nan-t": ((math.nan, 0.2, 0.3), "finite"),
        "inf-t": ((math.inf, 0.2, 0.3), "finite"),
        "late-t": ((0.5, 0.0, 0.0), "time outside"),
        "early-t": ((0.1 - 1e-9, 0.0, 0.0), "time outside"),
    }

    @pytest.mark.parametrize("name", BAD)
    @pytest.mark.parametrize("fn", [barrier_residual, barrier_residual_parts])
    def test_residual_rejects_single_and_batched(self, fn, name):
        z, rule = self.BAD[name]
        k = normalized_fractional(S)
        for form in ONE_POINT_FORMS.values():
            with pytest.raises(ValueError, match=rule):
                fn(self.P, k, form(np.array(z)))
        with pytest.raises(ValueError, match=rule):
            fn(self.P, k, np.array([self.GOOD, z, self.GOOD]))

    @pytest.mark.parametrize("name", BAD)
    def test_barrier_values_reject(self, name):
        z, rule = self.BAD[name]
        with pytest.raises(ValueError, match=rule):
            barrier_eval(self.P, z)
        with pytest.raises(ValueError, match=rule):
            barrier_values(self.P, *np.array([self.GOOD, z]).T)

    def test_window_tolerance_is_that_of_barrier_values(self):
        # times within 1e-12 outside the window are accepted by every path
        k = normalized_fractional(S)
        Z = np.array([(self.P.tau0 - 5e-13, 0.2, 0.3), (self.P.sigma + 5e-13, 0.2, 0.3)])
        res = barrier_residual(self.P, k, Z)
        assert np.isfinite(res).all()
        np.testing.assert_array_equal(res, [barrier_residual(self.P, k, tuple(z)) for z in Z])
        np.testing.assert_array_equal(barrier_values(self.P, *Z.T), [barrier_eval(self.P, z) for z in Z])


def _jump_quadratic_reference(p, kspec, t, x, v, quad_n=24):
    """One point at a time, one Gauss-Legendre pass per breakpoint segment."""
    rho = p.rho
    u = float(abs(x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0))
    mX = max(1.0, u ** (1.0 / (1 + 2 * p.s)) / (3 * rho))
    pts = {v - rho, v + rho, v, p.w0, p.w0 - 3 * rho * mX, p.w0 + 3 * rho * mX, p.w0 - 2 * rho, p.w0 + 2 * rho}
    brk = sorted(q for q in pts if v - rho <= q <= v + rho)
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    sv = math.sqrt(float(barrier_values(p, t, x, v)))
    acc = 0.0
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a < 1e-14:
            continue
        w = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        ww = 0.5 * (b - a) * weights
        keep = np.abs(w - v) > 1e-12
        w, ww = w[keep], ww[keep]
        sw = np.sqrt(barrier_values(p, t, x, w))
        Ks = kspec._eval(t, x, np.full_like(w, v), w) + kspec._eval(t, x, w, np.full_like(w, v))
        acc += float(np.sum((sv - sw) ** 2 * Ks * ww))
    return acc


def _jump_block_reference(p, kspec, t, x, v, gx, L, quad_n=24):
    """The jump quadrature as first vectorized: every point over all seven
    segments of its ball, with the segment sums added along each row."""
    rho = p.rho
    mX = np.maximum(1.0, gx)
    lo, hi = v - rho, v + rho
    brk = np.empty((len(v), 8))
    brk[:, :3] = p.w0, p.w0 - 2 * rho, p.w0 + 2 * rho
    brk[:, 3], brk[:, 4], brk[:, 5] = lo, hi, v
    brk[:, 6], brk[:, 7] = p.w0 - 3 * rho * mX, p.w0 + 3 * rho * mX
    np.clip(brk, lo[:, None], hi[:, None], out=brk)
    brk.sort(axis=1)
    a, b = brk[:, :-1, None], brk[:, 1:, None]  # (N, 7, 1)
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    w = 0.5 * (b - a) * nodes + 0.5 * (a + b)  # (N, 7, quad_n)
    v3 = v[:, None, None]
    keep = (b - a >= 1e-14) & (np.abs(w - v3) > 1e-12)
    ww = np.where(keep, 0.5 * (b - a) * weights, 0.0)
    w = np.where(keep, w, v3 + rho)
    gx3, L3 = gx[:, None, None], L[:, None, None]

    def sqrtH(vel):
        return np.exp(-0.5 * np.maximum(1.0, np.maximum(np.abs(vel - p.w0) / (3 * rho), gx3)) * L3)

    tt, xx, vv = (np.repeat(q, w.shape[1] * w.shape[2]) for q in (t, x, v))
    wf = w.ravel()
    Ks = np.asarray(kspec._eval(tt, xx, vv, wf), dtype=float) + np.asarray(kspec._eval(tt, xx, wf, vv), dtype=float)
    quad = (sqrtH(v3) - sqrtH(w)) ** 2 * Ks.reshape(w.shape) * ww
    return quad.sum(axis=2).sum(axis=1)


def _contributing_segments(p, v, gv, gx, quad_n=24):
    """Per point, how many segments of the full quadrature have an integrand
    that is not identically 0.0: segments at least 1e-14 wide with ``v`` or
    some node outside the flat zone ``|w - w0|/(3 rho) <= max(1, gx)``."""
    nodes, _ = np.polynomial.legendre.leggauss(quad_n)
    counts = []
    for vi, gvi, gxi in zip(v, gv, gx):
        mX = max(1.0, gxi)
        lo, hi = vi - p.rho, vi + p.rho
        pts = [p.w0, p.w0 - 2 * p.rho, p.w0 + 2 * p.rho, lo, hi, vi, p.w0 - 3 * p.rho * mX, p.w0 + 3 * p.rho * mX]
        brk = np.sort(np.clip(pts, lo, hi))
        n = 0
        for a, b in zip(brk[:-1], brk[1:]):
            w = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            flat = gvi <= mX and np.all(np.abs(w - p.w0) / (3 * p.rho) <= mX)
            n += bool(b - a >= 1e-14 and not flat)
        counts.append(n)
    return np.array(counts)


def _kernel_sizes(monkeypatch, k):
    """A list that records the node count of every later ``k._eval`` call."""
    sizes = []
    real = type(k)._eval

    def counting(self, t, x, v, w):
        sizes.append(np.size(w))
        return real(self, t, x, v, w)

    monkeypatch.setattr(type(k), "_eval", counting)
    return sizes


def _flat(p, v, gx):
    """Points whose ball ``B_rho(v)`` the jump quadrature skips."""
    return (np.abs(v - p.w0) + p.rho) / (3 * p.rho) < np.maximum(1.0, gx) * (1 - 1e-12)


class _Skewed(KernelSpec):
    """``(1.5 + cos(3x + t) tanh(w))`` times the normalized fractional kernel."""

    d = 1

    def __init__(self, s):
        self.s, self.base = s, normalized_fractional(s)

    def _eval(self, t, x, v, w):
        return (1.5 + np.cos(3 * x + t) * np.tanh(w)) * self.base._eval(t, x, v, w)


def _asymmetric(s):
    # (t, x)-dependent and asymmetric: each node must see its own point
    return _Skewed(s)


class TestBatchedResidual:
    def _batch(self, p):
        # all six regions, plus a kink point |v - w0| = 3 rho in the same batch
        zs = region_samples(p, 4, np.random.default_rng(3))
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        return np.array(zs + [(t, x0, p.w0 + 3.0 * p.rho)])

    @pytest.mark.parametrize("modulated", [False, True])
    def test_batch_matches_point_loop(self, modulated):
        p = _params()
        k = _asymmetric(S) if modulated else normalized_fractional(S)
        Z = self._batch(p)
        assert {barrier_region(p, z) for z in Z} == {1, 2, 3, 4, 5, 6}
        res = barrier_residual(p, k, Z, c=2.0)
        assert isinstance(res, np.ndarray) and res.shape == (len(Z),)
        np.testing.assert_array_equal(res, [barrier_residual(p, k, z, c=2.0) for z in Z])
        TH, I, tie = barrier_residual_parts(p, k, Z)
        assert tie[-1] and not tie[:-1].any()
        loop = [barrier_residual_parts(p, k, z) for z in Z]
        np.testing.assert_array_equal(TH, [a for a, _, _ in loop])
        np.testing.assert_array_equal(I, [b for _, b, _ in loop])
        np.testing.assert_array_equal(tie, [c for _, _, c in loop])
        ref = [_jump_quadratic_reference(p, k, *z) for z in Z]
        np.testing.assert_allclose(I, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_single_points_match_batch_at_every_order(self, s):
        # the spatial root has exponent 1/(1+2s); away from s = 1/2 the C
        # library's scalar pow and numpy's array loop can round it apart
        k = _asymmetric(s)
        p = BarrierParams(rho=0.8, k=2.0, tau0=0.1, sigma=0.1 + 0.8 ** (2 * s) / 8, y0=0.7, w0=-1.3, s=s)
        t = 0.5 * (p.tau0 + p.sigma)
        u0 = [(t, p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0, p.w0 + dv) for dv in (0.5, 5.0)]  # u = 0 exactly
        Z = np.array(region_samples(p, 40, np.random.default_rng(8)) + u0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = barrier_residual(p, k, Z)
            TH, I, tie = barrier_residual_parts(p, k, Z)
            for form in ONE_POINT_FORMS.values():
                points = [form(z) for z in Z]
                np.testing.assert_array_equal(res, [barrier_residual(p, k, z) for z in points])
                loop = [barrier_residual_parts(p, k, z) for z in points]
                np.testing.assert_array_equal(np.column_stack([TH, I, tie]), loop)
        np.testing.assert_array_equal(barrier_values(p, *Z.T), [barrier_eval(p, z) for z in Z])

    def test_blocked_batch_is_bit_identical(self, monkeypatch):
        # N straddles a block boundary, and flat points are interleaved
        # with live ones
        p = _params()
        k = normalized_fractional(S)
        n = aronson._JUMP_BLOCK + 3
        zs = region_samples(p, -(-n // 6), np.random.default_rng(5))
        zs = np.array(zs)[np.random.default_rng(6).permutation(len(zs))[:n]]
        t, x, v = zs.T
        _, _, gv, gx, _, L = aronson._state(p, t, x, v)
        flat = _flat(p, v, gx)
        assert flat.any() and not flat.all()
        blocked = aronson._jump_quadratic(p, k, t, x, v, gv, gx, L)
        np.testing.assert_array_equal(blocked, _jump_block_reference(p, k, t, x, v, gx, L))
        np.testing.assert_array_equal(barrier_residual_parts(p, k, zs)[1], blocked)
        np.testing.assert_array_equal(blocked, [barrier_residual_parts(p, k, z)[1] for z in zs])
        np.testing.assert_array_equal(barrier_residual(p, k, zs), [barrier_residual(p, k, z) for z in zs])
        # the live points span many blocks, the last one partly filled
        monkeypatch.setattr(aronson, "_JUMP_BLOCK", 7)
        assert (~flat).sum() % 7
        np.testing.assert_array_equal(aronson._jump_quadratic(p, k, t, x, v, gv, gx, L), blocked)

    def test_ties_in_batch_use_flow_difference(self):
        # the velocity/spatial tie gv = gx = 2 is a kink where the analytic
        # branch derivative is one-sided; the core point is not a tie
        p = _params()
        k = normalized_fractional(S)
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        v = p.w0 + 6.0 * p.rho
        Z = np.array([(t, x0 + (6.0 * p.rho) ** (1 + 2 * S), v), (t, x0, p.w0)])
        TH, I, tie = barrier_residual_parts(p, k, Z)
        assert tie.tolist() == [True, False]
        h = 1e-7 * (p.sigma - p.tau0)
        tz, xz, vz = Z.T
        fd = (barrier_values(p, tz + h, xz + h * vz, vz) - barrier_values(p, tz - h, xz - h * vz, vz)) / (2 * h)
        assert abs(TH[0] - fd[0]) > 1e-3 * abs(fd[0])
        res = barrier_residual(p, k, Z, c=2.0)
        assert res[0] == pytest.approx(fd[0] + 2.0 * I[0], rel=1e-8)  # step roundoff
        assert res[1] == TH[1] + 2.0 * I[1]

    def test_single_point_returns_python_scalars(self):
        p = _params()
        k = normalized_fractional(S)
        Z = self._batch(p)
        t, x, v = Z.T
        flat = _flat(p, v, aronson._state(p, t, x, v)[3])
        # a live point, a flat point and the kink point that ends the batch
        for row in (Z[np.flatnonzero(~flat)[0]], Z[np.flatnonzero(flat)[0]], Z[-1]):
            for form in ONE_POINT_FORMS.values():
                z = form(row)
                assert type(barrier_residual(p, k, z)) is float
                TH, I, tie = barrier_residual_parts(p, k, z)
                assert (type(TH), type(I), type(tie)) == (float, float, bool)

    def test_one_point_calls_numpy_only_for_exp_log_and_power(self, monkeypatch):
        # a flat point in the core and in the spatial branch runs on Python
        # floats alone, but for np.exp, np.log and np.power, and keeps the
        # bits of its batched value
        p = _params(rho=0.8, k=2.0, tau0=0.1, y0=0.7, w0=-1.3)
        k = normalized_fractional(S)
        t = 0.5 * (p.tau0 + p.sigma)
        x0 = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0
        core = (t, x0 + 0.3, p.w0 + 0.5 * p.rho)
        spatial = (t, x0 - (6.0 * p.rho) ** (1 + 2 * S), p.w0 + 0.5 * p.rho)
        velocity = (t, x0 + 0.3, p.w0 - 6.0 * p.rho)
        Z = np.array([core, spatial, velocity])
        _, _, gv, gx, _, _ = state = aronson._state(p, *Z.T)
        assert max(gv[0], gx[0]) <= 1.0 and gv[1] < gx[1] and gx[1] > 1.0 and gv[2] > max(1.0, gx[2])
        assert _flat(p, Z[:, 2], gx).tolist() == [True, True, False]
        res = barrier_residual(p, k, Z)
        TH, I, tie = barrier_residual_parts(p, k, Z)
        TH_state, tie_state = aronson._transport_term(p, state, Z[:, 2])
        monkeypatch.setattr(aronson, "np", types.SimpleNamespace(ndarray=np.ndarray, exp=np.exp, log=np.log, power=np.power))
        for i, z in enumerate((core, spatial)):
            assert barrier_residual(p, k, z) == res[i]
            assert barrier_residual_parts(p, k, z) == (TH[i], 0.0, False)
        # the ball of a velocity-branch point reaches past its multiplier,
        # (|v - w0| + rho)/(3 rho) > gv >= max(1, gx), so it is never flat
        # and its jump term runs the numpy quadrature; its state and
        # transport term run on Python floats
        got = aronson._state(p, *velocity)
        assert got == tuple(float(q[2]) for q in state)
        assert aronson._transport_term(p, got, velocity[2]) == (TH_state[2], False)

    def test_rejects_bad_shape(self):
        p = _params()
        with pytest.raises(ValueError):
            barrier_residual(p, normalized_fractional(S), np.zeros((4, 2)))

    def test_single_flat_point_never_evaluates_the_kernel(self, monkeypatch):
        p = _params()
        k = normalized_fractional(S)
        Z = self._batch(p)
        t, x, v = Z.T
        flat = _flat(p, v, aronson._state(p, t, x, v)[3])
        assert flat.any()
        want = barrier_residual(p, k, Z[flat])

        def no_kernel(*args):
            raise AssertionError("kernel evaluated on a flat ball")

        monkeypatch.setattr(type(k), "_eval", no_kernel)
        assert [barrier_residual_parts(p, k, z)[1] for z in Z[flat]] == [0.0] * flat.sum()
        np.testing.assert_array_equal([barrier_residual(p, k, z) for z in Z[flat]], want)

    def test_scalar_where_returns_the_chosen_operand(self):
        a, b = np.float64(1.5), [2.0]
        assert aronson._where(np.True_, a, b) is a
        assert aronson._where(np.False_, a, b) is b
        np.testing.assert_array_equal(aronson._where(np.array([True, False]), 1.0, np.array([3.0, 4.0])), [1.0, 4.0])


class TestFlatBall:
    KERNELS = [normalized_fractional, _asymmetric]

    @pytest.mark.parametrize("make_kernel", KERNELS)
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("y0, w0", [(0.0, 0.0), (0.7, -1.3)])
    def test_skipped_points_integrate_to_zero(self, make_kernel, s, y0, w0):
        k = make_kernel(s)
        p = BarrierParams(rho=0.8, k=2.0, tau0=0.1, sigma=0.1 + 0.8 ** (2 * s) / 8, y0=y0, w0=w0, s=s)
        zs = np.array(region_samples(p, 12, np.random.default_rng(4)))
        assert {barrier_region(p, z) for z in zs} == {1, 2, 3, 4, 5, 6}
        t, x, v = zs.T
        _, _, gv, gx, _, L = aronson._state(p, t, x, v)
        flat = _flat(p, v, gx)
        assert {barrier_region(p, z) for z in zs[flat]} == {1, 2, 4, 6}
        # the full-ball quadrature is exactly 0.0 wherever the skip applies
        full = _jump_block_reference(p, k, t, x, v, gx, L)
        assert np.all(full[flat] == 0.0)
        np.testing.assert_array_equal(aronson._jump_quadratic(p, k, t, x, v, gv, gx, L), full)

    @pytest.mark.parametrize("make_kernel", KERNELS)
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_points_at_the_margin_match_full_quadrature(self, make_kernel, side):
        # |v - w0| = 2.5 rho, so reach = 3.5/3 > 1; gx is set within a few
        # 1e-12 of reach on both sides of the skip margin
        p = _params(rho=0.8, k=2.0, tau0=0.1, y0=0.7, w0=-1.3)
        k = make_kernel(S)
        rel = np.array([-3e-12, -1e-12, -1e-13, 0.0, 1e-13, 5e-13, 1e-12, 1.5e-12, 3e-12, 1e-11])
        t = np.full(len(rel), 0.5 * (p.tau0 + p.sigma))
        v = np.full(len(rel), p.w0 + side * 2.5 * p.rho)
        reach = (np.abs(v - p.w0) + p.rho) / (3 * p.rho)
        x = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0 + side * (3 * p.rho * reach * (1 + rel)) ** (1 + 2 * S)
        _, _, gv, gx, _, L = aronson._state(p, t, x, v)
        flat = _flat(p, v, gx)
        assert flat.any() and not flat.all()
        full = _jump_block_reference(p, k, t, x, v, gx, L)
        assert np.all(full[flat] == 0.0)
        np.testing.assert_array_equal(aronson._jump_quadratic(p, k, t, x, v, gv, gx, L), full)
        np.testing.assert_array_equal(barrier_residual_parts(p, k, np.column_stack([t, x, v]))[1], full)


class TestSegmentSkip:
    KERNELS = [normalized_fractional, _asymmetric]

    @staticmethod
    def _params(s):
        return BarrierParams(rho=0.8, k=2.0, tau0=0.1, sigma=0.1 + 0.8 ** (2 * s) / 8, y0=0.7, w0=-1.3, s=s)

    @pytest.mark.parametrize("make_kernel", KERNELS)
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_segment_ends_at_the_flat_zone_edge(self, monkeypatch, make_kernel, s, side):
        # the flat zone ends at e = w0 + side 3 rho mX; v, or one end v -+ rho
        # of its ball, is put within +-1e-13 to 1e-11 (relative) of e, with
        # mX = 1 and with mX = gx > 1.  v is also put 1e-14 to 1e-12 inside
        # e, so that the segment [v, e] is very short
        k = make_kernel(s)
        p = dataclasses.replace(self._params(s), w0=1.3 * side)
        rel = [-1e-11, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 1e-11]
        t = 0.5 * (p.tau0 + p.sigma)

        def zone(g):
            # a spatial offset whose branch argument is about g, and mX there
            x = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0 + side * (3 * p.rho * g) ** (1 + 2 * s)
            return x, max(1.0, float(aronson._state(p, t, x, 0.0)[3]))

        def rounds_out(mX):
            return abs(p.w0 + side * (3 * p.rho * mX) - p.w0) / (3 * p.rho) > mX

        # also an mX whose edge e itself rounds to a multiplier above mX: the
        # end node of [v, e] can then lie outside the zone while the nodes
        # next to it lie inside
        out = [g for g in np.linspace(1.01, 1.99, 99) if rounds_out(zone(g)[1])]
        assert out
        zs = []
        for g in [0.5, 1.3] + out[:1]:
            x, mX = zone(g)
            reach = 3 * p.rho * mX
            for shift in (0.0, -p.rho, p.rho):
                zs += [(t, x, p.w0 + side * (reach * (1 + r) + shift)) for r in rel]
            zs += [(t, x, p.w0 + side * reach - side * d) for d in np.geomspace(1e-14, 1e-12, 25)]
        Z = np.array(zs)
        t, x, v = Z.T
        _, _, gv, gx, _, L = aronson._state(p, t, x, v)
        mX, flat = np.maximum(1.0, gx), _flat(p, v, gx)
        assert (gv <= mX).any() and (gv > mX).any() and flat.any() and not flat.all()
        full = _jump_block_reference(p, k, t, x, v, gx, L)
        np.testing.assert_array_equal(aronson._jump_quadratic(p, k, t, x, v, gv, gx, L), full)
        sizes = _kernel_sizes(monkeypatch, k)
        np.testing.assert_array_equal(barrier_residual_parts(p, k, Z)[1], full)
        np.testing.assert_array_equal([barrier_residual_parts(p, k, z)[1] for z in Z], full)
        # every segment with an integrand not identically 0.0 is integrated,
        # in the batch and one point at a time
        assert sum(sizes) == 2 * 2 * 24 * _contributing_segments(p, v, gv, gx).sum()

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.8])
    def test_live_points_evaluate_only_contributing_segments(self, monkeypatch, s):
        k = _asymmetric(s)
        p = self._params(s)
        Z = np.array(region_samples(p, 12, np.random.default_rng(4)))
        t, x, v = Z.T
        _, _, gv, gx, _, _ = aronson._state(p, t, x, v)
        want = _contributing_segments(p, v, gv, gx)
        live = ~_flat(p, v, gx)
        assert 0 < want.sum() < 7 * live.sum()
        sizes = _kernel_sizes(monkeypatch, k)
        # two kernel calls on quad_n = 24 nodes per contributing segment
        for z, n in zip(Z, want):
            sizes.clear()
            barrier_residual_parts(p, k, z)
            assert sizes == ([24 * n] * 2 if n else [])
        sizes.clear()
        barrier_residual_parts(p, k, Z)
        assert sizes == [24 * want.sum()] * 2


class TestThreshold:
    def test_normalized_kernel_feasible_at_one(self):
        rep = k_threshold(1.0, 0.1, 0.0, 0.0, S, normalized_fractional(S), c=2.0, n_per_region=8, seed=0)
        assert rep["k_star"] == 1.0
        assert rep["worst_residual"] <= 0.0

    def test_strong_kernel_needs_larger_k(self):
        # a kernel 200x stronger pushes the jump term past the core decay rate
        strong = FractionalLaplacian(c=200.0 / math.pi, s=S)
        rep = k_threshold(1.0, 0.1, 0.0, 0.0, S, strong, c=2.0, n_per_region=6, seed=0)
        assert rep["k_star"] > 1.0
        assert math.isfinite(rep["k_star"])
        # the threshold found by the earlier per-point residual loop
        assert rep["k_star"] == pytest.approx(1.8817948740835462, rel=1e-12)

    def test_no_feasible_k_below_k_max(self, monkeypatch):
        # infeasible at k = 1, and the doubling stops before k = 2
        monkeypatch.setattr(aronson, "_K_MAX", 1.5)
        strong = FractionalLaplacian(c=200.0 / math.pi, s=S)
        with pytest.raises(RuntimeError, match="no feasible k below 1.5; worst residual"):
            k_threshold(1.0, 0.1, 0.0, 0.0, S, strong, c=2.0, n_per_region=6, seed=0)


class TestEnergy:
    def test_kinetic_constant_nonnegative(self, solver_run):
        traj, _ = solver_run
        p = BarrierParams(rho=1.0, k=1.0, tau0=0.2, sigma=0.45, y0=0.0, w0=0.0, s=S)
        rep = aronson_energy_check(traj, p)
        assert rep["variant"] == "kinetic"
        assert rep["constant"] >= 0.0
        assert rep["H_sup"] > 0.0
        # decreasing weighted energy: the decay inequality holds with a small constant
        assert rep["sup_weighted"] <= rep["initial_weighted"] + rep["constant"] * rep["norm_term"] + 1e-12

    def test_window_must_intersect(self, solver_run):
        traj, _ = solver_run
        p = BarrierParams(rho=1.0, k=1.0, tau0=5.0, sigma=5.2, y0=0.0, w0=0.0, s=S)
        with pytest.raises(ValueError):
            aronson_energy_check(traj, p)

    def test_sparse_slices_pair_with_their_times(self, frac_kernel):
        # slices kept every 3 steps read as the every-step run cut down to them
        grid = PhaseGrid(nt=1, nx=32, nv=32, x_period=8.0, v_extent=8.0)
        f0 = mollified_delta(grid, S)
        every = solve(frac_kernel, f0, grid, SolverConfig(dt=0.02, steps=10, scheme="cn"))
        sparse = solve(frac_kernel, f0, grid, SolverConfig(dt=0.02, steps=10, scheme="cn", save_every=3))
        steps = [0, 3, 6, 9, 10]
        cut = dataclasses.replace(every, slices=[every.slices[n] for n in steps],
                                  slice_times=[every.slice_times[n] for n in steps])
        assert sparse.slice_times == cut.slice_times
        p = BarrierParams(rho=1.0, k=1.0, tau0=0.0, sigma=0.2, y0=0.0, w0=0.0, s=S)
        assert aronson_energy_check(sparse, p) == aronson_energy_check(cut, p)


class TestEnvelopes:
    def test_nash_on_diagonal_time_independent(self, tab256):
        rep = decay_envelope_check(tab256, "NashOnDiag")
        assert rep.extra["variation"] < 1e-6
        assert rep.constant == pytest.approx(tab256.peak(), rel=1e-9)

    def test_upper_envelopes_bracket_table(self, tab256):
        for kind in ("UpperUnconditional", "UpperConditional"):
            rep = decay_envelope_check(tab256, kind)
            assert rep.constant > 0
            # the fitted constant makes the envelope a true upper bound on
            # the evaluation window by construction
            from kineticlab.aronson import _upper_envelope
            from kineticlab.harnack import _eval_window

            X, V, J = _eval_window(tab256)
            env = rep.constant * _upper_envelope(tab256, rep.extra["bracket_exponent"], X, V)
            ring = abs(tab256.meta["ringing"])
            pos = J > 10 * ring
            assert np.all(J[pos] <= env[pos] * (1 + 1e-9))

    def test_lower_exponential_under_table(self, tab256):
        rep = decay_envelope_check(tab256, "LowerExponential")
        ex = rep.extra
        t, s = tab256.t, tab256.s
        X, V = np.meshgrid(np.linspace(-2, 2, 41), np.linspace(-4, 4, 41), indexing="ij")
        J = tab256.sample(X.ravel(), V.ravel()).reshape(X.shape)
        g = np.abs(X) ** (2 * s) / t ** (1 + 2 * s) + np.abs(V) ** (2 * s) / t
        env = ex["C1"] * t ** -3.0 * np.exp(-ex["C2"] * g)
        ring = abs(tab256.meta["ringing"])
        pos = J > 10 * ring
        # fitted on a fixed lattice; allow slack between fit nodes
        assert np.all(env[pos] <= J[pos] * 1.05)

    def test_unknown_kind(self, tab256):
        with pytest.raises(ValueError):
            decay_envelope_check(tab256, "Sideways")
