"""Exponential barrier, its supersolution inequality, and decay envelopes.

The barrier is the explicit weight

    H(t, x, v) = exp(-m(t, x, v) * log(rho^{2s} / (k delta(t)))),
    m = max{1, (1/(3 rho)) max(|v - w0|, |x - y0 - (sigma + t - 2 tau0) w0|^{1/(1+2s)})},
    delta(t) = 2 (sigma - tau0) - (t - tau0),

which for large enough ``k`` satisfies

    TH + c int_{B_rho(v)} (sqrt(H)(v) - sqrt(H)(w))^2 [K(v,w) + K(w,v)] dw <= 0,

where ``T = d/dt + v d/dx`` is the transport derivative, with one
position and one velocity dimension.  The module
measures this residual pointwise (analytic branch-wise transport term,
piecewise Gauss-Legendre quadrature for the jump term), finds the
threshold ``k*`` by bisection, checks the kinetic weighted energy
decay, and fits the polynomial / exponential decay envelopes of the
fundamental solution.

``barrier_residual`` and ``barrier_residual_parts`` take one phase point
``z = (t, x, v)`` (a tuple, a list or a 1-D array) and return Python
scalars, or an ``(N, 3)`` array of points and return arrays.  A batch runs
through ``_state``, ``_transport_term`` and ``_jump_quadratic``.  One point
runs through ``_point_parts``, one straight line on Python floats that
computes only its active branch and calls numpy only for ``np.power``,
``np.log`` and ``np.exp`` (the same loops on a float as on an array) and
for the quadrature of a live ball, so its residual is the batch's, bit for
bit.  Both share ``_segment_sums``, where the owning points' ``t, x, v``
(floats, or a batch's ``(M, 1)`` columns) broadcast against the node block
and a ``symmetric`` kernel is evaluated once.  Every point must have finite
coordinates and ``t`` in ``[tau0, sigma]``.  The jump term integrates only
what can contribute: a ball where the barrier is flat costs no kernel
evaluation, nor does a segment on which the integrand is identically 0.0
(``_jump_quadratic``).

``region_samples`` draws its attempts in blocks from the caller's
generator and leaves the points and the generator's full state as one
``Generator.uniform`` per draw and one ``Generator.choice`` per sign leave
them.  This rests on three facts of numpy's PCG64 stream:
``Generator.random()`` is ``(next_uint64 >> 11) 2^-53``; ``integers(0, 2)``
is bit 31 of ``next_uint32``; and ``next_uint32`` serves the low half of a
64-bit output, then its buffered high half.  So an attempt's ``k`` doubles
and two signs are one row of ``rng.random((n, k + 1))``, the signs being
bits 20 and 52 of the 53-bit integer that the row's last double carries.
A block is mapped and classified as arrays: the uniform maps, the signs,
``v``, ``x`` and the region index, which ``barrier_region`` gives for one
point and for an ``(N, 3)`` array alike.  Only the powers ``Xr^{1+2s}``
and the spatial root run per element, as Python float ``**`` (the C
library ``pow``; numpy's vectorized ``pow`` may differ in the last bit).
The points and the state do not depend on the block size, so
``_SAMPLE_BLOCK`` only bounds a block's memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fundsol import FundamentalSolutionTable, peak_decay_exponent
from .harnack import _eval_window, lower_bound_check
from .kernels import KernelSpec, gauss_legendre
from .solver import Trajectory

__all__ = [
    "BarrierParams",
    "barrier_eval",
    "barrier_values",
    "barrier_region",
    "barrier_residual",
    "barrier_residual_parts",
    "k_threshold",
    "region_samples",
    "aronson_energy_check",
    "decay_envelope_check",
]


@dataclass(frozen=True)
class BarrierParams:
    """Parameters of the barrier; requires ``sigma - tau0 <= rho^{2s}/(4k)``."""

    rho: float
    k: float
    tau0: float
    sigma: float
    y0: float
    w0: float
    s: float

    def __post_init__(self):
        if not all(math.isfinite(f) for f in (self.rho, self.k, self.tau0, self.sigma, self.y0, self.w0, self.s)):
            raise ValueError("rho, k, tau0, sigma, y0, w0 and s must be finite")
        self.check_scale(self.rho, self.k)
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        if not self.tau0 < self.sigma:
            raise ValueError("need tau0 < sigma")
        if self.sigma - self.tau0 > self.rho ** (2 * self.s) / (4 * self.k) * (1 + 1e-12):
            raise ValueError("need sigma - tau0 <= rho^{2s}/(4k)")

    @staticmethod
    def check_scale(rho, k):
        """The rules of ``rho`` and ``k``; a caller deriving ``sigma`` from
        them checks these first."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        if k < 1:
            raise ValueError("k must be at least 1")


_TINY = float(np.finfo(float).tiny)
_TIE_RTOL = 1e-7
_K_MAX = 2.0**24


def _state(p: BarrierParams, t, x, v):
    """Per-point quantities shared by the barrier, its transport term and
    its jump term: ``(u, |u|, gv, gx, delta, L)``.

    ``u = x - y0 - (sigma + t - 2 tau0) w0`` is the spatial offset, ``gv``
    and ``gx`` are the velocity and spatial branch arguments of ``m`` (so
    ``m = max(1, gv, gx)``), and ``L = log(rho^{2s} / (k delta(t)))``
    with ``delta(t) = 2 (sigma - tau0) - (t - tau0)``.  ``t, x, v`` are
    float arrays, or one point's floats (``gx`` and ``L`` then come back
    as numpy scalars).
    """
    u = x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0
    absu = abs(u)
    gv = abs(v - p.w0) / (3 * p.rho)
    gx = np.power(absu, 1.0 / (1 + 2 * p.s)) / (3 * p.rho)
    delta = 2.0 * (p.sigma - p.tau0) - (t - p.tau0)
    L = np.log(p.rho ** (2 * p.s) / (p.k * delta))
    return u, absu, gv, gx, delta, L


def _check_points(p: BarrierParams, t, x, v):
    """Raise ``ValueError`` unless every coordinate is finite and every
    ``t`` lies in ``[tau0, sigma]`` (to 1e-12).  The comparisons are
    written so that NaN fails them."""
    if not ((abs(t) < math.inf) & (abs(x) < math.inf) & (abs(v) < math.inf)).all():
        raise ValueError("phase point coordinates must be finite")
    if not ((t >= p.tau0 - 1e-12) & (t <= p.sigma + 1e-12)).all():
        raise ValueError("time outside [tau0, sigma]")


def barrier_values(p: BarrierParams, t, x, v):
    """Vectorized barrier evaluation; coordinates must be finite and ``t``
    must lie in [tau0, sigma]."""
    t, x, v = (np.asarray(q, dtype=float) for q in (t, x, v))
    _check_points(p, t, x, v)
    _, _, gv, gx, _, L = _state(p, t, x, v)
    return np.exp(-np.maximum(1.0, np.maximum(gv, gx)) * L)


def barrier_eval(p: BarrierParams, z) -> float:
    """Scalar barrier value at a phase point ``z = (t, x, v)``."""
    t, x, v = float(z[0]), float(z[1]), float(z[2])
    return float(barrier_values(p, t, x, v))


def barrier_region(p: BarrierParams, z):
    """Case index 1..6 of the barrier's region decomposition: an int for one
    phase point ``z = (t, x, v)``, an int array for an ``(N, 3)`` array.

    Thresholds are ``2 rho, 3 rho`` for the velocity distance and
    ``3 rho`` (and the velocity distance) for the spatial root; ties go
    to the lower-index case.
    """
    t, x, v, one = _as_points(z)
    rho, r = p.rho, 1.0 / (1 + 2 * p.s)
    dv = abs(v - p.w0)
    X = abs(x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0)
    # on Python floats: the C library pow a numpy float scalar's ``**`` calls
    X = X**r if one else np.array([q**r for q in X.tolist()])
    # the velocity band 0, 1 or 2 (``* 1``: numpy adds bools as ``or``), then
    # the even case of the band where the spatial root is the larger
    band = (dv > 2 * rho) * 1 + (dv > 3 * rho) * 1
    return 1 + 2 * band + ((X > 3 * rho) & ((dv <= 3 * rho) | (X > dv)))


def _transport_term(p: BarrierParams, state, v):
    """Analytic transport derivative ``TH`` of the active branch, per point,
    from the points' ``_state``: every branch is computed and the active
    one selected.

    Returns ``(TH, tie)`` where ``tie`` marks points within relative
    distance ``_TIE_RTOL`` of a branch kink (there the derivative is
    one-sided; a caller may fall back to finite differences).
    """
    u, absu, gv, gx, delta, L = state
    top = np.maximum(gv, gx)
    core, velocity = top <= 1.0, gv >= gx
    H = np.exp(-np.maximum(1.0, top) * L)
    TH = np.where(core, -p.k / p.rho ** (2 * p.s), -H * gv / delta)
    # transport derivative of u along (d/dt + v d/dx) is (v - w0); the
    # spatial branch is only selected where gx > 1, so u != 0 there and
    # u / clamp is sign(u); the clamp only keeps the unselected root finite
    # at u = 0
    clamp = np.maximum(absu, _TINY)
    root = np.power(clamp, -2 * p.s / (1 + 2 * p.s))
    dm = (1.0 / (3 * p.rho * (1 + 2 * p.s))) * root * (u / clamp) * (v - p.w0)
    TH = np.where(core | velocity, TH, -H * (gx / delta + L * dm))

    # a kink only matters where the active branch could switch: at the
    # core boundary, or between the two growing branches
    tie = (abs(top - 1.0) <= _TIE_RTOL) | ((top > 1.0) & (abs(gv - gx) <= _TIE_RTOL * top))
    return TH, tie


def _as_points(z):
    """``(t, x, v, one)`` from one phase point (a tuple, list or 1-D array
    of three numbers; Python floats come back) or an ``(N, 3)`` array
    (column views)."""
    if isinstance(z, (tuple, list)) and len(z) == 3:
        t, x, v = z
        # np.float64 is a float; other numbers take the np.asarray path
        if isinstance(t, (float, int)) and isinstance(x, (float, int)) and isinstance(v, (float, int)):
            return float(t), float(x), float(v), True
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (3,) or z.ndim > 2:
        raise ValueError("phase points must have shape (3,) or (N, 3)")
    t, x, v = z.T
    return (float(t), float(x), float(v), True) if z.ndim == 1 else (t, x, v, False)


# Gauss-Legendre nodes per segment of ``_jump_quadratic``, and points per
# block: a block holds a few arrays of at most 7 * _QUAD_N nodes per point,
# so blocking bounds the memory of a large batch (at most about 10 MB).
_QUAD_N = 24
_JUMP_BLOCK = 1024


def _jump_quadratic(p: BarrierParams, kspec: KernelSpec, t, x, v, gv, gx, L):
    """``int_{B_rho(v)} (sqrt(H)(v) - sqrt(H)(w))^2 [K(v,w)+K(w,v)] dw`` per
    point, by piecewise Gauss-Legendre with breakpoints at the branch kinks;
    ``gv``, ``gx`` and ``L`` are the points' branch arguments and log factor.

    Flat-ball rule: every node ``w`` lies in ``[v - rho, v + rho]``, so
    ``|w - w0|/(3 rho) <= reach = (|v - w0| + rho)/(3 rho)``.  Where
    ``reach < max(1, gx)`` the multiplier is ``max(1, gx)`` at every node
    and at ``v``, each factor ``(sqrt(H)(v) - sqrt(H)(w))^2`` is exactly
    0.0, and so is the integral; such points get 0 without evaluating the
    kernel.  The quadrature runs on the rest, ``reach >= max(1, gx)`` less a
    1e-12 relative margin for the rounding of the node positions.

    Segment rule: a live point has seven segments (breakpoints clipped to
    the ball), and only those that can contribute are integrated.  A
    segment adds exactly 0.0 when it is narrower than 1e-14 (its weights
    are zero) or when ``v`` and all its nodes lie in the flat zone
    ``|w - w0|/(3 rho) <= max(1, gx)`` (``_flat_segment``).  The segment
    sums are scattered back into seven slots per point, zeros elsewhere,
    and summed as the full quadrature sums them; adding 0.0 changes no sum,
    so each value is bit for bit that of integrating all seven segments.

    Live points are integrated in blocks of ``_JUMP_BLOCK``; each point's
    value does not depend on the blocking or on the other points.
    """
    reach = (abs(v - p.w0) + p.rho) / (3 * p.rho)
    live = np.flatnonzero(reach >= np.maximum(1.0, gx) * (1 - 1e-12))
    I = np.zeros(len(v))
    for i in range(0, len(live), _JUMP_BLOCK):
        b = live[i : i + _JUMP_BLOCK]
        I[b] = _jump_block(p, kspec, t[b], x[b], v[b], gv[b], gx[b], L[b])
    return I


@lru_cache(maxsize=None)
def _end_nodes():
    """The first and last Gauss-Legendre abscissae, as Python floats."""
    nodes, _ = gauss_legendre(_QUAD_N)
    return float(nodes[0]), float(nodes[-1])


def _flat_segment(p: BarrierParams, half, mid, mX, ends):
    """Whether every node ``half * x_i + mid`` of a segment has multiplier
    ``mX``, i.e. ``|w - w0|/(3 rho) <= mX``, elementwise.  ``ends`` are the
    first and last abscissae ``x_i`` (``_end_nodes``).

    The nodes are monotone in the abscissa ``x_i`` after rounding too, and
    ``|w - w0|`` is convex, so the two end nodes, computed as every node
    is, bound the multiplier of every node.
    """
    first, last = ends
    return (abs(half * first + mid - p.w0) / (3 * p.rho) <= mX) & (abs(half * last + mid - p.w0) / (3 * p.rho) <= mX)


def _jump_block(p: BarrierParams, kspec: KernelSpec, t, x, v, gv, gx, L):
    """``_jump_quadratic`` on one block of live points.

    The eight candidate breakpoints are clipped to ``[v - rho, v + rho]``
    and sorted, so every point has seven segments; the ones that can
    contribute are integrated, the others hold 0.0.
    """
    rho = p.rho
    mX = np.maximum(1.0, gx)
    lo, hi = v - rho, v + rho
    brk = np.empty((len(v), 8))
    brk[:, :3] = p.w0, p.w0 - 2 * rho, p.w0 + 2 * rho
    brk[:, 3], brk[:, 4], brk[:, 5] = lo, hi, v
    brk[:, 6], brk[:, 7] = p.w0 - 3 * rho * mX, p.w0 + 3 * rho * mX
    np.clip(brk, lo[:, None], hi[:, None], out=brk)
    brk.sort(axis=1)
    a, b = brk[:, :-1], brk[:, 1:]  # (N, 7)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    flat = (gv <= mX)[:, None] & _flat_segment(p, half, mid, mX[:, None], _end_nodes())
    i, j = np.nonzero((b - a >= 1e-14) & ~flat)
    sums = np.zeros(a.shape)
    # sqrt(H)(v): multiplier max(1, gv, gx) = max(gv, mX)
    owner = (q[i, None] for q in (t, x, v, np.exp(-0.5 * np.maximum(gv, mX) * L), mX, L))
    sums[i, j] = _segment_sums(p, kspec, *owner, half[i, j, None], mid[i, j, None])
    return sums.sum(axis=1)


def _segment_sums(p: BarrierParams, kspec: KernelSpec, t, x, v, sqrtH_v, mX, L, half, mid, clear=False):
    """Gauss-Legendre sums of the jump integrand over segments with nodes
    ``w = half * x_i + mid`` (``half, mid`` of shape ``(M, 1)``), one per row.

    ``t, x, v, sqrtH_v = sqrt(H)(v), L`` and ``mX = max(1, gx)`` are the
    owning points' values, ``(M, 1)`` columns, or one point's floats; they
    broadcast against the ``(M, _QUAD_N)`` node block, and so does the
    kernel, which sees them and ``w`` as they are.  Nodes within 1e-12 of
    ``v`` get zero weight; ``clear`` says that no node is, and skips the
    test.

    sqrt(H)(w), the squared difference from sqrt(H)(v), the kernel factor
    and the weights are applied in one buffer, each element in the order
    of ``(sqrtH_v - sqrtH_w) ** 2 * (K(v, w) + K(w, v)) * weight``.  A
    ``symmetric`` kernel is evaluated once and added to itself, which is
    ``K(v, w) + K(w, v)`` bit for bit.
    """
    nodes, weights = gauss_legendre(_QUAD_N)
    w = half * nodes + mid  # (M, _QUAD_N)
    ww = half * weights
    if not clear:
        keep = abs(w - v) > 1e-12
        if not keep.all():
            # dropped nodes get no weight and are moved off the diagonal so
            # the kernel stays finite
            ww = np.where(keep, ww, 0.0)
            w = np.where(keep, w, v + p.rho)
    # sqrt(H)(w), multiplier max(1, |w - w0|/(3 rho), gx) = max(|w - w0|/(3 rho), mX)
    buf = np.subtract(w, p.w0)
    np.abs(buf, out=buf)
    buf /= 3 * p.rho
    np.maximum(buf, mX, out=buf)
    buf *= -0.5 * L  # the scaling by -0.5 is exact, so this is (buf * -0.5) * L
    np.exp(buf, out=buf)
    np.subtract(sqrtH_v, buf, out=buf)
    np.square(buf, out=buf)
    K = np.asarray(kspec._eval(t, x, v, w), dtype=float)
    buf *= K + (K if kspec.symmetric else np.asarray(kspec._eval(t, x, w, v), dtype=float))
    buf *= ww
    return buf.sum(axis=1)


def _point_parts(p: BarrierParams, kspec: KernelSpec, t, x, v):
    """``(TH, I, tie)`` at one phase point: ``_transport_term`` and
    ``_jump_quadratic`` in one straight line on Python floats, computing
    only the active branch and, at a live point, one ``(S, 24)`` node block
    for its ``S`` contributing segments.  The breakpoints come from Python
    comparisons and ``sorted``, which give those of the array clip and sort.
    """
    if not (abs(t) < math.inf and abs(x) < math.inf and abs(v) < math.inf):
        raise ValueError("phase point coordinates must be finite")
    if not p.tau0 - 1e-12 <= t <= p.sigma + 1e-12:
        raise ValueError("time outside [tau0, sigma]")
    rho, s, w0 = p.rho, p.s, p.w0
    u, absu, gv, gx, delta, L = _state(p, t, x, v)
    gx, L = float(gx), float(L)
    top, mX = max(gv, gx), max(1.0, gx)
    if top <= 1.0:
        TH = -p.k / rho ** (2 * s)
    elif gv >= gx:
        TH = -float(np.exp(-top * L)) * gv / delta
    else:
        # the batch's clamp: u != 0 where gx > 1, and u / clamp is sign(u)
        clamp = max(absu, _TINY)
        dm = (1.0 / (3 * rho * (1 + 2 * s))) * float(np.power(clamp, -2 * s / (1 + 2 * s))) * (u / clamp) * (v - w0)
        TH = -float(np.exp(-top * L)) * (gx / delta + L * dm)
    tie = abs(top - 1.0) <= _TIE_RTOL or (top > 1.0 and abs(gv - gx) <= _TIE_RTOL * top)

    if (abs(v - w0) + rho) / (3 * rho) < mX * (1 - 1e-12):
        return TH, 0.0, tie  # flat ball
    lo, hi = v - rho, v + rho
    # lo, v and hi lie in the ball already; the others are clipped to it
    outer = (w0, w0 - 2 * rho, w0 + 2 * rho, w0 - 3 * rho * mX, w0 + 3 * rho * mX)
    brk = sorted([lo, hi, v] + [lo if q < lo else hi if q > hi else q for q in outer])
    first, last = _end_nodes()
    rho3, v_flat, segs, clear = 3 * rho, gv <= mX, [], True
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a < 1e-14:
            continue
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        # the end nodes, computed as every node is: the rounded nodes are
        # monotone in the abscissa, so they bound the segment's multipliers
        # (_flat_segment) and its distances from v, which is a breakpoint
        # outside every open segment; False in ``clear`` means an end node
        # lies within 1e-12 of v, and _segment_sums tests node by node
        w_first, w_last = half * first + mid, half * last + mid
        if v_flat and abs(w_first - w0) / rho3 <= mX and abs(w_last - w0) / rho3 <= mX:
            continue
        segs.append((half, mid))
        clear = clear and (w_first - v > 1e-12 or v - w_last > 1e-12)
    if not segs:
        return TH, 0.0, tie
    hm = np.array(segs)  # rows (half, mid); hm[:, :1] and hm[:, 1:] are (S, 1)
    sqrtH_v = np.exp(-0.5 * max(gv, mX) * L)
    I, *rest = _segment_sums(p, kspec, t, x, v, sqrtH_v, mX, L, hm[:, :1], hm[:, 1:], clear=clear).tolist()
    # added in order, as numpy adds fewer than eight values and so the
    # batch's seven slots, whose others hold 0.0
    for q in rest:
        I += q
    return TH, I, tie


def barrier_residual_parts(p: BarrierParams, kspec: KernelSpec, z):
    """Return ``(TH, I, tie)`` so that the residual is ``TH + c I``.

    ``z`` is one phase point ``(t, x, v)`` (floats and a bool come back)
    or an ``(N, 3)`` array of points (arrays come back).  Raises
    ``ValueError`` unless every coordinate is finite and every time lies
    in ``[tau0, sigma]``.
    """
    t, x, v, one = _as_points(z)
    if one:
        return _point_parts(p, kspec, t, x, v)
    _check_points(p, t, x, v)
    state = _state(p, t, x, v)
    _, _, gv, gx, _, L = state
    TH, tie = _transport_term(p, state, v)
    return TH, _jump_quadratic(p, kspec, t, x, v, gv, gx, L), tie


def barrier_residual(p: BarrierParams, kspec: KernelSpec, z, c: float = 2.0):
    """Supersolution residual; nonpositive residuals certify the barrier.

    A float for one phase point ``z = (t, x, v)``, an array of length N
    for an ``(N, 3)`` array of points.  Raises ``ValueError`` unless every
    coordinate is finite and every time lies in ``[tau0, sigma]``.
    """
    TH, I, tie = barrier_residual_parts(p, kspec, z)
    one = type(tie) is bool
    if (tie if one else tie.any()):
        # one-sided derivative at a kink: fall back to a flow-aligned
        # finite difference of H
        t, x, v, _ = _as_points(z)
        h = 1e-7 * max(p.sigma - p.tau0, 1e-12)
        tp, tm = np.minimum(t + h, p.sigma), np.maximum(t - h, p.tau0)
        Hp = barrier_values(p, tp, x + (tp - t) * v, v)
        Hm = barrier_values(p, tm, x + (tm - t) * v, v)
        TH = np.where(tie, (Hp - Hm) / (tp - tm), TH)
    res = TH + c * I
    return float(res) if one else res


# Attempts per block of ``region_samples``.  Points and generator state do
# not depend on it; it only bounds a block's arrays (about 1 MB).
_SAMPLE_BLOCK = 4096


def region_samples(p: BarrierParams, n_per_region: int, rng: np.random.Generator):
    """``n_per_region`` random points in each of the six case regions, in
    region order.

    An attempt draws ``t``, the spatial root ``Xr`` and the velocity
    distance ``dv`` uniformly over its region's ranges (region 6 then
    redraws ``Xr`` above ``1.01 dv``), then the signs of ``v - w0`` and of
    the spatial offset; it is kept when ``barrier_region`` agrees.

    A block holds the attempts still wanted, as rows (module docstring);
    its last attempt draws with ``rng.random(k)`` and ``rng.integers(0, 2,
    size=2)``, so the buffered half (``uinteger``) ends as single draws
    leave it.  A rejected attempt is skipped in order and the next block
    covers the shortfall, so no block draws past the last attempt.  Another
    bit generator, or a PCG64 holding a buffered half, draws blocks of one.
    """
    rho, e = p.rho, 1 + 2 * p.s
    bits = rng.bit_generator
    blocks = type(bits) is np.random.PCG64 and not bits.state["has_uint32"]
    out = []
    for region in range(1, 7):
        X_lo, X_hi = (0.0, 2.9 * rho) if region in (1, 3, 5) else (3.1 * rho, 12.0 * rho)
        dv_lo, dv_hi = ((0.0, 1.9 * rho), (2.1 * rho, 2.9 * rho), (3.1 * rho, 12.0 * rho))[(region - 1) // 2]
        k = 4 if region == 6 else 3
        count = 0
        while count < n_per_region:
            n = min(n_per_region - count, _SAMPLE_BLOCK) if blocks else 1
            rows, last = rng.random((n - 1, k + 1)), rng.random(k)
            sv, sx = rng.integers(0, 2, size=2)
            # the last attempt as one more row: its signs as bits 20 and 52
            # of the 53-bit integer of its last double
            u = np.vstack((rows, [*last, (sv << 20 | sx << 52) * 2.0**-53])).T
            m = (u[k] * 2.0**53).astype(np.int64)
            # Generator.uniform's own formula, lo + (hi - lo) * random()
            t = p.tau0 + (p.sigma - p.tau0) * u[0]
            Xr = X_lo + (X_hi - X_lo) * u[1]
            dv = dv_lo + (dv_hi - dv_lo) * u[2]
            if region == 6:
                X_min = np.maximum(3.1 * rho, dv * 1.01)
                Xr = X_min + (14.0 * rho - X_min) * u[3]
            X = np.array([q**e for q in Xr.tolist()])  # libm pow, as barrier_region's root
            x = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0 + np.where(m >> 52, X, -X)
            z = np.column_stack((t, x, p.w0 + np.where(m >> 20 & 1, dv, -dv)))
            t, x, v = z[barrier_region(p, z) == region].T.tolist()
            out += zip(t, x, v)
            count += len(t)
    return out


def k_threshold(
    rho: float,
    tau0: float,
    y0: float,
    w0: float,
    s: float,
    kspec: KernelSpec,
    c: float = 2.0,
    n_per_region: int = 30,
    seed: int = 0,
) -> dict:
    """Smallest ``k >= 1`` making the residual nonpositive on a sample
    set covering all six regions, with ``sigma = tau0 + rho^{2s}/(4k)``.

    Feasibility is assumed monotone in ``k`` inside ``[1, _K_MAX]``
    (checked at the endpoints); bisection to relative tolerance 1e-3.
    """
    BarrierParams.check_scale(rho, 1.0)  # before sigma is derived from rho

    def feasible(k: float):
        p = BarrierParams(rho=rho, k=k, tau0=tau0, sigma=tau0 + rho ** (2 * s) / (4 * k), y0=y0, w0=w0, s=s)
        zs = region_samples(p, n_per_region, np.random.default_rng(seed))
        res = barrier_residual(p, kspec, np.asarray(zs), c)
        i = int(np.argmax(res))
        return bool(res[i] <= 0.0), res[i], zs[i]

    lo = 1.0
    ok, res, z = feasible(lo)
    if ok:
        return {"k_star": 1.0, "worst_residual": res, "worst_sample": z, "c": c}
    hi = 2.0
    while hi <= _K_MAX:
        ok, res, z = feasible(hi)
        if ok:
            break
        hi *= 2.0
    else:
        # res and z are those of the largest k tried
        raise RuntimeError(f"no feasible k below {_K_MAX}; worst residual {res} at {z}")
    while hi / lo > 1 + 1e-3:
        mid = math.sqrt(lo * hi)
        ok, _, _ = feasible(mid)
        if ok:
            hi = mid
        else:
            lo = mid
    _, res, z = feasible(hi)
    return {"k_star": hi, "worst_residual": res, "worst_sample": z, "c": c}


def aronson_energy_check(traj: Trajectory, p: BarrierParams) -> dict:
    """Implied constant ``C`` of the kinetic weighted energy decay

        sup_t int f^2 H <= int f^2(tau0) H(tau0) + C rho^{-2s} |H|_inf |f|^2_{L^2(t,x,v)}

    over the saved slices in ``[tau0, sigma]``.
    """
    g = traj.grid
    if not any(p.tau0 <= t <= p.sigma for t in traj.times):
        raise ValueError("trajectory times do not intersect [tau0, sigma]")
    keep = [(f, t) for f, t in zip(traj.slices, traj.slice_times) if p.tau0 <= t <= p.sigma]
    if len(keep) < 2:
        raise ValueError("need at least two saved slices inside [tau0, sigma]")
    X, V = np.meshgrid(g.x_axis, g.v_axis, indexing="ij")
    weighted = []
    H_sup = 0.0
    l2_time = 0.0
    dt_slices = np.diff([t for _, t in keep])
    for j, (f, t) in enumerate(keep):
        H = barrier_values(p, t, X, V)
        H_sup = max(H_sup, float(H.max()))
        weighted.append(float((f * f * H).sum() * g.dx * g.dv))
        if j < len(dt_slices):
            l2_time += float((f * f).sum() * g.dx * g.dv) * dt_slices[j]
    gain = max(weighted) - weighted[0]
    denom = p.rho ** (-2 * p.s) * H_sup * l2_time
    C = gain / denom if denom > 0 else 0.0
    return {
        "variant": "kinetic",
        "constant": max(C, 0.0),
        "initial_weighted": weighted[0],
        "sup_weighted": max(weighted),
        "H_sup": H_sup,
        "norm_term": denom,
    }


def _upper_envelope(tab: FundamentalSolutionTable, exponent: float, X, V):
    """``t^{-beta} [1 + max(|v|^{2s}, |x - t v|^{2s/(1+2s)}) / t]^{exponent}``
    (base point at the origin)."""
    s, t = tab.s, tab.t
    arg = np.maximum(np.abs(V) ** (2 * s), np.abs(X - t * V) ** (2 * s / (1 + 2 * s)))
    beta = peak_decay_exponent(s)
    return t**-beta * (1.0 + arg / t) ** exponent


def decay_envelope_check(tab: FundamentalSolutionTable, kind: str) -> dict:
    """Fit the envelope constant of the requested kind on the table.

    ``NashOnDiag`` reads ``t^beta J(t, 0, 0)`` at eight times spaced
    geometrically over ``[t/10, t]``; the upper kinds divide by
    ``_upper_envelope`` with the bracket exponent of the kind.  The report's
    ``d`` names the velocity dimension, which is 1.
    """
    s = tab.s
    if kind == "NashOnDiag":
        ts = np.geomspace(tab.t / 10.0, tab.t, 8)
        vals = tab.sample(0.0, 0.0, t=ts) * ts ** peak_decay_exponent(s)
        constant = float(vals.max())
        extra = {"variation": float(vals.max() - vals.min()), "times": ts.tolist()}
    elif kind in ("UpperUnconditional", "UpperConditional"):
        bracket_exponent = -0.25 if kind == "UpperUnconditional" else -(2 * (1 + s) + 2 * s) / (2 * s)
        X, V, J, pos = _eval_window(tab)
        env = _upper_envelope(tab, bracket_exponent, X, V)
        constant = float(np.max(J[pos] / env[pos]))
        extra = {"bracket_exponent": bracket_exponent, "excluded_nodes": int((~pos).sum())}
    elif kind == "LowerExponential":
        extra = lower_bound_check(tab)
        constant = extra["C1"]
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")
    return {"kind": kind, "s": s, "d": 1, "constant": constant, "extra": extra}
