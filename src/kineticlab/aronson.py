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
scalars, or an ``(N, 3)`` array of points and return arrays; both go
through the same functions.  Each point's state (spatial offset, branch
arguments, ``delta``, log factor) is computed once and shared by the
transport and jump terms.  One point runs on Python floats: plain
arithmetic, comparisons, ``abs`` and the builtin ``max``, and it computes
only its active branch (the core needs neither ``exp`` nor the transport
root, the velocity branch no root).  Numpy is called there only for
``np.power``, ``np.log`` and ``np.exp``, which run the same loops on a
float as on an array, so a point's residual is bit-identical alone and in
a batch.  Every point must have finite coordinates and ``t`` in
``[tau0, sigma]``.

The jump term integrates only what can contribute.  It skips points where
the barrier is flat on the ball: if ``(|v - w0| + rho)/(3 rho) < max(1, gx)``,
with ``gx`` the spatial branch argument, then ``m = max(1, gx)`` at ``v``
and at every velocity of ``B_rho(v)``, so the integrand, and the integral,
is exactly 0.0.  Every other point has seven quadrature segments
(breakpoints clipped to the ball), and of these it integrates only the
ones whose integrand is not identically 0.0.  The others are segments
narrower than 1e-14, whose weights are zero, and, when ``v`` lies in the
flat zone ``|v - w0|/(3 rho) <= max(1, gx)``, segments whose nodes all lie
in it too: there ``m = max(1, gx)`` at ``v`` and at every node.  The sums
of the integrated segments go back into their seven slots, 0.0 elsewhere,
and are summed as before, so each point's integral is bit for bit that of
all seven segments.  Kernels see flattened 1-D ``t, x, v, w`` node arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "DecayEnvelope",
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
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        if not self.tau0 < self.sigma:
            raise ValueError("need tau0 < sigma")
        if self.sigma - self.tau0 > self.rho ** (2 * self.s) / (4 * self.k) * (1 + 1e-12):
            raise ValueError("need sigma - tau0 <= rho^{2s}/(4k)")


_TINY = float(np.finfo(float).tiny)
_TIE_RTOL = 1e-7
_K_MAX = 2.0**24


# One point runs on Python floats and arrays on numpy; these helpers take
# either, and give a float or a bool for one point.  The builtin max agrees
# with np.maximum on the finite values it gets.


def _ufunc(f, *args):
    """``f(*args)`` for a numpy ufunc ``f``; a Python float for one point.
    The ufunc runs the same loop on a float as on an array, so the value is
    the same bits; ``**`` and ``math`` call the C library, which can differ
    from numpy's loop in the last bit."""
    r = f(*args)
    return r if isinstance(r, np.ndarray) else float(r)


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def _all(cond):
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _where(cond, a, b):
    """``np.where`` for arrays; for one point (a bool), the chosen operand
    itself."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _state(p: BarrierParams, t, x, v):
    """Per-point quantities shared by the barrier, its transport term and
    its jump term: ``(u, |u|, gv, gx, delta, L)``.

    ``u = x - y0 - (sigma + t - 2 tau0) w0`` is the spatial offset, ``gv``
    and ``gx`` are the velocity and spatial branch arguments of ``m`` (so
    ``m = max(1, gv, gx)``), and ``L = log(rho^{2s} / (k delta(t)))``
    with ``delta(t) = 2 (sigma - tau0) - (t - tau0)``.  ``t, x, v`` are
    float arrays or one point's floats.
    """
    u = x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0
    absu = abs(u)
    gv = abs(v - p.w0) / (3 * p.rho)
    gx = _ufunc(np.power, absu, 1.0 / (1 + 2 * p.s)) / (3 * p.rho)
    delta = 2.0 * (p.sigma - p.tau0) - (t - p.tau0)
    L = _ufunc(np.log, p.rho ** (2 * p.s) / (p.k * delta))
    return u, absu, gv, gx, delta, L


def _check_points(p: BarrierParams, t, x, v):
    """Raise ``ValueError`` unless every coordinate is finite and every
    ``t`` lies in ``[tau0, sigma]`` (to 1e-12); on floats or arrays.  The
    comparisons are written so that NaN fails them."""
    if not _all((abs(t) < math.inf) & (abs(x) < math.inf) & (abs(v) < math.inf)):
        raise ValueError("phase point coordinates must be finite")
    if not _all((t >= p.tau0 - 1e-12) & (t <= p.sigma + 1e-12)):
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


def barrier_region(p: BarrierParams, z) -> int:
    """Case index 1..6 of the barrier's region decomposition.

    Thresholds are ``2 rho, 3 rho`` for the velocity distance and
    ``3 rho`` (and the velocity distance) for the spatial root; ties go
    to the lower-index case.
    """
    t, x, v = float(z[0]), float(z[1]), float(z[2])
    rho = p.rho
    dv = abs(v - p.w0)
    # on Python floats: the same C library pow a numpy float scalar's ``**`` calls
    X = abs(x - p.y0 - (p.sigma + t - 2 * p.tau0) * p.w0) ** (1.0 / (1 + 2 * p.s))
    if dv <= 2 * rho:
        return 1 if X <= 3 * rho else 2
    if dv <= 3 * rho:
        return 3 if X <= 3 * rho else 4
    if X <= 3 * rho or X <= dv:
        return 5
    return 6


def _transport_term(p: BarrierParams, state, v):
    """Analytic transport derivative ``TH`` of the active branch, per point,
    from the point's ``_state``.

    Returns ``(TH, tie)`` where ``tie`` marks points within relative
    distance ``_TIE_RTOL`` of a branch kink (there the derivative is
    one-sided; a caller may fall back to finite differences).  Arrays
    compute every branch and select; one point computes only its own, and
    its ``TH`` may be a numpy float scalar.
    """
    u, absu, gv, gx, delta, L = state
    one = not isinstance(gv, np.ndarray)
    maximum = max if one else np.maximum
    top = maximum(gv, gx)
    core, velocity = top <= 1.0, gv >= gx
    TH = -p.k / p.rho ** (2 * p.s)
    if not (one and core):
        H = np.exp(-maximum(1.0, top) * L)
        TH = _where(core, TH, -H * gv / delta)
        if not (one and velocity):
            # transport derivative of u along (d/dt + v d/dx) is (v - w0);
            # the spatial branch is only selected where gx > 1, so u != 0
            # there and u / clamp is sign(u); the clamp only keeps the
            # unselected root finite at u = 0
            clamp = maximum(absu, _TINY)
            root = np.power(clamp, -2 * p.s / (1 + 2 * p.s))
            dm = (1.0 / (3 * p.rho * (1 + 2 * p.s))) * root * (u / clamp) * (v - p.w0)
            TH = _where(core | velocity, TH, -H * (gx / delta + L * dm))

    # a kink only matters where the active branch could switch: at the
    # core boundary, or between the two growing branches
    tie = (abs(top - 1.0) <= _TIE_RTOL) | ((top > 1.0) & (abs(gv - gx) <= _TIE_RTOL * top))
    return TH, tie


def _as_points(p: BarrierParams, z):
    """``(t, x, v, single)`` from one phase point (a tuple, list or 1-D
    array of three numbers; Python floats come back) or an ``(N, 3)`` array
    (column views), after ``_check_points``."""
    single = z.shape == (3,) if isinstance(z, np.ndarray) else isinstance(z, (tuple, list)) and len(z) == 3
    if single:
        t, x, v = z
        # np.float64 is a float; other numbers take the np.asarray path
        single = isinstance(t, (float, int)) and isinstance(x, (float, int)) and isinstance(v, (float, int))
    if not single:
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (3,) or z.ndim > 2:
            raise ValueError("phase points must have shape (3,) or (N, 3)")
        single = z.ndim == 1
        t, x, v = z.T
    if single:
        t, x, v = float(t), float(x), float(v)
    _check_points(p, t, x, v)
    return t, x, v, single


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
    value does not depend on the blocking or on the other points.  One
    point (Python floats) gives a float; its breakpoints come from Python
    comparisons and ``sorted``, which give those of the array clip and
    sort.
    """
    reach = (abs(v - p.w0) + p.rho) / (3 * p.rho)
    live = reach >= _max(1.0, gx) * (1 - 1e-12)
    if not isinstance(live, np.ndarray):
        return _jump_point(p, kspec, t, x, v, gv, gx, L) if live else 0.0
    live = np.flatnonzero(live)
    I = np.zeros(len(v))
    for i in range(0, len(live), _JUMP_BLOCK):
        b = live[i : i + _JUMP_BLOCK]
        I[b] = _jump_block(p, kspec, t[b], x[b], v[b], gv[b], gx[b], L[b])
    return I


def _end_nodes():
    """The first and last Gauss-Legendre abscissae, as Python floats."""
    nodes, _ = gauss_legendre(_QUAD_N)
    return float(nodes[0]), float(nodes[-1])


def _flat_segment(p: BarrierParams, half, mid, mX, ends):
    """Whether every node ``half * x_i + mid`` of a segment has multiplier
    ``mX``, i.e. ``|w - w0|/(3 rho) <= mX``; on floats or elementwise.
    ``ends`` are the first and last abscissae ``x_i`` (``_end_nodes``).

    The nodes are monotone in the abscissa ``x_i`` after rounding too, and
    ``|w - w0|`` is convex, so the two end nodes, computed as every node
    is, bound the multiplier of every node.
    """
    first, last = ends
    return (abs(half * first + mid - p.w0) / (3 * p.rho) <= mX) & (abs(half * last + mid - p.w0) / (3 * p.rho) <= mX)


def _jump_point(p: BarrierParams, kspec: KernelSpec, t, x, v, gv, gx, L) -> float:
    """``_jump_quadratic`` at one live point (Python floats)."""
    rho, w0, mX = p.rho, p.w0, max(1.0, gx)
    lo, hi = v - rho, v + rho
    # lo, v and hi lie in the ball already; the others are clipped to it
    outer = (w0, w0 - 2 * rho, w0 + 2 * rho, w0 - 3 * rho * mX, w0 + 3 * rho * mX)
    brk = sorted([lo, hi, v] + [lo if q < lo else hi if q > hi else q for q in outer])
    v_flat, ends = gv <= mX, _end_nodes()
    cols, segs = [], []
    for j, (a, b) in enumerate(zip(brk[:-1], brk[1:])):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        if b - a >= 1e-14 and not (v_flat and _flat_segment(p, half, mid, mX, ends)):
            cols.append(j)
            segs.append((half, mid))
    sums = np.zeros(7)
    if cols:
        hm = np.array(segs)
        sums[cols] = _segment_sums(p, kspec, t, x, v, gv, mX, L, hm[:, :1], hm[:, 1:])
    return float(sums.sum())


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
    owner = (q[i, None] for q in (t, x, v, gv, mX, L))
    sums[i, j] = _segment_sums(p, kspec, *owner, half[i, j, None], mid[i, j, None])
    return sums.sum(axis=1)


def _segment_sums(p: BarrierParams, kspec: KernelSpec, t, x, v, gv, mX, L, half, mid):
    """Gauss-Legendre sums of the jump integrand over segments with nodes
    ``half * x_i + mid`` (``half, mid`` of shape ``(M, 1)``), one per row.

    ``t, x, v, gv, L`` and ``mX = max(1, gx)`` are the owning points' values,
    shape ``(M, 1)``, or one point's floats.  Nodes within 1e-12 of ``v``
    get zero weight.  Kernels see flattened 1-D ``t, x, v, w`` node arrays.
    """
    nodes, weights = gauss_legendre(_QUAD_N)
    w = half * nodes + mid  # (M, _QUAD_N)
    keep = abs(w - v) > 1e-12
    ww = half * weights
    if not keep.all():
        # dropped nodes get no weight and are moved off the diagonal so the
        # kernel stays finite
        ww = np.where(keep, ww, 0.0)
        w = np.where(keep, w, v + p.rho)
    # sqrt(H) with multiplier max(1, |vel - w0|/(3 rho), gx) = max(|vel - w0|/(3 rho), mX)
    sqrtH_v = np.exp(-0.5 * _max(gv, mX) * L)
    sqrtH_w = np.exp(-0.5 * np.maximum(abs(w - p.w0) / (3 * p.rho), mX) * L)
    # each owner's t, x and v at every node of its segment
    txv = np.empty((3,) + w.shape)
    txv[0], txv[1], txv[2] = t, x, v
    tt, xx, vv = txv.reshape(3, -1)
    wf = w.ravel()
    Ks = np.asarray(kspec._eval(tt, xx, vv, wf), dtype=float) + np.asarray(kspec._eval(tt, xx, wf, vv), dtype=float)
    return ((sqrtH_v - sqrtH_w) ** 2 * Ks.reshape(w.shape) * ww).sum(axis=1)


def barrier_residual_parts(p: BarrierParams, kspec: KernelSpec, z):
    """Return ``(TH, I, tie)`` so that the residual is ``TH + c I``.

    ``z`` is one phase point ``(t, x, v)`` (floats and a bool come back)
    or an ``(N, 3)`` array of points (arrays come back).  Raises
    ``ValueError`` unless every coordinate is finite and every time lies
    in ``[tau0, sigma]``.
    """
    t, x, v, single = _as_points(p, z)
    state = _state(p, t, x, v)
    _, _, gv, gx, _, L = state
    TH, tie = _transport_term(p, state, v)
    I = _jump_quadratic(p, kspec, t, x, v, gv, gx, L)
    if single:
        return float(TH), I, bool(tie)
    return TH, I, tie


def barrier_residual(p: BarrierParams, kspec: KernelSpec, z, c: float = 2.0):
    """Supersolution residual; nonpositive residuals certify the barrier.

    A float for one phase point ``z = (t, x, v)``, an array of length N
    for an ``(N, 3)`` array of points.  Raises ``ValueError`` unless every
    coordinate is finite and every time lies in ``[tau0, sigma]``.
    """
    t, x, v, single = _as_points(p, z)
    state = _state(p, t, x, v)
    _, _, gv, gx, _, L = state
    TH, tie = _transport_term(p, state, v)
    if _any(tie):
        # one-sided derivative at a kink: fall back to a flow-aligned
        # finite difference of H
        h = 1e-7 * max(p.sigma - p.tau0, 1e-12)
        tp, tm = np.minimum(t + h, p.sigma), np.maximum(t - h, p.tau0)
        Hp = barrier_values(p, tp, x + (tp - t) * v, v)
        Hm = barrier_values(p, tm, x + (tm - t) * v, v)
        TH = _where(tie, (Hp - Hm) / (tp - tm), TH)
    res = TH + c * _jump_quadratic(p, kspec, t, x, v, gv, gx, L)
    return float(res) if single else res


def region_samples(p: BarrierParams, n_per_region: int, rng: np.random.Generator):
    """Random sample points covering all six case regions."""
    rho = p.rho

    def uniform(lo, hi):
        # Generator.uniform's own formula on the same stream, without its overhead
        return lo + (hi - lo) * rng.random()

    out = []
    for region in range(1, 7):
        count = 0
        while count < n_per_region:
            t = uniform(p.tau0, p.sigma)
            if region in (1, 3, 5):
                Xr = uniform(0.0, 2.9 * rho)
            else:
                Xr = uniform(3.1 * rho, 12.0 * rho)
            if region in (1, 2):
                dv = uniform(0.0, 1.9 * rho)
            elif region in (3, 4):
                dv = uniform(2.1 * rho, 2.9 * rho)
            else:
                dv = uniform(3.1 * rho, 12.0 * rho)
            if region == 6:
                Xr = uniform(max(3.1 * rho, dv * 1.01), 14.0 * rho)
            # the draw Generator.choice([-1.0, 1.0]) makes, without its overhead
            v = p.w0 + (-1.0, 1.0)[rng.integers(0, 2)] * dv
            x = p.y0 + (p.sigma + t - 2 * p.tau0) * p.w0 + (-1.0, 1.0)[rng.integers(0, 2)] * Xr ** (1 + 2 * p.s)
            z = (t, x, v)
            if barrier_region(p, z) == region:
                out.append(z)
                count += 1
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
    rng = np.random.default_rng(seed)

    def residuals(k: float):
        p = BarrierParams(rho=rho, k=k, tau0=tau0, sigma=tau0 + rho ** (2 * s) / (4 * k), y0=y0, w0=w0, s=s)
        zs = region_samples(p, n_per_region, np.random.default_rng(seed))
        return barrier_residual(p, kspec, np.asarray(zs), c), zs

    def feasible(k: float):
        res, zs = residuals(k)
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


@dataclass
class DecayEnvelope:
    kind: str
    s: float
    constant: float
    extra: dict

    def as_dict(self) -> dict:
        # "d": the report format names the velocity dimension, which is 1
        return {"kind": self.kind, "s": self.s, "d": 1, "constant": self.constant, "extra": self.extra}


def _upper_envelope(tab: FundamentalSolutionTable, exponent: float, X, V):
    """``t^{-beta} [1 + max(|v|^{2s}, |x - t v|^{2s/(1+2s)}) / t]^{exponent}``
    (base point at the origin)."""
    s, t = tab.s, tab.t
    arg = np.maximum(np.abs(V) ** (2 * s), np.abs(X - t * V) ** (2 * s / (1 + 2 * s)))
    beta = peak_decay_exponent(s)
    return t**-beta * (1.0 + arg / t) ** exponent


def decay_envelope_check(tab: FundamentalSolutionTable, kind: str) -> DecayEnvelope:
    """Fit the envelope constant of the requested kind on the table.

    ``NashOnDiag`` reads ``t^beta J(t, 0, 0)`` at eight times spaced
    geometrically over ``[t/10, t]``; the upper kinds divide by
    ``_upper_envelope`` with the bracket exponent of the kind.
    """
    s = tab.s
    beta = peak_decay_exponent(s)
    ring = max(abs(tab.meta.get("ringing", 0.0)), 1e-300)
    if kind == "NashOnDiag":
        ts = np.geomspace(tab.t / 10.0, tab.t, 8)
        vals = tab.sample(0.0, 0.0, t=ts) * ts**beta
        return DecayEnvelope(
            kind=kind,
            s=s,
            constant=float(vals.max()),
            extra={"variation": float(vals.max() - vals.min()), "times": ts.tolist()},
        )
    if kind in ("UpperUnconditional", "UpperConditional"):
        bracket_exponent = -0.25 if kind == "UpperUnconditional" else -(2 * (1 + s) + 2 * s) / (2 * s)
        X, V, J = _eval_window(tab)
        env = _upper_envelope(tab, bracket_exponent, X, V)
        pos = J > 10.0 * ring
        C = float(np.max(J[pos] / env[pos]))
        return DecayEnvelope(
            kind=kind,
            s=s,
            constant=C,
            extra={"bracket_exponent": bracket_exponent, "excluded_nodes": int((~pos).sum())},
        )
    if kind == "LowerExponential":
        rep = lower_bound_check(tab)
        return DecayEnvelope(kind=kind, s=s, constant=rep["C1"], extra=rep)
    raise ValueError(f"unknown envelope kind {kind!r}")
