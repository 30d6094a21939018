"""Harnack-type measurements on kinetic fields.

Every routine measures an implied constant of one inequality — the
strong and weak Harnack ratios, the L1-to-Linf bound, the level-set
tail bound, the De Giorgi level sequence, Harnack chains, and the
exponential lower-bound sufficient condition, for the homogeneous
equation: the source bound ``h_sup`` the reports carry is 0.  Constants
are measured, never asserted against theoretical values; the meaningful
check is stability under refinement.  Each routine returns its report as
the plain dict the CLI writes; a ratio its notes flag is ``None``.

Fields are a :class:`~kineticlab.fields.PhaseField` or an
:class:`AnalyticField`, each read by its vectorized ``sample(t, x, v)``.
Every cylinder is a :class:`~kineticlab.geometry.KineticCylinder`
``Q_r(z)``; the detached past cylinder of a Harnack ratio is ``Q_rho``
at the point ``(5/2) r0^{2s} - (1/2) (r0/2)^{2s}`` back on the free flow
through ``z0``.  A measurement checks all its cylinders against the
field before it reads any, and reads each on its tensor midpoint nodes,
a broadcast lattice, so tiny cylinders are resolved by subcell sampling
rather than by the storage grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import PhaseField
from .fundsol import FundamentalSolutionTable, peak_decay_exponent
from .geometry import KineticCylinder, PhasePoint
from .kernels import KernelSpec

__all__ = [
    "AnalyticField",
    "fundamental_field",
    "strong_harnack_ratio",
    "weak_harnack_ratio",
    "l1_linf_ratio",
    "tail_bound_ratio",
    "degiorgi_trace",
    "harnack_chain",
    "lower_bound_check",
]


@dataclass(frozen=True)
class AnalyticField:
    """Field defined by a vectorized callable ``fn(t, x, v)``, read at the
    broadcast shape of its inputs.  An explicit solution started at
    ``t = -t_offset`` vanishes where ``t + t_offset <= 0``; a measurement
    reaching there is rejected."""

    fn: object
    t_offset: float = math.inf

    def sample(self, t, x, v):
        return np.broadcast_to(np.asarray(self.fn(t, x, v), dtype=float), np.broadcast(t, x, v).shape)


def fundamental_field(tab: FundamentalSolutionTable, t_offset: float = 1.0) -> AnalyticField:
    """The explicit fundamental solution as a global field, shifted so
    that evaluation times near 0 map to positive propagator times."""

    def fn(t, x, v):
        tt = np.asarray(t, dtype=float) + t_offset
        ok = (tt > 0) & (tt < np.inf)  # J vanishes as t -> inf
        return np.where(ok, tab.sample(x, v, t=np.where(ok, tt, 1.0)), 0.0)

    return AnalyticField(fn, t_offset)


def _check_resolution(f, cyl: KineticCylinder):
    """Fields must hold the cylinder in their domain; gridded fields must
    also resolve it by >= 4 cells per axis."""
    _check_domain(f, cyl)
    if not isinstance(f, PhaseField):
        return
    g = f.grid
    lo, hi = cyl.time_window()
    if g.nt > 1 and (hi - lo) < 4 * g.dt:
        raise ValueError("time axis does not resolve the cylinder (need >= 4 cells)")
    if 2 * cyl.x_radius < 4 * g.dx:
        raise ValueError("position axis does not resolve the cylinder (need >= 4 cells)")
    if 2 * cyl.r < 4 * g.dv:
        raise ValueError("velocity axis does not resolve the cylinder (need >= 4 cells)")


def _check_domain(f, cyl: KineticCylinder):
    """Gridded fields are read inside their saved domain only: beyond its
    times and velocity axis ``PhaseField.sample`` reads clamped edge values.
    An explicit field is read after its source only."""
    lo, hi = cyl.time_window()
    if not isinstance(f, PhaseField):
        if not lo + f.t_offset > 0:
            raise ValueError(
                f"t_offset = {f.t_offset} violates the rule t + t_offset > 0 over the cylinder's time window "
                f"[{lo:.6g}, {hi:.6g}]: the explicit field vanishes where t + t_offset <= 0")
        return
    g, c, r = f.grid, cyl.center, cyl.r
    if g.nt > 1 and not g.t0 <= lo <= hi <= g.t1:
        raise ValueError(f"cylinder time window [{lo:.6g}, {hi:.6g}] violates the rule t0 <= t <= t1 of the "
                         f"field saved on [{g.t0:.6g}, {g.t1:.6g}]")
    v_lo, v_hi = g.v_axis[[0, -1]]
    if not v_lo <= c.v - r <= c.v + r <= v_hi:
        raise ValueError(f"cylinder velocity ball [{c.v - r:.6g}, {c.v + r:.6g}] violates the rule "
                         f"v_axis[0] <= v <= v_axis[-1] of the field's velocity axis [{v_lo:.6g}, {v_hi:.6g}]")


def _read(f, nodes: int, *cyls: KineticCylinder) -> list:
    """Check every cylinder against the field, then read each on ``nodes``
    midpoint nodes per axis: one ``(values, w)`` pair per cylinder."""
    for cyl in cyls:
        _check_resolution(f, cyl)
    return [(f.sample(T, X, V), w) for T, X, V, w in (cyl.nodes(nodes, nodes, nodes) for cyl in cyls)]


def _past_cylinder(z0: PhasePoint, r0: float, rho: float, s: float) -> KineticCylinder:
    """``Q_rho`` centred ``(5/2) r0^{2s} - (1/2) (r0/2)^{2s}`` back on the
    free flow through ``z0``: the detached past cylinder of the Harnack
    ratios at ``r0`` (``rho = r0/4`` strong, ``r0/2`` weak)."""
    lag = 2.5 * r0 ** (2 * s) - 0.5 * (r0 / 2) ** (2 * s)
    x = z0.x - lag * z0.v
    if not math.isfinite(x):
        raise ValueError(f"past cylinder centre x0 - lag v0 = {x} violates the rule x0 - lag v0 finite, "
                         f"with lag = (5/2) r0^(2s) - (1/2) (r0/2)^(2s) = {lag:.6g}")
    return KineticCylinder(PhasePoint(z0.t - lag, x, z0.v), rho, s)


def strong_harnack_ratio(
    f,
    z0: PhasePoint,
    r0: float,
    s: float,
    nodes: int = 8,
) -> dict:
    """Supremum over the detached past quarter cylinder against the
    infimum over the current quarter cylinder."""
    if not 0 < r0 < 1 / 6:
        raise ValueError("require 0 < r0 < 1/6")
    (pv, _), (fv, _) = _read(f, nodes, _past_cylinder(z0, r0, r0 / 4, s), KineticCylinder(z0, r0 / 4, s))
    sup = float(pv.max())
    inf_raw = float(fv.min())
    notes = []
    inf = inf_raw
    if inf_raw < 0:
        inf = 0.0
        notes.append(f"infimum clamped from {inf_raw:.3e} to 0")
    if inf <= 0:
        ratio = None
        notes.append("vanishing infimum: ratio flagged infinite")
    else:
        ratio = sup / inf
    return {"kind": "Strong", "params": {"r0": r0, "s": s, "h_sup": 0.0, "center": [z0.t, z0.x, z0.v]},
            "sup": sup, "inf": inf, "ratio": ratio, "resolution": [nodes] * 3, "notes": notes}


def weak_harnack_ratio(
    f,
    z0: PhasePoint,
    r0: float,
    zeta: float = 0.5,
    s: float = 0.5,
    nodes: int = 8,
) -> dict:
    """Past L^zeta average against the infimum over the half cylinder."""
    if not 0 < r0 < 1 / 3:
        raise ValueError("require 0 < r0 < 1/3")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    (pv, w), (fv, _) = _read(f, nodes, _past_cylinder(z0, r0, r0 / 2, s), KineticCylinder(z0, r0 / 2, s))
    with np.errstate(over="raise"):
        try:
            num = float((np.clip(pv, 0.0, None) ** zeta).sum() * w) ** (1.0 / zeta)
        except ArithmeticError:
            raise ValueError(f"zeta = {zeta:g} overflows the L^zeta average of the past values "
                             f"(largest {float(pv.max()):.6g})") from None
    inf_raw = float(fv.min())
    notes = []
    inf = max(inf_raw, 0.0)
    if inf_raw < 0:
        notes.append(f"infimum clamped from {inf_raw:.3e} to 0")
    ratio = num / inf if inf > 0 else None
    if ratio is None:
        notes.append("vanishing denominator: ratio flagged infinite")
    return {"kind": "Weak", "params": {"r0": r0, "zeta": zeta, "s": s, "h_sup": 0.0},
            "sup": num, "inf": inf, "ratio": ratio, "resolution": [nodes] * 3, "notes": notes}


def l1_linf_ratio(
    f,
    z0: PhasePoint,
    R: float,
    s: float,
    nodes: int = 8,
) -> dict:
    """Supremum over the eighth cylinder against the scaled L1 mass
    ``R^{-(2(1+s)+2s)} int_{Q_R} f``."""
    if R <= 0:
        raise ValueError("radius must be positive")
    (bv, w), (sv, _) = _read(f, nodes, KineticCylinder(z0, R, s), KineticCylinder(z0, R / 8, s))
    sup = float(sv.max())
    mass = float(bv.sum() * w)
    scaled = R ** -(2 * (1 + s) + 2 * s) * mass
    notes = []
    ratio = sup / scaled if scaled > 0 else None
    if ratio is None:
        notes.append("degenerate 0/0 flagged" if sup <= 0 else "zero mass with positive sup: flagged")
    return {"kind": "L1Linf", "params": {"R": R, "s": s, "h_sup": 0.0, "mass": mass, "scaled_mass": scaled},
            "sup": sup, "inf": scaled, "ratio": ratio, "resolution": [nodes] * 3, "notes": notes}


# Cylinder nodes per block of the grid part of ``tail_bound_ratio``; a
# block holds a few arrays of _TAIL_NODE_BLOCK * nv floats.
_TAIL_NODE_BLOCK = 64


def tail_bound_ratio(
    f: PhaseField,
    k: KernelSpec,
    z0: PhasePoint,
    R: float,
    l: float = 0.0,
    zeta: float = 0.5,
    s: float = 0.5,
    nodes: int = 6,
) -> dict:
    """Nonlocal level-set tail mass against the local bound
    ``R^{-2s} sup (f-l)_+^{1-zeta} int_{Q_R} (f-l)_+^zeta``."""
    if l < 0 or R <= 0 or not 0 < zeta < 1:
        raise ValueError("require l >= 0, R > 0, 0 < zeta < 1")
    if not isinstance(f, PhaseField):
        raise TypeError("tail measurement needs a gridded field with a far-field closure")
    g = f.grid
    v0 = z0.v
    outer = KineticCylinder(z0, R, s)
    _check_domain(f, outer)  # it holds the inner cylinder
    T, X, V, w = KineticCylinder(z0, R / 2, s).nodes(nodes, nodes, nodes)
    above = f.sample(T, X, V) > l
    T, X, V = (np.broadcast_to(a, above.shape)[above] for a in (T, X, V))
    # grid part over the stored nodes farther than R from v0, in blocks
    # of _TAIL_NODE_BLOCK cylinder nodes
    v_far = g.v_axis[np.abs(g.v_axis - v0) > R]
    near = np.empty(len(V))
    for i in range(0, len(V), _TAIL_NODE_BLOCK):
        t, x, v = (a[i : i + _TAIL_NODE_BLOCK, None] for a in (T, X, V))
        fw = np.clip(f.sample(t, x, v_far) - l, 0.0, None)
        Kw = np.asarray(k._eval(t, x, *np.broadcast_arrays(v, v_far)), dtype=float)
        near[i : i + _TAIL_NODE_BLOCK] = (fw * Kw).sum(axis=1) * g.dv

    # far field beyond the velocity box and outside the ball, each side
    # starting at the farther of the two edges
    def env(ww):
        return np.clip(f.farfield.envelope(ww) - l, 0.0, None)

    lo, hi = g.v_axis[0] - g.dv / 2, g.v_axis[-1] + g.dv / 2
    far = k.one_sided_tail(V, np.maximum(hi - V, R - (V - v0)), T, X, +1, env)
    far += k.one_sided_tail(V, np.maximum(V - lo, R + (V - v0)), T, X, -1, env)
    lhs = float(np.sum(near + far) * w)

    To, Xo, Vo, wo = outer.nodes(nodes, nodes, nodes)
    excess = np.clip(f.sample(To, Xo, Vo) - l, 0.0, None)
    sup_ex = float(excess.max())
    zeta_mass = float((excess**zeta).sum() * wo)
    rhs = R ** (-2 * s) * sup_ex ** (1 - zeta) * zeta_mass
    notes = []
    if rhs <= 0 and lhs <= 0:
        ratio = 0.0
        notes.append("empty upper level set: both sides zero")
    elif rhs <= 0:
        ratio = None
        notes.append("zero local side with nonzero tail: flagged")
    else:
        ratio = lhs / rhs
    return {"kind": "TailBound", "params": {"R": R, "level": l, "zeta": zeta, "s": s, "lhs": lhs, "rhs": rhs},
            "sup": sup_ex, "inf": zeta_mass, "ratio": ratio, "resolution": [nodes] * 3, "notes": notes}


def degiorgi_level_cap(A0: float, R: float, delta: float, p: float, zeta: float, sup_f: float, s: float) -> float:
    """The level ``L`` closing the iteration of the homogeneous equation:
    ``A0 R^{-sp/(p-1)} 2^{4p^2/(p-1)^2} delta^{-((2-zeta)/zeta)(p/(p-1))}
    + delta sup f``."""
    q = p / (p - 1.0)
    # The constant 2^{4q^2} is huge for p near 1; work in log space so the
    # result degrades to inf rather than raising.
    if A0 <= 0.0:
        main = 0.0
    else:
        log_main = (
            math.log(A0)
            - s * q * math.log(R)
            + 4.0 * q * q * math.log(2.0)
            - ((2.0 - zeta) / zeta) * q * math.log(delta)
        )
        main = math.exp(log_main) if log_main < 700.0 else math.inf
    return main + delta * sup_f


def degiorgi_trace(
    f,
    z0: PhasePoint,
    R: float,
    delta: float,
    p: float,
    zeta: float = 0.5,
    s: float = 0.5,
    nodes: int = 8,
) -> dict:
    """Level sequence ``l_k = L(1 - 2^{-k})``, shrinking radii
    ``r_k = R/8 + 2^{-k}(7R/8)`` and truncated masses ``A_k``, k = 0 .. 6,
    as the rows ``[k, l_k, r_k, A_k]`` of the report's ``sequence``.

    ``zeta`` is the exponent of the level-set tail bound the iteration
    closes (``tail_bound_ratio``), so it lies in (0, 1)."""
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    p_hi = 1.0 + s / (2 * (1 + s) + s)
    if not 1.0 < p < p_hi:
        raise ValueError(f"p must lie in (1, {p_hi})")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    # the cylinder of R holds every r_k, the smallest about R/8
    _check_resolution(f, KineticCylinder(z0, R, s))

    reads = {}  # each cylinder is read once per exact radius

    def cyl_values(r: float):
        if r not in reads:
            T, X, V, w = KineticCylinder(z0, r, s).nodes(nodes, nodes, nodes)
            reads[r] = f.sample(T, X, V), w
        return reads[r]

    def trunc_mass(r: float, level: float) -> float:
        vals, w = cyl_values(r)
        return float(np.clip(vals - level, 0.0, None).sum() * w)

    sup_f = float(cyl_values(R)[0].max())
    A0 = trunc_mass(R, 0.0)
    L = degiorgi_level_cap(A0, R, delta, p, zeta, sup_f, s)
    if not math.isfinite(L):
        q = p / (p - 1.0)
        raise ValueError(
            f"p = {p} overflows the level cap L (its factor 2^(4q^2) with "
            f"q = p/(p - 1) = {q:.4g}); take a larger p in (1, {p_hi})"
        )

    seq = []
    decay_ok = True
    cheb_ok = True
    prev_A = A0
    for k in range(7):
        l_k = 0.0 if k == 0 else L * (1.0 - 2.0**-k)
        r_k = R / 8 + 2.0**-k * (7 * R / 8)
        A_k = trunc_mass(r_k, l_k)
        seq.append([k, l_k, r_k, A_k])
        target = 2.0 ** (-4 * k * p / (p - 1.0)) * A0
        if A_k > 2.0 * target + 1e-300:
            decay_ok = False
        if k >= 1 and L > 0:
            # Chebyshev: measure of the upper level set in the previous cylinder
            vals, w = cyl_values(seq[k - 1][2])
            meas = float((vals > l_k).sum() * w)
            if meas > 2.0 ** (k + 2) * prev_A / L + 1e-12:
                cheb_ok = False
        prev_A = A_k
    return {"R": R, "delta": delta, "p": p, "zeta": zeta, "L": L, "sequence": seq, "decay_ok": decay_ok,
            "chebyshev_ok": cheb_ok}


# the path is held as Python tuples and written as CSV: 10^5 links are
# about 16 MB and a 6 MB file
_MAX_LINKS = 100_000


def harnack_chain(start, end, s: float) -> dict:
    """Chain construction from ``start = (tau0, y0, w0)`` to
    ``end = (t, x, v)``: the number of links, the intermediate points,
    and the exponent bracket of the resulting pointwise bound.  The
    horizon is the end time ``t``, so the link radius is
    ``sigma = min(1, t^{1/(2s)})``.  A chain of more than ``_MAX_LINKS``
    links is rejected before its path is built."""
    tau0, y0, w0 = float(start[0]), float(start[1]), float(start[2])
    t, x, v = float(end[0]), float(end[1]), float(end[2])
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    if t <= tau0:
        raise ValueError("end time must exceed start time")
    sigma = min(1.0, t) ** (1.0 / (2 * s))  # t^{1/(2s)} would overflow for t > 1 and small s
    dt = t - tau0
    dx = x - y0 - dt * w0
    dv = v - w0
    terms = [
        dt / (3.0 * min(1.0, t)),  # sigma^{2s}, which would underflow to 0 for t < 1 and small s
        dt / (3.0 * tau0),
        (3.0 * 2.0 ** (2 * s)) ** (1 + 2 * s) * abs(dx) ** (2 * s) / dt ** (1 + 2 * s),
        3.0 * 2.0 ** (2 * s) * abs(dv) ** (2 * s) / dt,
    ]
    links = max(terms)
    if not links <= _MAX_LINKS:
        raise ValueError(f"the chain needs N = ceil({links:.6g}) links, which violates the rule N <= {_MAX_LINKS}")
    N = max(1, math.ceil(links))
    nu = np.arange(N + 1) / N
    path = [
        (
            tau0 + nu_i * dt,
            y0 + dt * w0 + nu_i ** ((1 + s) / s) * dx,
            w0 + nu_i ** (1.0 / s) * dv,
        )
        for nu_i in nu
    ]
    bracket = abs(dx) ** (2 * s) / dt ** (1 + 2 * s) + abs(dv) ** (2 * s) / dt + t / tau0
    return {
        "N": N,
        "terms": terms,
        "path": path,
        "exponent_bracket": bracket,
        "start_offset_x": dt * w0,  # the nu=0 point sits at y0 + (t-tau0) w0
        "sigma": sigma,
    }


def _eval_window(tab: FundamentalSolutionTable):
    """Fixed kinetically-scaled 129 x 129 evaluation lattice, independent
    of the table resolution, so refinement measures table accuracy only,
    and the mask of its nodes where ``J`` stands clear of the table's
    ringing, the nodes the envelope fits read."""
    s, t = tab.s, tab.t
    u = np.linspace(-1, 1, 129)
    xs = 4.0 * t ** ((1 + 2 * s) / (2 * s)) * u
    vs = 8.0 * t ** (1.0 / (2 * s)) * u
    J = tab.sample(xs[:, None], vs[None, :])
    X, V = np.meshgrid(xs, vs, indexing="ij")
    return X, V, J, J > 10.0 * max(abs(tab.meta["ringing"]), 1e-300)


def lower_bound_check(tab: FundamentalSolutionTable, alpha: float = 1.0) -> dict:
    """Cone-mass sufficient condition plus an exponential lower-envelope
    fit ``J >= C1 t^{-2(1+s)/(2s)} exp(-C2 (|x|^{2s}/t^{1+2s} + |v|^{2s}/t))``.

    The cone mass is taken at a quarter, half, three quarters and all of
    the table time, by the midpoint rule on 64 x 64 nodes of the cone's
    bounding box.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    s = tab.s
    cone_nodes = 64
    cone_masses = []
    for t in tab.t * np.array([0.25, 0.5, 0.75, 1.0]):
        xr = (alpha * t) ** ((1 + 2 * s) / (2 * s))
        vr = (alpha * t) ** (1.0 / (2 * s))
        xs = xr * (-1 + (2 * np.arange(cone_nodes) + 1.0) / cone_nodes)[:, None]
        vs = vr * (-1 + (2 * np.arange(cone_nodes) + 1.0) / cone_nodes)[None, :]
        inside = np.maximum(np.abs(xs) ** (2 * s / (1 + 2 * s)), np.abs(vs) ** (2 * s)) < alpha * t
        vals = tab.sample(xs, vs, t=float(t))
        cone_masses.append(float((vals * inside).sum() * (2 * xr / cone_nodes) * (2 * vr / cone_nodes)))
    M = min(cone_masses)
    if M <= 0:
        # C2 has no value; the cone's box scales with t as the table's does,
        # so the last cone's nodes show whether any lies inside the table
        flagged = "cone mass nonpositive"
        xb, vb = float(np.abs(tab.x_axis).max()), float(np.abs(tab.v_axis).max())
        if xr / cone_nodes > xb or vr / cone_nodes > vb:
            flagged += (f": every node of the cone's box (+-{xr:.6g} in x, +-{vr:.6g} in v) lies outside the "
                        f"table's box (+-{xb:.6g}, +-{vb:.6g}), where the table reads 0")
        return {"M": M, "C1": 0.0, "C2": None, "alpha": alpha, "flagged": flagged}

    beta = peak_decay_exponent(s)
    t = tab.t
    X, V, J, pos = _eval_window(tab)
    g = np.abs(X) ** (2 * s) / t ** (1 + 2 * s) + np.abs(V) ** (2 * s) / t
    y = np.log(J[pos] * t**beta)
    gg = g[pos]
    logC1 = float(y[np.argmin(gg)])
    away = gg > 0
    C2 = float(np.max((logC1 - y[away]) / gg[away])) if np.any(away) else 0.0
    C2 = max(C2, 0.0)
    return {
        "M": M,
        "C1": math.exp(logC1),
        "C2": C2,
        "alpha": alpha,
        "cone_masses": cone_masses,
        "excluded_nodes": int((~pos).sum()),
        "flagged": None,
    }
