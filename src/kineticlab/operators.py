"""Discrete nonlocal, cutoff, tail and transport operators.

The principal-value operator

    L f(v) = PV int (f(w) - f(v)) K(v, w) dw

is discretized on the velocity grid by the symmetrized grid sum with
the singular cell excluded, a Taylor correction for the excluded cell
(second-difference stencil times the local second moment of the
kernel), and a far-field contribution from the declared closure.  The
same pieces assemble into a dense velocity-operator matrix whose rows
annihilate constants up to the far-field leak.

Every integral beyond the velocity box (the exterior loss and gain, the
torus leak, the cutoff remainder and the tail functional) is one
vectorized call per side of ``KernelSpec.one_sided_tail``, the single
far-field quadrature; a closure enters as its ``weight``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PhaseField, PhaseGrid, PowerLawEnvelope, ZeroExtension  # noqa: F401
from .kernels import FractionalLaplacian, KernelSpec, gauss_legendre

__all__ = [
    "OperatorMatrix",
    "assemble_operator_matrix",
    "nonlocal_apply",
    "nonlocal_profile",
    "tail_functional",
    "transport_apply",
]


def _singular_moment(k: KernelSpec, v_axis: np.ndarray, h: float, t: float, x: float) -> np.ndarray:
    """``int_{|u|<h} u^2 K(v, v+u) du`` per node (d = 1).

    Closed form for the plain fractional kernel, Gauss-Legendre
    otherwise; the integrand is bounded for s < 1.
    """
    if isinstance(k, FractionalLaplacian):
        val = 2.0 * k.c * h ** (2 - 2 * k.s) / (2 - 2 * k.s)
        return np.full(v_axis.shape, val)
    nodes, weights = gauss_legendre(12)
    u = 0.5 * h * (nodes + 1.0)
    w = 0.5 * h * weights
    out = np.zeros_like(v_axis)
    for sgn in (+1.0, -1.0):
        W = v_axis[:, None] + sgn * u[None, :]
        vals = np.asarray(k._eval(t, x, np.broadcast_to(v_axis[:, None], W.shape), W), dtype=float)
        out += (vals * u[None, :] ** 2) @ w
    return out


def _exterior_terms(k: KernelSpec, closure, v_axis: np.ndarray, lo: float, hi: float, t: float, x: float):
    """Per-node far-field pieces ``(gain_i, loss_i)`` so that the closure
    contributes ``gain_i - f(v_i) * loss_i`` to ``L f(v_i)``."""
    up, down = hi - v_axis, v_axis - lo
    loss = k.one_sided_tail(v_axis, up, t, x, +1) + k.one_sided_tail(v_axis, down, t, x, -1)
    if isinstance(closure, ZeroExtension):
        return np.zeros_like(v_axis), loss
    env = closure.envelope
    gain = k.one_sided_tail(v_axis, up, t, x, +1, env) + k.one_sided_tail(v_axis, down, t, x, -1, env)
    return gain, loss


@dataclass
class OperatorMatrix:
    """Dense velocity-space representation of ``L`` for a frozen (t, x).

    ``apply(f) = matrix @ f + gain``.  ``leak`` is the per-node
    far-field loss coefficient (zero on the torus variant), so
    ``sum(matrix @ f) * dv = -sum(leak * f) * dv`` for symmetric
    kernels.
    """

    matrix: np.ndarray
    gain: np.ndarray
    leak: np.ndarray
    dv: float
    torus: bool

    def apply(self, f: np.ndarray) -> np.ndarray:
        return f @ self.matrix.T + self.gain if f.ndim == 2 else self.matrix @ f + self.gain

    @property
    def symmetric_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def assemble_operator_matrix(
    k: KernelSpec,
    grid: PhaseGrid,
    t: float = 0.0,
    x: float = 0.0,
    closure=None,
    torus: bool = False,
    rho: float | None = None,
) -> OperatorMatrix:
    """Assemble the dense velocity operator.

    With ``torus=True`` the velocity box is closed periodically
    (minimal-image distances, no far field); rows then sum to zero
    exactly and the quadratic form is conservative.  ``rho`` restricts
    jumps to ``|w - v| < rho`` (the cutoff operator).
    """
    if closure is None:
        closure = ZeroExtension()
    v_axis = grid.v_axis
    nv, dv = grid.nv, grid.dv
    h = dv / 2.0

    if torus:
        period = 2.0 * grid.v_extent
        diff = v_axis[:, None] - v_axis[None, :]
        diff = (diff + grid.v_extent) % period - grid.v_extent
        dist = np.abs(diff)
    else:
        dist = np.abs(v_axis[:, None] - v_axis[None, :])

    off = dist > h
    if rho is not None:
        if rho <= 0:
            raise ValueError("cutoff radius must be positive")
        off &= dist < rho

    A = np.zeros((nv, nv))
    I, J = np.nonzero(off)
    if torus:
        # evaluate at the minimal-image separation
        A[I, J] = np.asarray(k._eval(t, x, v_axis[I], v_axis[I] - diff[I, J]), dtype=float) * dv
    else:
        A[I, J] = np.asarray(k._eval(t, x, v_axis[I], v_axis[J]), dtype=float) * dv

    row = A.sum(axis=1)
    np.fill_diagonal(A, -row)

    # Taylor correction for the excluded singular cell: the local second
    # moment times the discrete second derivative.
    corr = _singular_moment(k, v_axis, h, t, x) / (2.0 * dv * dv)
    if rho is not None and rho < h:
        corr = corr * (rho / h) ** (2 - 2 * k.s)  # shrink moment to |u| < rho
    idx = np.arange(nv)
    if torus:
        up, dn = (idx + 1) % nv, (idx - 1) % nv
        A[idx, up] += corr
        A[idx, dn] += corr
        A[idx, idx] += -2.0 * corr
    else:
        interior = idx[1:-1]
        A[interior, interior + 1] += corr[interior]
        A[interior, interior - 1] += corr[interior]
        A[interior, interior] += -2.0 * corr[interior]

    if torus and rho is None:
        # Minimal-image wrapping only covers jumps up to half a period;
        # the loss rate of longer true jumps is restored on the diagonal
        # and tracked as leak (their gain part is negligible for fields
        # that are localized well inside the box).
        gain = np.zeros(nv)
        leak = k.tail_mass(v_axis, grid.v_extent, t, x)
        A[idx, idx] -= leak
    elif torus or rho is not None:
        gain = np.zeros(nv)
        leak = np.zeros(nv)
    else:
        lo, hi = v_axis[0] - dv / 2, v_axis[-1] + dv / 2
        gain, leak = _exterior_terms(k, closure, v_axis, lo, hi, t, x)
        A[idx, idx] -= leak
    return OperatorMatrix(matrix=A, gain=gain, leak=leak, dv=dv, torus=torus)


def nonlocal_profile(
    k: KernelSpec,
    profile: np.ndarray,
    grid: PhaseGrid,
    closure=None,
    t: float = 0.0,
    x: float = 0.0,
    rho: float | None = None,
) -> np.ndarray:
    """Apply ``L`` (or the cutoff operator) to a velocity profile."""
    op = assemble_operator_matrix(k, grid, t, x, closure=closure, rho=rho)
    return op.apply(np.asarray(profile, dtype=float))


def _locate(f: PhaseField, z) -> tuple[int, int, int]:
    g = f.grid
    it = int(round((z.t - g.t0) / g.dt)) if g.nt > 1 else 0
    ix = int(round((z.x[0] + 0.5 * g.x_period) / g.dx)) % g.nx
    iv = int(round((z.v[0] + g.v_extent) / g.dv))
    if not 0 <= it < g.nt or not 0 <= iv < g.nv:
        raise ValueError("phase point is outside the field grid")
    return it, ix, iv


def nonlocal_apply(k: KernelSpec, f: PhaseField, z, rho: float | None = None) -> float:
    """``L f`` (or the cutoff operator for finite ``rho``) at grid point z."""
    if k.s >= 1.0:
        raise ValueError("jump order 2s must be below 2")
    it, ix, iv = _locate(f, z)
    g = f.grid
    prof = f.values[it, ix, :]
    out = nonlocal_profile(k, prof, g, closure=f.farfield, t=z.t, x=float(z.x[0]), rho=rho)
    if rho is None:
        return float(out[iv])
    # the cutoff operator never sees the far field, but jumps beyond the
    # box within |u| < rho still need the closure: the tail from the box
    # edge minus the tail from rho
    lo, hi = g.v_axis[0] - g.dv / 2, g.v_axis[-1] + g.dv / 2
    v, t, x = g.v_axis[iv], z.t, float(z.x[0])
    extra = 0.0
    for side, dist in ((+1, hi - v), (-1, v - lo)):
        if rho > dist:
            d = np.array([dist, rho])
            gain = k.one_sided_tail(v, d, t, x, side, f.farfield.envelope)
            loss = k.one_sided_tail(v, d, t, x, side)
            extra += float(gain[0] - gain[1] - prof[iv] * (loss[0] - loss[1]))
    return float(out[iv]) + extra


def tail_functional(
    k: KernelSpec,
    f: PhaseField,
    r: float,
    R: float,
    v0: float,
    v: float,
    t: float | None = None,
    x: float = 0.0,
) -> float:
    """``int_{|w - v0| > R} f(w) K(v, w) dw`` for ``v`` in ``B_r(v0)``."""
    if not 0 < r < R:
        raise ValueError("require 0 < r < R")
    if abs(v - v0) >= r:
        raise ValueError("evaluation velocity must lie in B_r(v0)")
    g = f.grid
    if t is None:
        t = g.t0
    v_axis = g.v_axis
    mask = np.abs(v_axis - v0) > R
    fw = f.sample(t, x, v_axis[mask])
    Kw = np.asarray(k._eval(t, x, np.full(mask.sum(), v), v_axis[mask]), dtype=float)
    out = float(np.sum(fw * Kw) * g.dv)
    # far field beyond the velocity box and outside the ball, each side
    # starting at the farther of the two edges
    lo, hi = v_axis[0] - g.dv / 2, v_axis[-1] + g.dv / 2
    env = f.farfield.envelope
    up, down = max(hi - v, R - (v - v0)), max(v - lo, R + (v - v0))
    return out + k.one_sided_tail(v, up, t, x, +1, env) + k.one_sided_tail(v, down, t, x, -1, env)


def transport_apply(f: PhaseField, z, with_flag: bool = False):
    """``(d/dt + v d/dx) f`` at a grid node, central differences with
    periodic wrap in x; one-sided in time at the boundary slices."""
    it, ix, iv = _locate(f, z)
    g = f.grid
    V = f.values
    flag = "central"
    if g.nt == 1:
        raise ValueError("transport needs at least two time slices")
    if it == 0:
        dtf = (V[1, ix, iv] - V[0, ix, iv]) / g.dt
        flag = "one_sided"
    elif it == g.nt - 1:
        dtf = (V[-1, ix, iv] - V[-2, ix, iv]) / g.dt
        flag = "one_sided"
    else:
        dtf = (V[it + 1, ix, iv] - V[it - 1, ix, iv]) / (2 * g.dt)
    dxf = (V[it, (ix + 1) % g.nx, iv] - V[it, (ix - 1) % g.nx, iv]) / (2 * g.dx)
    val = float(dtf + g.v_axis[iv] * dxf)
    return (val, flag) if with_flag else val
