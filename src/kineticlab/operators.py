"""Discrete nonlocal operators.

The principal-value operator

    L f(v) = PV int (f(w) - f(v)) K(v, w) dw

is discretized on the velocity grid by the symmetrized grid sum with
the singular cell excluded, a Taylor correction for the excluded cell
(second-difference stencil times the local second moment of the
kernel), and a far-field contribution from the declared closure.  The
same pieces assemble into a dense velocity-operator matrix whose rows
annihilate constants up to the far-field leak.

Every integral beyond the velocity box (the exterior loss and gain and
the torus leak) is one vectorized call per side of
``KernelSpec.one_sided_tail``, the single far-field quadrature; a
closure enters as its ``weight``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PhaseGrid, ZeroExtension
from .kernels import FractionalLaplacian, KernelSpec, gauss_legendre

__all__ = [
    "OperatorMatrix",
    "assemble_operator_matrix",
    "nonlocal_profile",
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
    far-field loss coefficient (zero under a cutoff ``rho``), so
    ``sum(matrix @ f) * dv = -sum(leak * f) * dv`` for symmetric
    kernels.
    """

    matrix: np.ndarray
    gain: np.ndarray
    leak: np.ndarray

    def apply(self, f: np.ndarray) -> np.ndarray:
        return f @ self.matrix.T + self.gain if f.ndim == 2 else self.matrix @ f + self.gain


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
    return OperatorMatrix(matrix=A, gain=gain, leak=leak)


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
