"""Discrete nonlocal operators.

The principal-value operator

    L f(v) = PV int (f(w) - f(v)) K(v, w) dw

is discretized on the velocity grid by the symmetrized grid sum with
the singular cell excluded, a Taylor correction for the excluded cell
(second-difference stencil times the local second moment of the
kernel), and the loss rate of the jumps that leave the velocity box.
The kernel is frozen at ``(t, x) = (0, 0)``.  The pieces assemble into
a dense velocity-operator matrix ``A`` with ``L f = A f``: a linear
map, since neither closure of the box (the torus, or zero extension
beyond it) brings mass back in.  Its rows sum to minus that loss rate.

Every integral beyond the velocity box is one vectorized call per side
of ``KernelSpec.one_sided_tail``, the single far-field quadrature.
"""

from __future__ import annotations

import numpy as np

from .fields import PhaseGrid
from .kernels import FractionalLaplacian, KernelSpec, gauss_legendre

__all__ = [
    "assemble_operator_matrix",
    "nonlocal_profile",
]


def _singular_moment(k: KernelSpec, v_axis: np.ndarray, h: float) -> np.ndarray:
    """``int_{|u|<h} u^2 K(v, v+u) du`` per node.

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
        vals = np.asarray(k._eval(0.0, 0.0, np.broadcast_to(v_axis[:, None], W.shape), W), dtype=float)
        out += (vals * u[None, :] ** 2) @ w
    return out


def _exterior_loss(k: KernelSpec, v_axis: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-node rate ``int_{w outside [lo, hi]} K(v_i, w) dw`` of jumps out of the box."""
    return k.one_sided_tail(v_axis, hi - v_axis, 0.0, 0.0, +1) + k.one_sided_tail(v_axis, v_axis - lo, 0.0, 0.0, -1)


def assemble_operator_matrix(k: KernelSpec, grid: PhaseGrid, torus: bool = False) -> np.ndarray:
    """Assemble the dense velocity operator ``A``, ``L f = A f``.

    With ``torus=True`` the velocity box is closed periodically
    (minimal-image distances); jumps longer than half the period are
    lost on the diagonal, so each row sums to ``-k.tail_mass(v,
    v_extent)``.  Otherwise ``f`` is extended by zero beyond the box
    and each row sums to minus the rate of jumps out of the box.
    """
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

    A = np.zeros((nv, nv))
    I, J = np.nonzero(dist > h)
    if torus:
        # evaluate at the minimal-image separation
        A[I, J] = np.asarray(k._eval(0.0, 0.0, v_axis[I], v_axis[I] - diff[I, J]), dtype=float) * dv
    else:
        A[I, J] = np.asarray(k._eval(0.0, 0.0, v_axis[I], v_axis[J]), dtype=float) * dv

    row = A.sum(axis=1)
    np.fill_diagonal(A, -row)

    # Taylor correction for the excluded singular cell: the local second
    # moment times the discrete second derivative.
    corr = _singular_moment(k, v_axis, h) / (2.0 * dv * dv)
    idx = np.arange(nv)
    if torus:
        up, dn = (idx + 1) % nv, (idx - 1) % nv
        A[idx, up] += corr
        A[idx, dn] += corr
        A[idx, idx] += -2.0 * corr
        # Minimal-image wrapping only covers jumps up to half a period;
        # the loss rate of longer true jumps is restored on the diagonal
        # (their return is negligible for fields that are localized well
        # inside the box).
        A[idx, idx] -= k.tail_mass(v_axis, grid.v_extent)
    else:
        interior = idx[1:-1]
        A[interior, interior + 1] += corr[interior]
        A[interior, interior - 1] += corr[interior]
        A[interior, interior] += -2.0 * corr[interior]
        A[idx, idx] -= _exterior_loss(k, v_axis, v_axis[0] - dv / 2, v_axis[-1] + dv / 2)
    return A


def nonlocal_profile(k: KernelSpec, profile: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Apply ``L`` to a velocity profile extended by zero beyond the box."""
    return assemble_operator_matrix(k, grid) @ np.asarray(profile, dtype=float)
