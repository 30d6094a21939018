"""Phase-space points and slanted kinetic cylinders.

A phase point is ``z = (t, x, v)`` with ``x, v`` vectors of the same
dimension ``d``.

Cylinders are anisotropic neighborhoods with scales ``(r^{2s},
r^{1+2s}, r)`` whose position ball is slanted along the free flow of
the center velocity.  Ball constraints are strict; the time window is
half-open at its past end (except for the detached "tilde" windows,
which are closed).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint",
    "CylinderKind",
    "KineticCylinder",
    "make_cylinder",
]


def _vec(a) -> np.ndarray:
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.ndim != 1:
        raise ValueError("phase-space components must be scalars or 1-d vectors")
    return out


@dataclass(frozen=True)
class PhasePoint:
    """A point ``z = (t, x, v)`` in R^{1+2d}."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def __init__(self, t, x, v):
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "x", _vec(x))
        object.__setattr__(self, "v", _vec(v))
        if self.x.shape != self.v.shape:
            raise ValueError("x and v must have the same dimension")
        if not (math.isfinite(self.t) and np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("phase point components must be finite")

    @property
    def d(self) -> int:
        return self.x.size


class CylinderKind(enum.Enum):
    CURRENT = "current"
    PAST = "past"
    FUTURE = "future"
    TILDE_PAST_HALF = "tilde_past_half"
    TILDE_PAST_QUARTER = "tilde_past_quarter"
    FUTURE_TILDE = "future_tilde"


# Time marks for the detached windows used by the two-sided estimates.
# For a base radius r0:
#   t2 = (5/2) r0^{2s} - (1/2) (r0/2)^{2s},   t3 = t2 + (r0/4)^{2s}.
def _tilde_marks(r0: float, s: float) -> tuple[float, float]:
    t2 = 2.5 * r0 ** (2 * s) - 0.5 * (r0 / 2) ** (2 * s)
    t3 = t2 + (r0 / 4) ** (2 * s)
    return t2, t3


@dataclass(frozen=True)
class KineticCylinder:
    """A slanted space-time-velocity cylinder.

    The geometry (time window, effective center, ball radii) is derived
    lazily from ``(center, r, s, kind)``.  For the tilde kinds the
    stored radius is the *base* radius r0; the ball radii are those of
    r0/4 (quarter) or r0/2 (half).
    """

    center: PhasePoint
    r: float
    s: float
    kind: CylinderKind

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("cylinder radius must be positive")
        if not 0.0 < self.s < 1.0:
            raise ValueError("order parameter s must lie in (0, 1)")
        if not isinstance(self.kind, CylinderKind):
            raise ValueError(f"invalid cylinder kind: {self.kind!r}")

    # -- derived geometry ------------------------------------------------

    @property
    def ball_radius(self) -> float:
        """Radius of the velocity ball (the position ball is its (1+2s) power)."""
        if self.kind is CylinderKind.TILDE_PAST_QUARTER or self.kind is CylinderKind.FUTURE_TILDE:
            return self.r / 4
        if self.kind is CylinderKind.TILDE_PAST_HALF:
            return self.r / 2
        return self.r

    @property
    def x_radius(self) -> float:
        return self.ball_radius ** (1 + 2 * self.s)

    def time_window(self) -> tuple[float, float, bool]:
        """Return ``(lo, hi, closed_lo)`` relative to absolute time.

        ``closed_lo`` tells whether the past end is included; the
        future end is always included.
        """
        t0, s, r = self.center.t, self.s, self.r
        if self.kind is CylinderKind.CURRENT:
            return t0 - r ** (2 * s), t0, False
        if self.kind is CylinderKind.PAST:
            return t0 - 3 * r ** (2 * s), t0 - 2 * r ** (2 * s), False
        if self.kind is CylinderKind.FUTURE:
            return t0 + r ** (2 * s), t0 + 2 * r ** (2 * s), False
        if self.kind is CylinderKind.TILDE_PAST_QUARTER:
            t2, t3 = _tilde_marks(r, s)
            return t0 - t3, t0 - t2, True
        if self.kind is CylinderKind.FUTURE_TILDE:
            t2, t3 = _tilde_marks(r, s)
            return t0 + t2, t0 + t3, True
        if self.kind is CylinderKind.TILDE_PAST_HALF:
            half = self.r / 2
            tc = t0 - 2.5 * r ** (2 * s) + 0.5 * half ** (2 * s)
            return tc - half ** (2 * s), tc, False
        raise AssertionError(self.kind)

    def measure(self) -> float:
        """Lebesgue measure (d = 1 ball measures are interval lengths)."""
        lo, hi, _ = self.time_window()
        d = self.center.d
        vol_x = (2 * self.x_radius) ** d
        vol_v = (2 * self.ball_radius) ** d
        return (hi - lo) * vol_x * vol_v

    # -- membership ------------------------------------------------------

    def contains(self, z: PhasePoint) -> bool:
        lo, hi, closed_lo = self.time_window()
        if closed_lo:
            if not lo <= z.t <= hi:
                return False
        else:
            if not lo < z.t <= hi:
                return False
        c = self.center
        dt = z.t - c.t
        slant = z.x - c.x - dt * c.v
        if np.linalg.norm(slant) >= self.x_radius:
            return False
        if np.linalg.norm(z.v - c.v) >= self.ball_radius:
            return False
        return True

    # -- quadrature ------------------------------------------------------

    def nodes(self, nt: int, nx: int, nv: int):
        """Tensor midpoint nodes and the cell weight.

        Nodes are generated in normalized coordinates and mapped into
        the cylinder, so the discrete measure scales exactly with the
        continuum one (d = 1 only).  Returns ``(T, X, V, w)`` with flat
        arrays of length ``nt*nx*nv`` and scalar weight ``w``.
        """
        if self.center.d != 1:
            raise NotImplementedError("cylinder quadrature is implemented for d = 1")
        lo, hi, _ = self.time_window()
        c = self.center
        tau = lo + (np.arange(nt) + 0.5) / nt * (hi - lo)
        xi = -1.0 + (np.arange(nx) + 0.5) / nx * 2.0
        eta = -1.0 + (np.arange(nv) + 0.5) / nv * 2.0
        T, XI, ETA = np.meshgrid(tau, xi, eta, indexing="ij")
        X = c.x[0] + (T - c.t) * c.v[0] + XI * self.x_radius
        V = c.v[0] + ETA * self.ball_radius
        w = (hi - lo) / nt * (2 * self.x_radius) / nx * (2 * self.ball_radius) / nv
        return T.ravel(), X.ravel(), V.ravel(), w


def make_cylinder(center: PhasePoint, r: float, s: float, kind: CylinderKind) -> KineticCylinder:
    """Construct a cylinder; ``r`` is the base radius (see KineticCylinder)."""
    return KineticCylinder(center, float(r), float(s), kind)
