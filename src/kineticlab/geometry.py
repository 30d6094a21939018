"""Phase-space points and slanted kinetic cylinders.

A phase point is ``z = (t, x, v)`` with one position and one velocity
dimension: the lab works on R^3, the case d = 1 of the paper's
R^{1+2d}.

Cylinders are anisotropic neighborhoods with scales ``(r^{2s},
r^{1+2s}, r)`` whose position interval is slanted along the free flow
of the center velocity.  Ball constraints are strict; the time window
is half-open at its past end (except for the detached quarter window,
which is closed).
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


@dataclass(frozen=True)
class PhasePoint:
    """A point ``z = (t, x, v)`` in R^3."""

    t: float
    x: float
    v: float

    def __post_init__(self):
        for name in ("t", "x", "v"):
            a = getattr(self, name)
            if np.ndim(a):
                raise ValueError(f"phase point component {name} must be a scalar: x and v are one-dimensional")
            object.__setattr__(self, name, float(a))
        if not (math.isfinite(self.t) and math.isfinite(self.x) and math.isfinite(self.v)):
            raise ValueError("phase point components must be finite")


class CylinderKind(enum.Enum):
    CURRENT = "current"
    TILDE_PAST_HALF = "tilde_past_half"
    TILDE_PAST_QUARTER = "tilde_past_quarter"


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
        if self.kind is CylinderKind.TILDE_PAST_QUARTER:
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
        if self.kind is CylinderKind.TILDE_PAST_QUARTER:
            # t2 = (5/2) r^{2s} - (1/2) (r/2)^{2s},   t3 = t2 + (r/4)^{2s}
            t2 = 2.5 * r ** (2 * s) - 0.5 * (r / 2) ** (2 * s)
            t3 = t2 + (r / 4) ** (2 * s)
            return t0 - t3, t0 - t2, True
        half = self.r / 2
        tc = t0 - 2.5 * r ** (2 * s) + 0.5 * half ** (2 * s)
        return tc - half ** (2 * s), tc, False

    def measure(self) -> float:
        """Lebesgue measure: time length times the two interval lengths."""
        lo, hi, _ = self.time_window()
        return (hi - lo) * (2 * self.x_radius) * (2 * self.ball_radius)

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
        slant = z.x - c.x - (z.t - c.t) * c.v
        return abs(slant) < self.x_radius and abs(z.v - c.v) < self.ball_radius

    # -- quadrature ------------------------------------------------------

    def nodes(self, nt: int, nx: int, nv: int):
        """Tensor midpoint nodes and the cell weight.

        Nodes are generated in normalized coordinates and mapped into
        the cylinder, so the discrete measure scales exactly with the
        continuum one.  Returns ``(T, X, V, w)`` with flat arrays of
        length ``nt*nx*nv`` and scalar weight ``w``.
        """
        lo, hi, _ = self.time_window()
        c = self.center
        tau = lo + (np.arange(nt) + 0.5) / nt * (hi - lo)
        xi = -1.0 + (np.arange(nx) + 0.5) / nx * 2.0
        eta = -1.0 + (np.arange(nv) + 0.5) / nv * 2.0
        T, XI, ETA = np.meshgrid(tau, xi, eta, indexing="ij")
        X = c.x + (T - c.t) * c.v + XI * self.x_radius
        V = c.v + ETA * self.ball_radius
        w = (hi - lo) / nt * (2 * self.x_radius) / nx * (2 * self.ball_radius) / nv
        return T.ravel(), X.ravel(), V.ravel(), w


def make_cylinder(center: PhasePoint, r: float, s: float, kind: CylinderKind) -> KineticCylinder:
    """Construct a cylinder; ``r`` is the base radius (see KineticCylinder)."""
    return KineticCylinder(center, float(r), float(s), kind)
