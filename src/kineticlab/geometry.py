"""Phase-space points and slanted kinetic cylinders.

A phase point is ``z = (t, x, v)`` with one position and one velocity
dimension: the lab works on R^3, the case d = 1 of the paper's
R^{1+2d}.

Every cylinder is one shape, ``Q_r(z)``: the times ``(t - r^{2s}, t]``,
the velocity ball of radius ``r`` about ``v`` and the position ball of
radius ``r^{1+2s}`` about the free flow ``x + (tau - t) v`` of its
centre.  The detached past cylinders of the Harnack inequalities are
such cylinders centred further back on the free flow through ``z0``.
The lab only integrates over cylinders, by the midpoint nodes of
``KineticCylinder.nodes``, a broadcast lattice over the three axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint",
    "KineticCylinder",
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


@dataclass(frozen=True)
class KineticCylinder:
    """The slanted cylinder ``Q_r(center)``: times ``(t - r^{2s}, t]``,
    velocity radius ``r`` and position radius ``r^{1+2s}`` about the free
    flow of the centre."""

    center: PhasePoint
    r: float
    s: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("cylinder radius must be positive")
        if not 0.0 < self.s < 1.0:
            raise ValueError("order parameter s must lie in (0, 1)")
        try:
            self.r ** (1 + 2 * self.s)
        except OverflowError:
            raise ValueError("cylinder radius r violates the rule r^{1+2s} finite (the position radius)") from None
        # a window or radius that rounds away at the centre has no nodes
        # apart from the centre's own coordinate (a past centre's position
        # is moved by a multiple of its velocity, so the velocity goes first)
        c, (lo, hi) = self.center, self.time_window()
        for rule, gone in (("lo < hi for the time window", lo == hi),
                           ("v + r != v for the velocity radius", c.v + self.r == c.v),
                           ("x + r^{1+2s} != x for the position radius", c.x + self.x_radius == c.x)):
            if gone:
                raise ValueError(f"cylinder at {c} violates the rule {rule}: it rounds away at the centre")

    @property
    def x_radius(self) -> float:
        return self.r ** (1 + 2 * self.s)

    def time_window(self) -> tuple[float, float]:
        """Return ``(lo, hi)`` in absolute time."""
        return self.center.t - self.r ** (2 * self.s), self.center.t

    def nodes(self, nt: int, nx: int, nv: int):
        """Tensor midpoint nodes and the cell weight.

        Nodes are generated in normalized coordinates and mapped into
        the cylinder, so the discrete measure scales exactly with the
        continuum one.  Returns ``(T, X, V, w)``: ``T`` of shape
        ``(nt, 1, 1)``, ``X`` of shape ``(nt, nx, 1)`` (the position
        interval slides with time), ``V`` of shape ``(nv,)``, which
        broadcast to the ``(nt, nx, nv)`` lattice, and scalar weight ``w``.
        """
        lo, hi = self.time_window()
        c = self.center
        T = (lo + (np.arange(nt) + 0.5) / nt * (hi - lo))[:, None, None]
        xi = -1.0 + (np.arange(nx) + 0.5) / nx * 2.0
        eta = -1.0 + (np.arange(nv) + 0.5) / nv * 2.0
        X = c.x + (T - c.t) * c.v + xi[:, None] * self.x_radius
        V = c.v + eta * self.r
        w = (hi - lo) / nt * (2 * self.x_radius) / nx * (2 * self.r) / nv
        return T, X, V, w
