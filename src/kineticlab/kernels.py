"""Jump-kernel models and ellipticity diagnostics.

A kernel ``K(t, x, v, w)`` is the density of jumps from velocity ``v``
to ``w``.  The ellipticity class consists of three conditions:

* coercivity: the energy form dominates ``lambda0`` times the
  fractional Gagliardo form,
* integral upper bound: ``int_{|w-v|>r} K(v,w) dw <= Lambda0 r^{-2s}``,
* pointwise symmetry: ``K(v, w) = K(w, v)``.

All checks here are witness-based: symmetry and the upper bound are
sampled, coercivity is tested against a fixed family of compactly
supported test functions evaluated with the same symmetrized double
quadrature on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EllipticityParams",
    "KernelSpec",
    "FractionalLaplacian",
    "SymmetricPerturbation",
    "TimeSpaceModulated",
    "CustomKernel",
    "frac_normalization",
    "gauss_legendre",
    "kernel_scale",
    "check_symmetry",
    "check_upper_bound",
    "check_coercivity",
    "kernel_to_config",
    "kernel_from_config",
]


def frac_normalization(d: int, s: float) -> float:
    """Constant ``C(d, s)`` such that the operator with kernel
    ``C(d,s) |v-w|^{-(d+2s)}`` has Fourier symbol ``-|xi|^{2s}``.

    ``C(d, s) = 4^s Gamma(d/2 + s) s / (pi^{d/2} Gamma(1 - s))``.
    For ``d = 1, s = 1/2`` this is ``1/pi``.
    """
    return 4.0**s * math.gamma(d / 2 + s) * s / (math.pi ** (d / 2) * math.gamma(1 - s))


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per ``n``."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class EllipticityParams:
    s: float
    lambda0: float
    Lambda0: float
    d: int = 1

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        if not 0.0 < self.lambda0 <= self.Lambda0:
            raise ValueError("require 0 < lambda0 <= Lambda0")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


# The far-field quadrature of ``KernelSpec.one_sided_tail``: node count,
# cut-off (in units of the start distance) and points per block.  A block
# holds a few arrays of _TAIL_BLOCK * _TAIL_NODES floats (about 256 kB each).
_TAIL_NODES = 2000
_TAIL_CUT = 1e4
_TAIL_BLOCK = 16


class KernelSpec:
    """Base class for jump kernels; subclasses implement ``_eval``.

    Evaluation is vectorized over ``v`` and ``w``; the batched barrier
    residual also passes ``t`` and ``x`` as 1-D arrays of the same length.
    ``v == w`` is a singularity and rejected for scalar arguments.
    """

    s: float
    d: int

    def _eval(self, t, x, v, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, t, x, v, w):
        return self._eval(t, x, np.asarray(v, dtype=float), np.asarray(w, dtype=float))

    def eval_point(self, t, x, v, w) -> float:
        if np.all(np.asarray(v) == np.asarray(w)):
            raise ValueError("kernel is singular at v = w")
        return float(self._eval(t, x, np.asarray(v, float), np.asarray(w, float)))

    def one_sided_tail(self, v, dist, t=0.0, x=0.0, side: int = +1, weight=None):
        """One-sided far field ``int_dist^inf K(t, x, v, v + side u) weight(v + side u) du``
        (d = 1), vectorized over broadcastable ``v, dist, t, x``.

        ``weight`` is an optional far-field envelope ``weight(w)``.  The
        integral is a trapezoid rule on ``_TAIL_NODES`` log-spaced nodes up
        to ``_TAIL_CUT * dist`` plus the remainder of a power law
        ``u^{-(1+2s)}`` matched at the cut, taken in blocks of
        ``_TAIL_BLOCK`` points.  Scalar inputs give a float.
        """
        v, dist, t, x = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (v, dist, t, x)))
        shape = v.shape
        v, dist, t, x = (a.reshape(-1, 1) for a in (v, dist, t, x))
        q = np.geomspace(1.0, _TAIL_CUT, _TAIL_NODES)
        out = np.empty(v.shape[0])
        for i in range(0, len(out), _TAIL_BLOCK):
            b = slice(i, i + _TAIL_BLOCK)
            u = dist[b] * q
            w = v[b] + side * u
            vals = np.asarray(self._eval(t[b], x[b], np.broadcast_to(v[b], w.shape), w), dtype=float)
            if weight is not None:
                vals = vals * weight(w)
            out[b] = np.trapezoid(vals, u, axis=1) + vals[:, -1] * u[:, -1] / (2 * self.s)
        return float(out[0]) if shape == () else out.reshape(shape)

    def tail_mass(self, v, r, t=0.0, x=0.0):
        """Two-sided tail ``int_{|w - v| > r} K(v, w) dw`` (d = 1)."""
        return self.one_sided_tail(v, r, t, x, +1) + self.one_sided_tail(v, r, t, x, -1)


@dataclass(frozen=True)
class FractionalLaplacian(KernelSpec):
    """Kernel ``c |v - w|^{-(d + 2s)}``; a fixed point of kinetic scaling."""

    c: float
    s: float
    d: int = 1

    def _eval(self, t, x, v, w):
        # d > 1 stacks the components on the leading axis
        dist = np.abs(v - w) if self.d == 1 else np.linalg.norm(v - w, axis=0)
        return self.c * dist ** -(self.d + 2 * self.s)

    def one_sided_tail(self, v, dist, t=0.0, x=0.0, side=+1, weight=None):
        if weight is not None:
            return super().one_sided_tail(v, dist, t, x, side, weight)
        # int_dist^inf c u^{-(1+2s)} du = c dist^{-2s} / (2s)   (d = 1)
        shape = np.broadcast_shapes(*map(np.shape, (v, dist, t, x)))
        tail = self.c * np.asarray(dist, dtype=float) ** (-2 * self.s) / (2 * self.s)
        return float(tail) if shape == () else np.broadcast_to(tail, shape).copy()


def normalized_fractional(s: float, d: int = 1) -> FractionalLaplacian:
    """The fractional kernel whose operator has symbol ``-|xi|^{2s}``."""
    return FractionalLaplacian(c=frac_normalization(d, s), s=s, d=d)


@dataclass(frozen=True)
class SymmetricPerturbation(KernelSpec):
    """``a(v, w) * base`` with a bounded multiplier symmetrized by construction."""

    base: FractionalLaplacian
    multiplier: object  # callable a(v, w)
    a_min: float = 1.0
    a_max: float = 1.0

    @property
    def s(self):
        return self.base.s

    @property
    def d(self):
        return self.base.d

    def _a(self, v, w):
        return 0.5 * (self.multiplier(v, w) + self.multiplier(w, v))

    def _eval(self, t, x, v, w):
        return self._a(v, w) * self.base._eval(t, x, v, w)


@dataclass(frozen=True)
class TimeSpaceModulated(KernelSpec):
    """``m(t, x) * inner`` with a bounded positive modulation."""

    inner: KernelSpec
    modulation: object  # callable m(t, x)
    m_min: float = 1.0
    m_max: float = 1.0

    @property
    def s(self):
        return self.inner.s

    @property
    def d(self):
        return self.inner.d

    def _eval(self, t, x, v, w):
        return self.modulation(t, x) * self.inner._eval(t, x, v, w)

    def one_sided_tail(self, v, dist, t=0.0, x=0.0, side=+1, weight=None):
        return self.modulation(t, x) * self.inner.one_sided_tail(v, dist, t, x, side, weight)


@dataclass(frozen=True)
class CustomKernel(KernelSpec):
    evaluator: object  # callable K(t, x, v, w)
    s: float
    d: int = 1

    def _eval(self, t, x, v, w):
        return self.evaluator(t, x, v, w)


@dataclass(frozen=True)
class _ScaledKernel(KernelSpec):
    inner: KernelSpec
    r: float

    @property
    def s(self):
        return self.inner.s

    @property
    def d(self):
        return self.inner.d

    def _eval(self, t, x, v, w):
        r, s, d = self.r, self.inner.s, self.inner.d
        return r ** (d + 2 * s) * self.inner._eval(
            r ** (2 * s) * t, r ** (1 + 2 * s) * x, r * np.asarray(v), r * np.asarray(w)
        )


def kernel_scale(k: KernelSpec, r: float) -> KernelSpec:
    """Kinetically scaled kernel ``r^{d+2s} K(r^{2s}t, r^{1+2s}x, rv, rw)``.

    The plain fractional kernel is a fixed point, returned unchanged.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("scaling factor must lie in (0, 1]")
    if r == 1.0 or isinstance(k, FractionalLaplacian):
        return k
    return _ScaledKernel(k, float(r))


# ---------------------------------------------------------------------------
# ellipticity checks
# ---------------------------------------------------------------------------


def check_symmetry(k: KernelSpec, samples: int = 256, tol: float = 1e-12, seed: int = 0, t: float = 0.0, x: float = 0.0) -> dict:
    """Max relative asymmetry ``|K(v,w) - K(w,v)| / (K(v,w)+K(w,v)+eps)``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    v = rng.uniform(-3.0, 3.0, samples)
    w = rng.uniform(-3.0, 3.0, samples)
    w = np.where(np.abs(v - w) < 1e-6, w + 1.0, w)
    kvw = np.asarray(k._eval(t, x, v, w), dtype=float)
    kwv = np.asarray(k._eval(t, x, w, v), dtype=float)
    eps = 1e-300
    asym = float(np.max(np.abs(kvw - kwv) / (kvw + kwv + eps)))
    return {
        "kernel": type(k).__name__,
        "quantity": "symmetry",
        "max_relative_asymmetry": asym,
        "tolerance": tol,
        "pass": asym <= tol,
    }


def check_upper_bound(k: KernelSpec, radii=None, points=None, tol: float = 0.05) -> dict:
    """Fit the smallest ``Lambda0`` with ``tail(v, r) <= Lambda0 r^{-2s}``."""
    if radii is None:
        radii = [0.25, 0.5, 1.0, 2.0]
    if points is None:
        points = [0.0, 0.7, -1.3]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    r = np.asarray(radii, dtype=float)
    tail = k.tail_mass(np.asarray(points, dtype=float)[:, None], r)
    if not np.all(np.isfinite(tail)):
        raise ValueError("non-integrable kernel tail")
    fits = (tail * r ** (2 * k.s)).ravel().tolist()
    fitted = max(fits)
    return {
        "kernel": type(k).__name__,
        "quantity": "upper_bound",
        "fitted_constant": fitted,
        "per_sample": fits,
        "tolerance": tol,
        "closure": "closed_form" if isinstance(k, FractionalLaplacian) else "power_law_extrapolation",
        "pass": True,
    }


def _bump(u):
    """Smooth bump supported on (-1, 1)."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def default_test_family(box: float = 2.0):
    """Tensor and oscillatory bumps, compactly supported in [-box, box]."""
    fam = [("bump", lambda v: _bump(v / box))]
    for freq in (1.0, 2.0, 4.0):
        fam.append(
            (f"osc{freq:g}", lambda v, f=freq: _bump(v / box) * np.cos(f * v))
        )
    fam.append(("shifted", lambda v: _bump((v - 0.5 * box) / (0.5 * box))))
    return fam


def check_coercivity(k: KernelSpec, test_functions=None, tol: float = 0.05, lambda0: float = 1.0, n: int = 256, box: float = 2.0) -> dict:
    """Smallest ratio of energy form to ``lambda0`` times the Gagliardo form.

    Both sides use the identical symmetrized double quadrature over the
    box (diagonal cells excluded) plus far-field tail corrections for
    the part where one argument leaves the box.
    """
    if test_functions is None:
        test_functions = default_test_family(box)
    s, d = k.s, k.d
    grid = np.linspace(-2 * box, 2 * box, n, endpoint=False)
    h = grid[1] - grid[0]
    V, W = np.meshgrid(grid, grid, indexing="ij")
    off = ~np.eye(n, dtype=bool)
    KVW = np.zeros((n, n))
    KVW[off] = np.asarray(k._eval(0.0, 0.0, V[off], W[off]), dtype=float)
    ref = FractionalLaplacian(c=1.0, s=s, d=d)
    GVW = np.zeros((n, n))
    GVW[off] = ref._eval(0.0, 0.0, V[off], W[off])

    # tail correction: each phi vanishes outside the grid box, so the
    # exterior contribution is phi(v)^2 * tail(v, dist to edge), twice by
    # symmetry of the double integral.  The tails are taken once, on the
    # joint support of the family (the edge node at distance 0 is outside it).
    P = np.array([phi(grid) for _, phi in test_functions])
    sup = np.any(P != 0.0, axis=0)
    v = grid[sup]
    up, down = grid[-1] + h - v, v - grid[0]
    t_lhs = (k.one_sided_tail(v, up, side=+1) + k.one_sided_tail(v, down, side=-1)) * h
    t_rhs = (ref.one_sided_tail(v, up, side=+1) + ref.one_sided_tail(v, down, side=-1)) * h

    ratios = {}
    skipped = []
    for (name, _), pv in zip(test_functions, P):
        diff2 = (pv[:, None] - pv[None, :]) ** 2
        lhs = float(np.sum(diff2 * KVW) * h * h) + 2 * float(pv[sup] ** 2 @ t_lhs)
        rhs = float(np.sum(diff2 * GVW) * h * h) + 2 * float(pv[sup] ** 2 @ t_rhs)
        if rhs == 0.0:
            skipped.append(name)
            continue
        ratios[name] = lhs / (lambda0 * rhs)
    fitted = min(ratios.values())
    return {
        "kernel": type(k).__name__,
        "quantity": "coercivity",
        "fitted_constant": fitted,
        "per_function": ratios,
        "skipped": skipped,
        "tolerance": tol,
        "pass": fitted >= 1.0 - tol,
    }


# ---------------------------------------------------------------------------
# declarative config serialization
# ---------------------------------------------------------------------------


def kernel_to_config(k: KernelSpec) -> str:
    """Serialize bundled kernels to a key-value config (one pair per line)."""
    if isinstance(k, FractionalLaplacian):
        return f"kind = fractional\nc = {k.c!r}\ns = {k.s!r}\nd = {k.d}\n"
    if isinstance(k, SymmetricPerturbation):
        return (
            "kind = perturbed\n"
            f"c = {k.base.c!r}\ns = {k.base.s!r}\nd = {k.base.d}\n"
            f"a_min = {k.a_min!r}\na_max = {k.a_max!r}\n"
        )
    raise ValueError(f"kernel {type(k).__name__} has no config form")


def kernel_from_config(text: str) -> KernelSpec:
    pairs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    kind = pairs.get("kind", "fractional")

    def number(key: str) -> float:
        if key not in pairs:
            raise ValueError(f"kernel config of kind {kind!r} needs the key {key!r}")
        return float(pairs[key])

    if kind not in ("fractional", "perturbed"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    s = number("s")
    base = FractionalLaplacian(c=number("c"), s=s, d=int(pairs.get("d", 1)))
    if kind == "fractional":
        return base
    a_min, a_max = number("a_min"), number("a_max")
    mid = 0.5 * (a_min + a_max)
    amp = 0.5 * (a_max - a_min)
    return SymmetricPerturbation(
        base=base,
        multiplier=lambda v, w: mid + amp * np.cos(v + w),
        a_min=a_min,
        a_max=a_max,
    )
