"""Jump-kernel models and ellipticity diagnostics.

A kernel ``K(t, x, v, w)`` is the density of jumps from velocity ``v``
to ``w``; the velocity variable is one-dimensional.  The ellipticity class consists of three conditions:

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
    "KernelSpec",
    "FractionalLaplacian",
    "SymmetricPerturbation",
    "frac_normalization",
    "gauss_legendre",
    "check_symmetry",
    "check_upper_bound",
    "check_coercivity",
    "kernel_from_config",
]


def frac_normalization(s: float) -> float:
    """Constant ``C(s)`` such that the operator with kernel
    ``C(s) |v-w|^{-(1+2s)}`` has Fourier symbol ``-|xi|^{2s}``.

    ``C(s) = 4^s Gamma(1/2 + s) s / (pi^{1/2} Gamma(1 - s))``.
    For ``s = 1/2`` this is ``1/pi``.
    """
    return 4.0**s * math.gamma(0.5 + s) * s / (math.pi**0.5 * math.gamma(1 - s))


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per ``n``."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# The far-field rule of ``KernelSpec.one_sided_tail``: Gauss-Legendre
# panels of _TAIL_ORDER nodes, _TAIL_PANELS of them in log u up to the cut
# _TAIL_CUT * dist (each panel spans the log ratio _TAIL_LOG_RATIO), or
# _TAIL_CAPPED_PANELS when an oscillation length caps the panel widths; the
# Kaiser parameter of the taper; and the nodes per block (a block holds a
# few arrays of _TAIL_BLOCK floats, 256 kB each).
_TAIL_ORDER = 8
_TAIL_PANELS = 10
_TAIL_CUT = 1e4
_TAIL_LOG_RATIO = math.log(_TAIL_CUT) / _TAIL_PANELS
_TAIL_CAPPED_PANELS = 50
_TAPER_BETA = 20.0
_TAIL_BLOCK = 32_000


def _kaiser_taper(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Kaiser bump ``I0(2 beta sqrt(z (1 - z)))`` on (0, 1) with
    ``beta = _TAPER_BETA``, scaled to unit integral, and the taper ``1 -
    int_0^z bump``, at each ``z`` in [0, 1].  The bump is Kaiser's window,
    an entire function of ``z`` whose Fourier transform stays below
    ``beta / sinh(beta)`` (8e-8) of its peak beyond the frequency
    ``2 beta``, so a mean taken under it sees almost none of a faster
    oscillation."""
    x, w = gauss_legendre(24)

    def bump(zz):
        return np.i0(2.0 * _TAPER_BETA * np.sqrt(zz * (1.0 - zz)))

    total = 0.5 * float(bump(0.5 * (x + 1.0)) @ w)
    # the running integral by a 24-node Gauss-Legendre rule on [0, z] per
    # point, within 1e-14 of the exact integral of this entire function
    cumulative = 0.5 * z * (bump(0.5 * z[:, None] * (x + 1.0)) @ w)
    return bump(z) / total, 1.0 - cumulative / total


@lru_cache(maxsize=None)
def _tail_layout(capped: bool):
    """Read-only node layout of the far-field rule in the panel coordinate
    ``y`` (panel ``j`` is ``j <= y <= j + 1``): the nodes ``y``, the log
    panels' ``u / dist = r^y``, the weights in ``y`` of the near part
    (times the taper ``chi``) and of the far model (times ``1 - chi``), the
    far-coefficient weights ``omega`` (summing to 1), and the first node
    the far part reads.

    Without an oscillation length there is no taper (``chi = 1``) and the
    far coefficient is read at the last node.  With one, ``chi`` falls
    smoothly from 1 to 0 over the second half of the panels and ``omega``
    is the matching smooth bump, so the part of the integrand beyond the
    panels' midpoint is replaced by its mean times the far model.
    """
    panels = _TAIL_CAPPED_PANELS if capped else _TAIL_PANELS
    x, w = gauss_legendre(_TAIL_ORDER)
    y = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)).ravel()
    wy = np.tile(0.5 * w, panels)
    n = len(y)
    chi, omega = np.ones(n), np.zeros(n)
    if capped:
        half = 0.5 * panels
        first = int(np.argmax(y > half))
        bump, chi[first:] = _kaiser_taper((y[first:] - half) / half)
        omega[first:] = bump * wy[first:]
        omega /= omega.sum()
    else:
        omega[-1] = 1.0
        first = n - 2
    layout = (y, np.exp(_TAIL_LOG_RATIO * y), wy * chi, wy * (1.0 - chi), omega)
    for a in layout:
        a.flags.writeable = False
    return layout + (first,)


class KernelSpec:
    """Base class for jump kernels; subclasses implement ``_eval``.

    Evaluation is vectorized over ``v`` and ``w``; the batched barrier
    residual also passes ``t`` and ``x`` as 1-D arrays of the same length.
    ``v == w`` is a singularity.

    ``oscillation_length`` is a velocity length over which the kernel's
    multiplier ``|v - w|^{1+2s} K`` may oscillate.  No far-field panel is
    wider, and the far part averages out an oscillation whose period lies
    between about 0.6 and 4 such lengths (measured: relative error below
    1e-7; a slower one is not averaged out).  ``None`` declares a pure
    power law in ``|v - w|``.  The default, 2, covers periods from about
    1.3 to 8, such as the ``2 pi`` of ``cos(v + w)``.
    """

    s: float
    oscillation_length: float | None = 2.0

    def _eval(self, t, x, v, w):  # pragma: no cover - abstract
        raise NotImplementedError

    def one_sided_tail(self, v, dist, t=0.0, x=0.0, side: int = +1, weight=None):
        """One-sided far field ``int_dist^inf K(t, x, v, v + side u) weight(v + side u) du``
        (``side`` is +1 or -1), vectorized over broadcastable ``v, dist, t, x``.

        ``weight`` is an optional far-field envelope ``weight(w)``.  The
        rule is composite Gauss-Legendre, ``_TAIL_ORDER`` nodes per panel.
        Panels grow by the ratio ``r = _TAIL_CUT ** (1 / _TAIL_PANELS)``
        (Gauss-Legendre in ``log u``), so a kernel without an
        ``oscillation_length`` takes ``_TAIL_PANELS`` panels to the cut
        ``_TAIL_CUT * dist``: 80 evaluations per point.  A kernel with one
        takes ``_TAIL_CAPPED_PANELS`` panels no wider than that length,
        uniform once the log panels would be wider (400 evaluations).

        Past the panels the integrand is a far coefficient times the far
        model ``h = u^{-(1+2s)} weight``.  The model is continued past the
        last panel as the power law whose exponent matches the decay of
        ``h`` over the last two nodes, weight included.  Without an
        oscillation length the coefficient ``u^{1+2s} K`` is read at the
        last node.  With one, the second half of the panels is tapered out
        by the running integral of a Kaiser bump, and the coefficient is the
        mean of ``u^{1+2s} K`` under that bump, so an oscillating multiplier
        enters the far part by its mean.

        Stated error, relative, measured for ``dist`` in [0.25, 3]: below
        1e-12 for ``c u^{-(1+2s)}`` times a power-law envelope ``|w|^{-p}``
        at ``v = 0`` (s in [0.1, 0.9], p in [0.5, 2]); below 1e-8 against
        QUADPACK's QAWF for the multiplier ``1 + cos(v + w) / 2`` (s in
        [0.1, 0.75]).  Off centre, the slope match misses the envelope's
        curvature in ``u`` beyond the cut, an error of order ``p |v| /
        (_TAIL_CUT dist)`` times the remainder's share: 1e-5 at worst for
        ``v = 3.9``, ``dist = 0.1``, s = 0.1, p = 0.5.

        Points are taken in blocks of at most ``_TAIL_BLOCK`` nodes.
        Scalar inputs give a float.
        """
        v, dist, t, x = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (v, dist, t, x)))
        shape = v.shape
        v, dist, t, x = (a.reshape(-1, 1) for a in (v, dist, t, x))
        length = self.oscillation_length
        y, r_y, w_near, w_far, omega, first = _tail_layout(length is not None)
        panels = len(y) // _TAIL_ORDER
        alpha = 1 + 2 * self.s
        out = np.empty(v.shape[0])
        step = max(1, _TAIL_BLOCK // len(y))
        for i in range(0, len(out), step):
            b = slice(i, i + step)
            db = dist[b]
            # nodes u and du/dy
            if length is None:
                u = db * r_y
                jac = u * _TAIL_LOG_RATIO
                end = db[:, 0] * _TAIL_CUT
            else:
                # log panels while they are narrower than the length, then
                # uniform ones from the knee, the start of panel j
                j = np.ceil(np.log(length / (math.expm1(_TAIL_LOG_RATIO) * db)) / _TAIL_LOG_RATIO)
                j = np.clip(j, 0, panels)
                knee = db * np.exp(_TAIL_LOG_RATIO * j)
                u = length * y + (knee - length * j)
                jac = np.full_like(u, length)
                k = int(j.max()) * _TAIL_ORDER
                if k:
                    log_part = y[:k] < j
                    u[:, :k] = np.where(log_part, db * r_y[:k], u[:, :k])
                    jac[:, :k] = np.where(log_part, u[:, :k] * _TAIL_LOG_RATIO, length)
                end = (knee + length * (panels - j))[:, 0]
            w = v[b] + u if side > 0 else v[b] - u
            vals = np.asarray(self._eval(t[b], x[b], np.broadcast_to(v[b], w.shape), w), dtype=float)
            if weight is None:
                g, far_weight = vals, 1.0
            else:
                weights = np.broadcast_to(weight(w), w.shape)
                g, far_weight = vals * weights, weights[:, first:]
            near = (g * jac * w_near).sum(axis=1)
            # the far part from the columns `first` on: coefficient m and model h
            uf = u[:, first:]
            power = uf ** -alpha
            m = (vals[:, first:] / power * omega[first:]).sum(axis=1)
            h = power * far_weight
            model = (h * jac[:, first:] * w_far[first:]).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                a = np.log(h[:, -2] / h[:, -1]) / np.log(uf[:, -1] / uf[:, -2])
                rest = h[:, -1] * uf[:, -1] * (uf[:, -1] / end) ** (a - 1) / (a - 1)
            out[b] = near + m * (model + np.where(h[:, -1] > 0, rest, 0.0))
        return float(out[0]) if shape == () else out.reshape(shape)

    def tail_mass(self, v, r, t=0.0, x=0.0):
        """Two-sided tail ``int_{|w - v| > r} K(v, w) dw``."""
        return self.one_sided_tail(v, r, t, x, +1) + self.one_sided_tail(v, r, t, x, -1)


@dataclass(frozen=True)
class FractionalLaplacian(KernelSpec):
    """Kernel ``c |v - w|^{-(1 + 2s)}``; a fixed point of kinetic scaling."""

    c: float
    s: float
    oscillation_length = None

    def _eval(self, t, x, v, w):
        return self.c * np.abs(v - w) ** -(1 + 2 * self.s)

    def one_sided_tail(self, v, dist, t=0.0, x=0.0, side=+1, weight=None):
        if weight is not None:
            return super().one_sided_tail(v, dist, t, x, side, weight)
        # int_dist^inf c u^{-(1+2s)} du = c dist^{-2s} / (2s)
        shape = np.broadcast_shapes(*map(np.shape, (v, dist, t, x)))
        tail = self.c * np.asarray(dist, dtype=float) ** (-2 * self.s) / (2 * self.s)
        return float(tail) if shape == () else np.broadcast_to(tail, shape).copy()


def normalized_fractional(s: float) -> FractionalLaplacian:
    """The fractional kernel whose operator has symbol ``-|xi|^{2s}``."""
    return FractionalLaplacian(c=frac_normalization(s), s=s)


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

    def _a(self, v, w):
        return 0.5 * (self.multiplier(v, w) + self.multiplier(w, v))

    def _eval(self, t, x, v, w):
        return self._a(v, w) * self.base._eval(t, x, v, w)


# ---------------------------------------------------------------------------
# ellipticity checks
# ---------------------------------------------------------------------------


# The coercivity test functions are supported in [-_BOX, _BOX].
_BOX = 2.0


def check_symmetry(k: KernelSpec, samples: int = 256, seed: int = 0) -> dict:
    """Max relative asymmetry ``|K(v,w) - K(w,v)| / (K(v,w)+K(w,v)+eps)`` at t = x = 0."""
    tol = 1e-12
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    v = rng.uniform(-3.0, 3.0, samples)
    w = rng.uniform(-3.0, 3.0, samples)
    w = np.where(np.abs(v - w) < 1e-6, w + 1.0, w)
    kvw = np.asarray(k._eval(0.0, 0.0, v, w), dtype=float)
    kwv = np.asarray(k._eval(0.0, 0.0, w, v), dtype=float)
    eps = 1e-300
    asym = float(np.max(np.abs(kvw - kwv) / (kvw + kwv + eps)))
    return {
        "kernel": type(k).__name__,
        "quantity": "symmetry",
        "max_relative_asymmetry": asym,
        "tolerance": tol,
        "pass": asym <= tol,
    }


def check_upper_bound(k: KernelSpec) -> dict:
    """Fit the smallest ``Lambda0`` with ``tail(v, r) <= Lambda0 r^{-2s}``
    over ``r`` in {0.25, 0.5, 1, 2} and ``v`` in {0, 0.7, -1.3}.

    It passes when the fit is at most ``1 + tolerance`` times the kernel's
    declared upper constant: the two-sided tail of ``c |v - w|^{-(1+2s)}``
    is ``c r^{-2s} / s``, and a perturbation scales it by at most ``a_max``.
    """
    if isinstance(k, SymmetricPerturbation):
        declared = k.a_max * k.base.c / k.s
    elif isinstance(k, FractionalLaplacian):
        declared = k.c / k.s
    else:
        raise TypeError(f"{type(k).__name__} declares no upper constant")
    tolerance = 0.05
    r = np.array([0.25, 0.5, 1.0, 2.0])
    tail = k.tail_mass(np.array([0.0, 0.7, -1.3])[:, None], r)
    if not np.all(np.isfinite(tail)):
        raise ValueError("non-integrable kernel tail")
    fits = (tail * r ** (2 * k.s)).ravel().tolist()
    fitted = max(fits)
    return {
        "kernel": type(k).__name__,
        "quantity": "upper_bound",
        "fitted_constant": fitted,
        "per_sample": fits,
        "tolerance": tolerance,
        "closure": "closed_form" if isinstance(k, FractionalLaplacian) else "power_law_extrapolation",
        "pass": fitted <= (1 + tolerance) * declared,
    }


def _bump(u):
    """Smooth bump supported on (-1, 1)."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def default_test_family():
    """Tensor and oscillatory bumps, compactly supported in [-_BOX, _BOX]."""
    fam = [("bump", lambda v: _bump(v / _BOX))]
    for freq in (1.0, 2.0, 4.0):
        fam.append(
            (f"osc{freq:g}", lambda v, f=freq: _bump(v / _BOX) * np.cos(f * v))
        )
    fam.append(("shifted", lambda v: _bump((v - 0.5 * _BOX) / (0.5 * _BOX))))
    return fam


def check_coercivity(k: KernelSpec, lambda0: float = 1.0) -> dict:
    """Smallest ratio of energy form to ``lambda0`` times the Gagliardo form
    over ``default_test_family``.

    Both sides use the identical symmetrized double quadrature over the
    box (diagonal cells excluded) plus far-field tail corrections for
    the part where one argument leaves the box.
    """
    test_functions = default_test_family()
    s, n, tol = k.s, 256, 0.05
    grid = np.linspace(-2 * _BOX, 2 * _BOX, n, endpoint=False)
    h = grid[1] - grid[0]
    V, W = np.meshgrid(grid, grid, indexing="ij")
    off = ~np.eye(n, dtype=bool)
    KVW = np.zeros((n, n))
    KVW[off] = np.asarray(k._eval(0.0, 0.0, V[off], W[off]), dtype=float)
    ref = FractionalLaplacian(c=1.0, s=s)
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
        "lambda0": lambda0,
        "skipped": skipped,
        "tolerance": tol,
        "pass": fitted >= 1.0 - tol,
    }


# ---------------------------------------------------------------------------
# declarative kernel config
# ---------------------------------------------------------------------------


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
    # the one velocity dimension may be stated, as "d = 1"
    if pairs.get("d", "1") != "1":
        raise ValueError(f"kernel config key 'd' = {pairs['d']!r} violates the rule d = 1 (one velocity dimension)")
    s = number("s")
    base = FractionalLaplacian(c=number("c"), s=s)
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
