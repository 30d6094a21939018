"""Explicit fundamental solution of the fractional Kolmogorov equation.

For the constant-coefficient equation ``d/dt f + v d/dx f = -(-Lap_v)^s f``
with one position and one velocity dimension, the fundamental solution
is self-similar,

    J(t, x, v) = t^{-2(1+s)/(2s)} Jcal(x t^{-(1+1/(2s))}, v t^{-1/(2s)}),

where the unit-time profile has the Fourier representation

    Jcal_hat(phi, xi) = exp(-int_0^1 |xi + tau phi|^{2s} dtau)

with the forward transform convention ``e^{-i(x phi + v xi)}`` (this
sign makes the position-velocity correlation positive, matching the
forward transport direction).  The tau-integral has a closed form for
every ``s``:

    int_0^1 |a - tau b|^p dtau = Phi(1) - Phi(0),
    Phi(tau) = -(a - tau b) |a - tau b|^p / (b (p + 1)).

``j0_lattice`` builds ``J(t)`` on any centred lattice by a real 2-d
inverse FFT of the half spectrum ``xi >= 0`` of the sampled symbol: the
symbol is real and point-symmetric, so this equals the real part of the
full complex inverse FFT, once the Nyquist line ``phi = -Phi`` (which
has no ``+Phi`` partner on the grid) is replaced by the average of its
``xi`` and ``-xi`` values.  Its ``pad`` returns the centre block of the
lattice ``pad`` times larger, whose box holds the periodic images of the
slow tails further out, without holding that lattice: the spectrum is
sampled and inverted along ``phi`` in blocks of ``xi`` rows, each no
larger than the result, and only the kept ``x`` columns are stored and
inverted along ``xi``, so the build holds about ``2 pad`` results.
Tables read the unit-time profile, which is ``j0_lattice`` at ``t = 1``
(``pad = 1``) on the lattice dual to frequency extents grown
automatically until the symbol is below a target at the boundary.

``FundamentalSolutionTable.sample`` reads the unit-time profile by the
tensor-product not-a-knot cubic interpolant on its uniform axes (the
interpolant of FITPACK's ``regrid`` at ``s = 0``, de Boor 1978), held as
uniform cubic B-spline coefficients and evaluated with the closed-form
cardinal weights (Unser 1999).  It is zero outside the tabulated box,
and its time argument broadcasts with the points.

Unit-time profiles are cached per exact ``(n_freq, s, target)`` and
held read-only.  Every table ``j0_table`` makes from one profile, at any
time, samples through one sampler of that profile, built from the
profile itself on the first ``sample`` of any of them; a table that is
never sampled builds none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "j0_hat_exponent",
    "j0_hat",
    "j0_lattice",
    "j0_table",
    "FundamentalSolutionTable",
    "modified_convolution",
    "chapman_kolmogorov_residual",
    "peak_decay_exponent",
]


def peak_decay_exponent(s: float) -> float:
    """Self-similar decay rate ``2(1+s)/(2s)`` of the peak."""
    return 2 * (1 + s) / (2 * s)


def _abs_power_integral(a, b, p):
    """``int_0^1 |a - tau b|^p dtau``, exact, vectorized."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    abs_a_p = np.abs(a) ** p
    # for |b| << |a| the antiderivative difference cancels catastrophically;
    # the integrand is then constant |a|^p to relative accuracy ~ p |b/a|
    zero = np.abs(b) < np.maximum(1e-300, 1e-9 * np.abs(a))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u1 = a - b
        den = b * (p + 1)
        phi1 = -(u1 * np.abs(u1) ** p) / den
        phi0 = -(a * abs_a_p) / den
        return np.where(zero, abs_a_p, phi1 - phi0)


def j0_hat_exponent(phi, xi, s: float):
    """``int_0^1 |xi - tau phi|^{2s} dtau`` (exact closed form)."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return _abs_power_integral(xi, phi, 2 * s)


def j0_hat(phi, xi, s: float):
    """Symbol value ``exp(-j0_hat_exponent)``; equals 1 iff both vanish."""
    return np.exp(-j0_hat_exponent(phi, xi, s))


def _auto_extents(s: float, target: float = 1e-8, start: float = 5.0, max_doublings: int = 12):
    """Grow (Phi, Xi) until the symbol is below ``target`` on the box edge."""
    Phi = Xi = start
    probe = np.linspace(-1.0, 1.0, 65)
    for _ in range(max_doublings):
        edge_phi = float(np.max(j0_hat(-Phi, Xi * probe, s)))
        edge_xi = float(np.max(j0_hat(-Phi * probe, Xi, s)))
        if edge_phi <= target and edge_xi <= target:
            return Phi, Xi
        if edge_phi > target:
            Phi *= 2.0
        if edge_xi > target:
            Xi *= 2.0
    raise RuntimeError("frequency extent search did not converge")


def j0_lattice(t: float, s: float, nx: int, nv: int, dx: float, dv: float, pad: int = 1) -> np.ndarray:
    """``J(t)`` on the centred ``(nx, nv)`` lattice with spacing ``(dx, dv)``,
    cut from the lattice ``pad`` times larger along each axis.

    Node ``(i, j)`` sits at ``(dx (i - nx // 2), dv (j - nv // 2))``.  With
    ``mx, mv = pad nx, pad nv``, the symbol of ``J(t)``,
    ``exp(-t int_0^1 |xi + tau t phi|^{2s} dtau)`` (the unit-time symbol at
    the self-similar frequencies), is sampled on the dual frequencies of the
    ``(mx, mv)`` lattice and inverted by FFT, which is the trapezoid rule of
    the Fourier integral.  The result therefore carries the periodic images
    of ``J(t)`` on the ``mx dx`` by ``mv dv`` box (aliasing), which a larger
    ``pad`` pushes further out, and drops the symbol beyond ``pi / dx`` and
    ``pi / dv`` (truncation).  It equals, bit for bit, the centre ``(nx, nv)``
    block of ``j0_lattice(t, s, mx, mv, dx, dv)``.

    The symbol is real and point-symmetric, ``G(-phi, -xi) = G(phi, xi)``
    bit for bit, so the real part of the full inverse FFT is the real
    inverse FFT of the half spectrum ``xi >= 0`` (the first ``mv // 2 + 1``
    ``xi`` frequencies).  For even ``mx`` the one exception is the Nyquist
    line ``phi = -pi / dx``, whose mirror ``+pi / dx`` is not on the grid.
    The full array is not Hermitian on that line, and the real part of its
    transform reads the average of each ``xi`` value and its ``-xi``
    partner, so the half spectrum carries that average there.

    The half spectrum is built in blocks of ``max(1, nv // pad)`` ``xi``
    rows: each block is sampled, inverted along ``phi``, and only its ``nx``
    kept ``x`` columns are stored; one real inverse transform along ``xi``
    of those columns then gives ``mv`` ``v`` rows, of which the centre
    ``nv`` are kept.  A block holds no more symbol values than the result has, so at
    ``pad = 1`` the whole half spectrum is one block.  Besides the result,
    the build holds one block's symbol temporaries (each at most the
    result's size), the kept columns (``nx (mv // 2 + 1)`` complex values)
    and their transform (``mv nx`` reals): about ``2 pad`` results in all,
    never the ``(mx, mv)`` lattice.
    """
    t = float(_positive_time(t))

    def symbol(phi, xi):
        return np.exp(-t * j0_hat_exponent(-t * phi, xi, s))

    mx, mv = pad * nx, pad * nv
    dphi, dxi = 2 * np.pi / (mx * dx), 2 * np.pi / (mv * dv)
    phi = dphi * (np.fft.fftfreq(mx) * mx)
    xi = dxi * (np.fft.fftfreq(mv) * mv)
    # the half spectrum, inverted along phi at the kept x nodes, is held
    # transposed, (xi, x), so that the (x, v) values come out in Fortran
    # order: the layout the sampler's first pass reads
    n_half = mv // 2 + 1
    rows = max(1, nv // pad)
    kept = _centre_nodes(nx, mx)
    spec = None if pad == 1 else np.empty((n_half, nx), dtype=complex)
    for start in range(0, n_half, rows):
        half = np.arange(start, min(start + rows, n_half))
        G = symbol(phi[None, :], xi[half, None])
        if mx % 2 == 0:
            # the xi-mirror of row j is row -j (mod mv); at j = mv/2 it is itself
            G[:, mx // 2] += symbol(phi[mx // 2], xi[-half])
            G[:, mx // 2] *= 0.5
        if pad == 1:
            spec = np.fft.ifft(G, axis=1)  # the one block keeps every x node
        else:
            spec[half] = np.fft.ifft(G, axis=1)[:, kept]
    vals = np.fft.irfft(spec, n=mv, axis=0)
    # the spectrum is freed now and the last symbol block only on return.
    # Freed before the result is allocated, the block lets the result split
    # the heap's free space: a process that builds a 1024^2 table and then
    # loads a 6.7 MB field peaked 2.5 MB higher
    del spec
    if pad > 1:
        vals = vals[_centre_nodes(nv, mv)]
    vals = vals.T
    vals *= mx * mv * dphi * dxi
    vals /= (2 * np.pi) ** 2
    return np.fft.fftshift(vals)


def _centre_nodes(n: int, m: int) -> np.ndarray:
    """Indices of the centre ``n`` nodes of an unshifted length-``m``
    transform (node ``k`` at ``k`` mod ``m``), in unshifted order."""
    return np.r_[0:n - n // 2, m - n // 2:m]


@lru_cache(maxsize=8)
def _unit_profile(n_freq: int, s: float, target: float = 1e-8):
    """Unit-time profile on a centered (x, v) grid.

    Returns ``(x_axis, v_axis, values, meta)``, cached per exact
    ``(n_freq, s, target)``; the arrays are read-only.  The values are
    ``j0_lattice`` at ``t = 1`` on the ``n_freq``-square lattice whose dual
    frequencies span the extents ``(Phi, Xi)`` of ``_auto_extents``.
    """
    Phi, Xi = _auto_extents(s, target)
    n = n_freq
    dx, dv = np.pi / Phi, np.pi / Xi
    vals = j0_lattice(1.0, s, n, n, dx, dv)
    x_axis = dx * (np.arange(n) - n // 2)
    v_axis = dv * (np.arange(n) - n // 2)
    # the largest |value| on the physical-box edge, where the periodic
    # images of the tail fold back into the box; recorded against the peak
    edge = max(np.abs(vals[[0, -1], :]).max(), np.abs(vals[:, [0, -1]]).max())
    meta = {
        "n_freq": n,
        "phi_extent": Phi,
        "xi_extent": Xi,
        "boundary_target": target,
        "ringing": float(min(vals.min(), 0.0)),
        "edge_level": float(edge / vals[n // 2, n // 2]),
    }
    for a in (x_axis, v_axis, vals):
        a.flags.writeable = False
    return x_axis, v_axis, vals, meta


def _positive_time(t):
    """``t`` as a float array, or ``ValueError`` unless every entry is
    finite and positive."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0) & (t < np.inf)):
        raise ValueError("time t must be finite and positive")
    return t


def _uniform_step(axis: np.ndarray) -> float:
    """Node spacing of a uniform increasing axis of at least 4 nodes."""
    n = len(axis)
    if n < 4:
        raise ValueError("the cubic sampler needs at least 4 nodes per axis")
    h = float(axis[-1] - axis[0]) / (n - 1)
    if not (h > 0 and np.max(np.abs(np.diff(axis) - h)) <= 1e-8 * h):
        raise ValueError("the cubic sampler needs uniform increasing axes")
    return h


def _not_a_knot_coefficients(y: np.ndarray) -> np.ndarray:
    """Uniform cubic B-spline coefficients ``c_{-1} .. c_n`` (rows) of the
    not-a-knot interpolant of the rows ``y_0 .. y_{n-1}``, column by column.

    With ``B_k`` the cubic B-spline centred on node ``k``, interpolation
    reads ``(c_{i-1} + 4 c_i + c_{i+1}) / 6 = y_i``.  A single cubic on
    ``[x_0, x_2]`` fixes ``c_1 = (8 y_1 - y_0 - y_2) / 6`` (and likewise
    ``c_{n-2}``), which leaves a (1, 4, 1) system for ``c_2 .. c_{n-3}``,
    solved by one forward and one backward sweep; the two outer
    coefficients at each end follow from the end interpolation rows.
    """
    n = y.shape[0]
    c = np.empty((n + 2,) + y.shape[1:])
    c1 = (8.0 * y[1] - y[0] - y[2]) / 6.0
    cm = (8.0 * y[n - 2] - y[n - 3] - y[n - 1]) / 6.0
    d = c[3:n - 1]  # c_2 .. c_{n-3}
    np.multiply(y[2:n - 2], 6.0, out=d)
    if len(d):
        d[0] -= c1
        d[-1] -= cm
        # Thomas algorithm for the constant (1, 4, 1) matrix
        inv = np.empty(len(d))
        inv[0] = 0.25
        for k in range(1, len(d)):
            inv[k] = 1.0 / (4.0 - inv[k - 1])
        d[0] *= inv[0]
        for k in range(1, len(d)):
            d[k] -= d[k - 1]
            d[k] *= inv[k]
        for k in range(len(d) - 2, -1, -1):
            d[k] -= inv[k] * d[k + 1]
    c[2] = c1
    c[n - 1] = cm
    c[1] = 6.0 * y[1] - 4.0 * c[2] - c[3]
    c[0] = 6.0 * y[0] - 4.0 * c[1] - c[2]
    c[n] = 6.0 * y[n - 2] - 4.0 * c[n - 1] - c[n - 2]
    c[n + 1] = 6.0 * y[n - 1] - 4.0 * c[n] - c[n - 1]
    return c


def _cardinal_weights(u: np.ndarray, n: int):
    """Cell index ``i`` and the four cubic B-spline weights of nodes
    ``i - 1 .. i + 2`` at the node coordinates ``u`` in ``[0, n - 1]``."""
    i = np.minimum(u.astype(np.intp), n - 2)
    t = u - i
    t2 = t * t
    t3 = t2 * t
    return i, (
        (1.0 - t) ** 3 / 6.0,
        (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
        (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
        t3 / 6.0,
    )


class _BicubicSampler:
    """Tensor-product not-a-knot cubic interpolant on uniform axes: the
    interpolant FITPACK builds with knots ``x_0`` (x4), ``x_2 .. x_{n-3}``,
    ``x_{n-1}`` (x4), held as uniform B-spline coefficients."""

    def __init__(self, x_axis: np.ndarray, v_axis: np.ndarray, values: np.ndarray):
        self.lo = (float(x_axis[0]), float(v_axis[0]))
        self.hi = (float(x_axis[-1]), float(v_axis[-1]))
        self.h = (_uniform_step(x_axis), _uniform_step(v_axis))
        self.n = values.shape
        coef = _not_a_knot_coefficients(np.ascontiguousarray(values.T, dtype=float))
        coef = np.ascontiguousarray(coef.T)  # frees the first pass before the second
        self.coef = _not_a_knot_coefficients(coef).ravel()
        self.coef.flags.writeable = False

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Interpolated values at broadcast ``(x, v)``; 0 outside the box
        and at NaN."""
        (xlo, vlo), (xhi, vhi), (hx, hv), (nx, nv) = self.lo, self.hi, self.h, self.n
        inside = (x >= xlo) & (x <= xhi) & (v >= vlo) & (v <= vhi)
        ux = np.where(inside, np.clip((x - xlo) / hx, 0.0, nx - 1), 0.0)
        uv = np.where(inside, np.clip((v - vlo) / hv, 0.0, nv - 1), 0.0)
        ix, wx = _cardinal_weights(ux, nx)
        iv, wv = _cardinal_weights(uv, nv)
        stride = nv + 2
        base = ix * stride + iv
        out = np.zeros(inside.shape)
        for a in range(4):
            row = wv[0] * self.coef.take(base + a * stride)
            for b in range(1, 4):
                row += wv[b] * self.coef.take(base + (a * stride + b))
            out += wx[a] * row
        return np.where(inside, out, 0.0)


@lru_cache(maxsize=8)
def _unit_sampler(n_freq: int, s: float, target: float) -> _BicubicSampler:
    """The sampler of the cached unit-time profile, built once and shared by
    every table ``j0_table`` makes from that profile."""
    return _BicubicSampler(*_unit_profile(n_freq, s, target)[:3])


@dataclass
class FundamentalSolutionTable:
    """Gridded values of ``J`` at a fixed time.

    ``sample`` reads ``J`` at any time from these values through the
    self-similar rescaling.
    """

    s: float
    t: float
    x_axis: np.ndarray
    v_axis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    # not constructor arguments, so dataclasses.replace starts a table afresh
    _sampler: object = field(default=None, init=False, repr=False, compare=False)
    # (n_freq, s, target) of the cached unit-time profile a j0_table table samples
    _profile_key: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def dx(self) -> float:
        return float(self.x_axis[1] - self.x_axis[0])

    @property
    def dv(self) -> float:
        return float(self.v_axis[1] - self.v_axis[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.dx * self.dv)

    def peak(self) -> float:
        n = self.values.shape[0] // 2
        m = self.values.shape[1] // 2
        return float(self.values[n, m])

    def sample(self, x, v, t=None):
        """Evaluate ``J(t, x, v)`` from the unit-time profile.

        ``t`` (default: the table's time) broadcasts with ``x`` and
        ``v``; every entry must be finite and positive.  The profile is
        read by the tensor-product not-a-knot cubic interpolant on the
        unit-time axes (the same interpolant as FITPACK's ``regrid`` at
        ``s = 0``); points outside the tabulated box, and NaN points,
        give 0.  Uniform axes of at least 4 nodes are required.

        A table made by ``j0_table`` reads the cached unit-time profile it
        was made from, through the one sampler of that profile, built on
        the first ``sample`` of any table made from it.  A table made with
        the constructor builds its own sampler from its ``values``.
        """
        s = self.s
        beta = peak_decay_exponent(s)
        if self._sampler is None:
            if self._profile_key is not None:
                self._sampler = _unit_sampler(*self._profile_key)
            else:
                xu = self.x_axis / self.t ** (1 + 1 / (2 * s))
                vu = self.v_axis / self.t ** (1 / (2 * s))
                # scaled into the transposed layout the sampler reads, in one pass
                scaled = np.multiply(self.values.T, self.t**beta, order="C").T
                self._sampler = _BicubicSampler(xu, vu, scaled)
        t = _positive_time(self.t if t is None else t)
        xu = np.asarray(x, dtype=float) / t ** (1 + 1 / (2 * s))
        vu = np.asarray(v, dtype=float) / t ** (1 / (2 * s))
        return t**-beta * self._sampler(*np.broadcast_arrays(xu, vu))


def j0_table(t: float, s: float, n_freq: int = 256, target: float = 1e-8) -> FundamentalSolutionTable:
    """Build the fundamental-solution table at time ``t``."""
    t = float(_positive_time(t))
    if n_freq < 4:
        raise ValueError("n_freq must be at least 4")
    x_axis, v_axis, vals, meta = _unit_profile(n_freq, s, target)
    beta = peak_decay_exponent(s)
    tab = FundamentalSolutionTable(
        s=s,
        t=t,
        x_axis=x_axis * t ** (1 + 1 / (2 * s)),
        v_axis=v_axis * t ** (1 / (2 * s)),
        values=vals * t**-beta,
        meta=dict(meta),
    )
    tab._profile_key = (n_freq, s, target)
    mass = tab.mass()
    if not abs(mass - 1.0) <= 1e-2:
        raise RuntimeError(
            f"mass deficit {abs(mass - 1.0):.2e}: increase the frequency "
            f"extents beyond ({meta['phi_extent']}, {meta['xi_extent']}) or n_freq"
        )
    return tab


def modified_convolution(f: np.ndarray, g: np.ndarray, t: float, dx: float, dv: float, warn: bool = True) -> np.ndarray:
    """Sheared convolution ``(f *_t g)(x, v) = int f(x', v') g(x - x' - t v', v - v') dx' dv'``.

    Both fields live on the same centered periodic ``(x, v)`` grid with
    the origin at index ``n // 2``.  The shear by ``t v'`` is applied in
    Fourier space (trigonometric interpolation); at ``t = 0`` this is
    the ordinary periodic convolution.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("fields must share a grid")
    nx, nv = f.shape
    v_axis = dv * (np.arange(nv) - nv // 2)
    if warn and abs(t) * np.abs(v_axis).max() > 0.5 * nx * dx:
        warnings.warn("shear exceeds half the periodic box; wrap-around bias likely")
    phi = 2 * np.pi * np.fft.fftfreq(nx, d=dx)
    Fh = np.fft.fft(f, axis=0)
    Fh = Fh * np.exp(-1j * phi[:, None] * t * v_axis[None, :])
    Fh2 = np.fft.fft(Fh, axis=1)
    Gh = np.fft.fft2(np.fft.ifftshift(g))
    out = np.fft.ifft2(Fh2 * Gh).real * dx * dv
    return out


def chapman_kolmogorov_residual(t1: float, t2: float, s: float, n_freq: int = 128) -> dict:
    """Max-norm defect of composing ``J(t1)`` with ``J(t2)`` against
    ``J(t1 + t2)``, on the grid of the composite table."""
    if t1 <= 0 or t2 <= 0:
        raise ValueError("times must be positive")
    tab = j0_table(t1 + t2, s, n_freq)
    X, V = np.meshgrid(tab.x_axis, tab.v_axis, indexing="ij")
    J1 = tab.sample(X, V, t=t1)
    J2 = tab.sample(X, V, t=t2)
    comp = modified_convolution(J1, J2, t2, tab.dx, tab.dv, warn=False)
    resid = float(np.max(np.abs(comp - tab.values)))
    return {
        "t1": t1,
        "t2": t2,
        "n_freq": n_freq,
        "residual_max": resid,
        "peak": tab.peak(),
    }
