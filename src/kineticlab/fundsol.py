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
``xi`` and ``-xi`` values.  The result is point-symmetric too, so only
its half ``x >= 0`` is transformed and the half ``x < 0`` is its
reflection.  Its ``pad`` returns the centre block of the lattice ``pad``
times larger, whose box holds the periodic images of the slow tails
further out, without holding that lattice: the spectrum is sampled and
transformed along ``phi`` in blocks of ``xi`` rows, each no larger than
the result, and only the kept ``x >= 0`` columns are stored and inverted
along ``xi``, so the build holds about ``pad`` results.
A table is ``(s, t, n_freq)``: a view at time ``t`` of the unit-time
profile, which is ``j0_lattice`` at ``t = 1`` (``pad = 1``) on the
lattice dual to frequency extents grown automatically until the symbol
is below a target at the boundary.

``FundamentalSolutionTable.sample`` reads the unit-time profile by the
tensor-product not-a-knot cubic interpolant on its uniform axes (the
interpolant of FITPACK's ``regrid`` at ``s = 0``, de Boor 1978), held as
uniform cubic B-spline coefficients and evaluated with the closed-form
cardinal weights (Unser 1999).  It is zero outside the tabulated box,
and its time argument broadcasts with the points.

Unit-time profiles and their samplers are cached per exact
``(n_freq, s)`` and held read-only.  Every table of one profile samples
through its one sampler, built on the first ``sample`` of any of them,
and holds no array until its axes or values are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        # Phi(1) - Phi(0) with at most two full-size temporaries alive
        u1 = np.subtract(a, b, out=np.empty(np.broadcast_shapes(a.shape, b.shape)))
        out = np.abs(u1, out=np.empty_like(u1))
        np.power(out, p, out=out)
        np.multiply(u1, out, out=out)
        del u1
        den = b * (p + 1)
        np.negative(out, out=out)
        np.divide(out, den, out=out)  # Phi(1)
        np.subtract(out, -(a * abs_a_p) / den, out=out)
        np.copyto(out, abs_a_p, where=zero)
        return out


def j0_hat_exponent(phi, xi, s: float):
    """``int_0^1 |xi - tau phi|^{2s} dtau`` (exact closed form)."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return _abs_power_integral(xi, phi, 2 * s)


def j0_hat(phi, xi, s: float):
    """Symbol value ``exp(-j0_hat_exponent)``; equals 1 iff both vanish."""
    return np.exp(-j0_hat_exponent(phi, xi, s))


_BOUNDARY_TARGET = 1e-8


def _auto_extents(s: float):
    """Grow (Phi, Xi) until the symbol is below ``_BOUNDARY_TARGET`` on the box edge."""
    Phi = Xi = 5.0
    probe = np.linspace(-1.0, 1.0, 65)
    for _ in range(12):
        edge_phi = float(np.max(j0_hat(-Phi, Xi * probe, s)))
        edge_xi = float(np.max(j0_hat(-Phi * probe, Xi, s)))
        if edge_phi <= _BOUNDARY_TARGET and edge_xi <= _BOUNDARY_TARGET:
            return Phi, Xi
        if edge_phi > _BOUNDARY_TARGET:
            Phi *= 2.0
        if edge_xi > _BOUNDARY_TARGET:
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

    The result is point-symmetric as well, ``J(-x, -v) = J(x, v)``, so only
    its ``x`` nodes ``k = 0 .. nx // 2`` are transformed; each node ``-k``
    is written from node ``k`` at the mirrored ``v``.  For a real symbol
    row the forward real transform scaled by ``1 / mx``, conjugated, is
    the inverse transform at ``k >= 0``.  The half spectrum is built in
    blocks of ``max(1, nv // pad)`` ``xi`` rows: each block is sampled and
    transformed along ``phi``, and only its ``nx // 2 + 1`` kept columns
    are stored; one real inverse transform along ``xi`` of those columns
    then gives ``mv`` ``v`` rows.  A block holds no more symbol values than
    the result has, so at ``pad = 1`` the whole half spectrum is one
    block.  Besides the result, the build holds one block's symbol
    temporaries (at most two of the result's size at once), the kept
    columns (``(nx // 2 + 1) (mv // 2 + 1)`` complex values) and their
    transform (``mv (nx // 2 + 1)`` reals): about ``pad`` results in all,
    never the ``(mx, mv)`` lattice.
    """
    t = float(_positive_time(t))

    def symbol(phi, xi):
        G = j0_hat_exponent(-t * phi, xi, s)
        np.multiply(G, -t, out=G)
        return np.exp(G, out=G)

    mx, mv = pad * nx, pad * nv
    dphi, dxi = 2 * np.pi / (mx * dx), 2 * np.pi / (mv * dv)
    phi = dphi * (np.fft.fftfreq(mx) * mx)
    xi = dxi * (np.fft.fftfreq(mv) * mv)
    n_half = mv // 2 + 1
    n_cols = nx // 2 + 1  # x nodes k = 0 .. nx // 2
    rows = max(1, nv // pad)
    spec = None if pad == 1 else np.empty((n_half, n_cols), dtype=complex)
    for start in range(0, n_half, rows):
        half = np.arange(start, min(start + rows, n_half))
        G = symbol(phi[None, :], xi[half, None])
        if mx % 2 == 0:
            # the xi-mirror of row j is row -j (mod mv); at j = mv/2 it is itself
            G[:, mx // 2] += symbol(phi[mx // 2], xi[-half])
            G[:, mx // 2] *= 0.5
        if pad == 1:
            spec = np.fft.rfft(G, axis=1, norm="forward")  # exactly n_cols wide
        else:
            spec[half] = np.fft.rfft(G, axis=1, norm="forward")[:, :n_cols]
    np.conjugate(spec, out=spec)  # the inverse transform along phi at k >= 0
    half_x = np.fft.irfft(spec, n=mv, axis=0)  # (v, k) at every v node
    # the spectrum is freed now and the last symbol block only on return.
    # Freed before the result is allocated, the block lets the result split
    # the heap's free space: a process that builds a 1024^2 table and then
    # loads a 6.7 MB field peaked 2.5 MB higher
    del spec
    half_x *= mx * mv * dphi * dxi
    half_x /= (2 * np.pi) ** 2
    # the shifted result, held transposed, (v, x), so that the (x, v) values
    # come out in Fortran order: the layout the sampler's first pass reads.
    # Shifted node (j, i) is unshifted (j - cv, i - cx)
    cx, cv = nx // 2, nv // 2
    vals = np.empty((nv, nx))
    vals[:cv, cx:] = half_x[mv - cv:, :nx - cx]
    vals[cv:, cx:] = half_x[:nv - cv, :nx - cx]
    # J(-x, -v) = J(x, v): node (-q, -k) for k = cx .. 1
    vals[:cv + 1, :cx] = half_x[cv::-1, cx:0:-1]
    vals[cv + 1:, :cx] = half_x[mv - 1:mv - nv + cv:-1, cx:0:-1]
    return vals.T


@lru_cache(maxsize=8)
def _unit_profile(n_freq: int, s: float):
    """Unit-time profile on a centered (x, v) grid.

    Returns ``(x_axis, v_axis, values, meta)``, cached per exact
    ``(n_freq, s)``; the arrays are read-only.  The values are
    ``j0_lattice`` at ``t = 1`` on the ``n_freq``-square lattice whose dual
    frequencies span the extents ``(Phi, Xi)`` of ``_auto_extents``.
    """
    Phi, Xi = _auto_extents(s)
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
        "boundary_target": _BOUNDARY_TARGET,
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
        self.n = values.shape
        self.h = tuple((hi - lo) / (n - 1) for lo, hi, n in zip(self.lo, self.hi, self.n))
        coef = _not_a_knot_coefficients(np.ascontiguousarray(values.T, dtype=float))
        coef = np.ascontiguousarray(coef.T)  # frees the first pass before the second
        self.coef = _not_a_knot_coefficients(coef).ravel()
        self.coef.flags.writeable = False

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Interpolated values at broadcast ``(x, v)``; 0 outside the box
        and at NaN.  Cell indices and weights are computed per axis on each
        input as given; only the gathers and sums run at the broadcast shape."""
        (xlo, vlo), (xhi, vhi), (hx, hv), (nx, nv) = self.lo, self.hi, self.h, self.n
        in_x = (x >= xlo) & (x <= xhi)
        in_v = (v >= vlo) & (v <= vhi)
        ix, wx = _cardinal_weights(np.where(in_x, np.clip((x - xlo) / hx, 0.0, nx - 1), 0.0), nx)
        iv, wv = _cardinal_weights(np.where(in_v, np.clip((v - vlo) / hv, 0.0, nv - 1), 0.0), nv)
        stride = nv + 2
        row_offset = ix * stride
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))
        for a in range(4):
            base = row_offset + iv  # at the broadcast shape
            row = wv[0] * self.coef.take(base)
            for b in range(1, 4):
                row += wv[b] * self.coef.take(base + b)
            out += wx[a] * row
            row_offset += stride
        return np.where(in_x & in_v, out, 0.0)


@lru_cache(maxsize=8)
def _unit_sampler(n_freq: int, s: float) -> _BicubicSampler:
    """The sampler of the cached unit-time profile, built once and shared by
    every table of that profile."""
    return _BicubicSampler(*_unit_profile(n_freq, s)[:3])


@dataclass(frozen=True)
class FundamentalSolutionTable:
    """``J`` at time ``t``: the cached unit-time profile of ``(n_freq, s)``
    seen through the self-similar rescaling, its arrays at ``t`` computed
    on first read."""

    s: float
    t: float
    n_freq: int

    @cached_property
    def x_axis(self) -> np.ndarray:
        return _unit_profile(self.n_freq, self.s)[0] * self.t ** (1 + 1 / (2 * self.s))

    @cached_property
    def v_axis(self) -> np.ndarray:
        return _unit_profile(self.n_freq, self.s)[1] * self.t ** (1 / (2 * self.s))

    @cached_property
    def values(self) -> np.ndarray:
        return _unit_profile(self.n_freq, self.s)[2] * self.t ** -peak_decay_exponent(self.s)

    @property
    def meta(self) -> dict:
        return dict(_unit_profile(self.n_freq, self.s)[3])

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
        ``v``; every entry must be finite and positive, and every ``x`` and
        ``v`` finite (else ``ValueError``).  The profile is read by the
        tensor-product not-a-knot cubic interpolant on the unit-time axes
        (the same interpolant as FITPACK's ``regrid`` at ``s = 0``); points
        outside the tabulated box give 0.
        """
        s = self.s
        t = _positive_time(self.t if t is None else t)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        for name, q in (("x", x), ("v", v)):
            if not np.isfinite(q).all():
                raise ValueError(f"sample coordinate {name} must be finite")
        xu = x / t ** (1 + 1 / (2 * s))
        vu = v / t ** (1 / (2 * s))
        return t**-peak_decay_exponent(s) * _unit_sampler(self.n_freq, s)(xu, vu)


def j0_table(t: float, s: float, n_freq: int = 256) -> FundamentalSolutionTable:
    """The fundamental-solution table at time ``t``; it holds no array
    until its axes or values are read."""
    t = float(_positive_time(t))
    if n_freq < 4:
        raise ValueError("n_freq must be at least 4")
    x_axis, v_axis, vals, meta = _unit_profile(n_freq, s)
    # the unit-time mass: the self-similar rescaling preserves it
    mass = float(vals.sum() * (x_axis[1] - x_axis[0]) * (v_axis[1] - v_axis[0]))
    if not abs(mass - 1.0) <= 1e-2:
        raise RuntimeError(
            f"mass deficit {abs(mass - 1.0):.2e}: increase the frequency "
            f"extents beyond ({meta['phi_extent']}, {meta['xi_extent']}) or n_freq"
        )
    return FundamentalSolutionTable(s=s, t=t, n_freq=n_freq)


def modified_convolution(f: np.ndarray, g: np.ndarray, t: float, dx: float, dv: float) -> np.ndarray:
    """Sheared convolution ``(f *_t g)(x, v) = int f(x', v') g(x - x' - t v', v - v') dx' dv'``.

    Both fields live on the same centered periodic ``(x, v)`` grid with
    the origin at index ``n // 2``.  The shear by ``t v'`` is applied in
    Fourier space (trigonometric interpolation), so it wraps around the
    periodic box; at ``t = 0`` this is the ordinary periodic convolution.

    The fields are real, so x is transformed by ``rfft`` and back by
    ``irfft``: the result is the real part of the same product taken on
    full complex transforms.  Nyquist rule: for even ``nx`` the line
    ``phi = pi/dx`` is its own mirror image, so that real part keeps only
    ``cos(phi t v')`` of its shear phase.  ``irfft`` reads only the real
    part of the line and the line of ``g`` is real, so this holds without
    touching the phase.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("fields must share a grid")
    nx, nv = f.shape
    v_axis = dv * (np.arange(nv) - nv // 2)
    phi = 2 * np.pi * np.fft.rfftfreq(nx, d=dx)
    Gh = np.fft.rfft(np.fft.ifftshift(g), axis=0)
    np.fft.fft(Gh, axis=1, out=Gh)
    Fh = np.fft.rfft(f, axis=0)
    Fh *= np.exp(-1j * phi[:, None] * t * v_axis[None, :])
    np.fft.fft(Fh, axis=1, out=Fh)
    Fh *= Gh
    del Gh
    np.fft.ifft(Fh, axis=1, out=Fh)
    out = np.fft.irfft(Fh, n=nx, axis=0)
    out *= dx * dv
    return out


def chapman_kolmogorov_residual(t1: float, t2: float, s: float, n_freq: int = 128) -> dict:
    """Max-norm defect of composing ``J(t1)`` with ``J(t2)`` against
    ``J(t1 + t2)``, on the grid of the composite table."""
    if t1 <= 0 or t2 <= 0:
        raise ValueError("times must be positive")
    tab = j0_table(t1 + t2, s, n_freq)
    xs, vs = tab.x_axis[:, None], tab.v_axis[None, :]
    J1 = tab.sample(xs, vs, t=t1)
    J2 = tab.sample(xs, vs, t=t2)
    comp = modified_convolution(J1, J2, t2, tab.dx, tab.dv)
    resid = float(np.max(np.abs(comp - tab.values)))
    return {
        "t1": t1,
        "t2": t2,
        "n_freq": n_freq,
        "residual_max": resid,
        "peak": tab.peak(),
    }
