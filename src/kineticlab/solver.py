"""Strang-split time stepper for the kinetic jump equation.

One step of size ``dt`` applies a half step of free transport, a full
collision step, and another half transport step.  Transport is diagonal
in the x-wavenumber and the velocity, and the collision map acts on the
velocity alone, so ``solve`` keeps its state in x-Fourier space between
steps: ``G = rfft_x(f)``, held as a C-contiguous ``(nv, nx//2 + 1)``
complex array.  A transport half step is then one product with a cached
phase table ``exp(-i phi dt/2 v)``.  The collision step is one
precomputed affine map ``f <- M f + b`` per velocity column (explicit
Euler, implicit Euler or Crank-Nicolson, built once from the dense
velocity operator by ``collision_propagator``); the real ``M`` acts on
the interleaved real and imaginary parts of ``G``, and ``b`` only enters
the k = 0 column.  Each step makes one inverse transform, for the
recorded diagnostics and the saved slices.  ``step_transport`` and
``step_collision`` are the same two maps on a physical ``(nx, nv)``
slice.

The kernel is frozen at ``(t, x) = (t_freeze, 0)`` when the velocity
matrix is assembled, so kernels with genuine (t, x) dependence are
treated in frozen-coefficient fashion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .fields import PhaseField, PhaseGrid, ZeroExtension
from .fundsol import j0_table, modified_convolution
from .kernels import KernelSpec
from .operators import OperatorMatrix, assemble_operator_matrix

__all__ = [
    "SolverConfig",
    "Trajectory",
    "trajectory_field",
    "step_transport",
    "collision_propagator",
    "step_collision",
    "solve",
    "fundamental_approx",
    "mollified_delta",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    ``scheme`` is "explicit" (forward Euler), "implicit" (backward
    Euler) or "cn" (Crank-Nicolson; second order and unconditionally
    stable, the default).  ``torus=True`` closes the velocity box
    periodically; jumps longer than half the period are removed on the
    diagonal as a small leak.  Otherwise mass leaks through the far
    field at the analytically expected rate.  Either way the leak is
    tracked, so ``Trajectory.mass_drift`` stays at rounding level.
    ``dt`` and ``t_freeze`` must be finite.
    """

    dt: float
    steps: int
    scheme: str = "cn"
    torus: bool = True
    save_every: int = 1
    t_freeze: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_freeze)):
            raise ValueError("dt and t_freeze must be finite")
        if self.dt <= 0 or self.steps < 1:
            raise ValueError("need dt > 0 and steps >= 1")
        if self.scheme not in ("explicit", "implicit", "cn"):
            raise ValueError("scheme must be 'explicit', 'implicit' or 'cn'")
        if self.save_every < 1:
            raise ValueError("save_every must be positive")


@dataclass
class Trajectory:
    """Saved slices, with their times in ``slice_times``, plus per-step
    diagnostics at every step time in ``times``."""

    grid: PhaseGrid
    times: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    slice_times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    minimum: list = field(default_factory=list)
    maximum: list = field(default_factory=list)
    l2: list = field(default_factory=list)
    leak_total: float = 0.0

    def record(self, t: float, f: np.ndarray, keep_slice: bool):
        g = self.grid
        self.times.append(t)
        self.mass.append(float(f.sum() * g.dx * g.dv))
        self.minimum.append(float(f.min()))
        self.maximum.append(float(f.max()))
        self.l2.append(float(np.sqrt((f * f).sum() * g.dx * g.dv)))
        if keep_slice:
            self.slices.append(f.copy())
            self.slice_times.append(t)

    @property
    def final(self) -> np.ndarray:
        return self.slices[-1]

    def mass_drift(self) -> float:
        """Mass change corrected for the tracked far-field leak."""
        return abs(self.mass[-1] + self.leak_total - self.mass[0])


@lru_cache(maxsize=8)
def _transport_phase(grid: PhaseGrid, dt: float) -> np.ndarray:
    """Read-only ``exp(-i phi dt v)`` on the ``rfft`` frequencies in x,
    laid out ``(nv, nx//2 + 1)`` like the state of ``solve``.

    For even ``nx`` the Nyquist column keeps only its real part: the
    Nyquist coefficient of a real slice is real, and ``irfft`` would
    drop the imaginary part a full phase gives it.
    """
    phi = 2 * np.pi * np.fft.rfftfreq(grid.nx, d=grid.dx)
    phase = np.exp(-1j * grid.v_axis[:, None] * dt * phi[None, :])
    if grid.nx % 2 == 0:
        phase[:, -1] = phase[:, -1].real
    phase.flags.writeable = False
    return phase


def step_transport(f: np.ndarray, dt: float, grid: PhaseGrid) -> np.ndarray:
    """Exact free transport ``f(x, v) -> f(x - dt v, v)`` by Fourier
    phase shift (periodic in x)."""
    Fh = np.fft.rfft(f, axis=0)
    Fh *= _transport_phase(grid, dt).T
    return np.fft.irfft(Fh, n=grid.nx, axis=0)


def collision_propagator(op: OperatorMatrix, dt: float, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """``(M, b)`` such that one collision step of ``scheme`` is
    ``f <- f @ M.T + b`` for the operator ``A f + gain``:

    * explicit: ``M = I + dt A``, ``b = dt gain``;
    * implicit: ``M = (I - dt A)^{-1}``, ``b = dt M gain``;
    * cn: ``M = (I - dt/2 A)^{-1} (I + dt/2 A)``, ``b = dt (I - dt/2 A)^{-1} gain``.
    """
    A, eye = op.matrix, np.eye(op.matrix.shape[0])
    if scheme == "explicit":
        return eye + dt * A, dt * op.gain
    theta = 1.0 if scheme == "implicit" else 0.5
    lhs = eye - theta * dt * A
    rhs = np.column_stack([eye + (1.0 - theta) * dt * A, dt * op.gain])
    sol = np.linalg.solve(lhs, rhs)
    return sol[:, :-1], sol[:, -1]


def step_collision(f: np.ndarray, dt: float, op: OperatorMatrix, scheme: str, prop=None) -> np.ndarray:
    """One collision step on a ``(nx, nv)`` slice; ``prop`` is the
    ``collision_propagator(op, dt, scheme)`` of the run, built here when
    not given."""
    M, b = collision_propagator(op, dt, scheme) if prop is None else prop
    out = f @ M.T
    out += b
    return out


def _x_spectrum(h, grid: PhaseGrid, what: str) -> np.ndarray:
    """``rfft_x`` of an ``(nx, nv)`` slice as a C-contiguous ``(nv, nx//2 + 1)`` array."""
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.nx, grid.nv):
        raise ValueError(f"{what} shape does not match grid")
    return np.fft.rfft(h, axis=0).T.copy()


def _source_step(h, grid: PhaseGrid, dt: float) -> tuple[np.ndarray, float]:
    """What a source slice ``h`` adds over one step: ``dt rfft_x(h)`` and
    its mass ``dt sum(h) dx dv``."""
    h = np.asarray(h, dtype=float)
    return dt * _x_spectrum(h, grid, "source slice"), dt * float(h.sum() * grid.dx * grid.dv)


def solve(
    k: KernelSpec,
    f0: np.ndarray,
    grid: PhaseGrid,
    config: SolverConfig,
    closure=None,
    source=None,
) -> Trajectory:
    """Run the Strang-split scheme from the slice ``f0``.

    ``source`` may be ``None``, a slice, or a callable of time (called
    once per step, at its midpoint); it is added with the collision
    step.  The collision matrix is assembled once (kernel frozen at
    ``t_freeze``).  Diagnostics are recorded at every step; a slice is
    kept every ``save_every`` steps and at the last one.
    """
    if closure is None:
        closure = ZeroExtension()
    f = np.asarray(f0, dtype=float)
    G = _x_spectrum(f, grid, "initial slice")
    dt = config.dt
    op = assemble_operator_matrix(k, grid, t=config.t_freeze, x=0.0, closure=closure, torus=config.torus)
    M, b = collision_propagator(op, dt, config.scheme)
    b_hat = grid.nx * b  # rfft_x of the x-independent gain: the k = 0 column only
    half = _transport_phase(grid, 0.5 * dt)
    if source is not None and not callable(source):
        source_hat, source_mass = _source_step(source, grid, dt)

    traj = Trajectory(grid=grid)
    traj.record(0.0, f, keep_slice=True)
    for n in range(1, config.steps + 1):
        G *= half
        before = G[:, 0].real.sum()
        # the real M acts on the interleaved real and imaginary parts
        G = (M @ G.view(float)).view(complex)
        G[:, 0] += b_hat
        traj.leak_total += float((before - G[:, 0].real.sum()) * grid.dx * grid.dv)
        if source is not None:
            if callable(source):
                source_hat, source_mass = _source_step(source((n - 0.5) * dt), grid, dt)
            G += source_hat
            traj.leak_total -= source_mass
        G *= half
        f = np.fft.irfft(G, n=grid.nx, axis=1).T
        traj.record(n * dt, f, keep_slice=(n % config.save_every == 0 or n == config.steps))
    return traj


def trajectory_field(traj: Trajectory, farfield=None) -> PhaseField:
    """Bundle the saved slices into a time-resolved field."""
    g = traj.grid
    if len(traj.slices) != len(traj.times):
        raise ValueError("trajectory must be run with save_every=1 to bundle a field")
    grid = PhaseGrid(nt=len(traj.slices), nx=g.nx, nv=g.nv, x_period=g.x_period,
                     v_extent=g.v_extent, t0=traj.times[0], t1=traj.times[-1])
    values = np.stack(traj.slices, axis=0)
    return PhaseField(grid, values, farfield)


def mollified_delta(grid: PhaseGrid, s: float, x0: float = 0.0, v0: float = 0.0, width: float | None = None) -> np.ndarray:
    """Kinetic Gaussian approximating a point mass at ``(x0, v0)``.

    The velocity width defaults to ``2 max(dx^{1/(1+2s)}, dv)`` and the
    position width is its ``(1 + 2s)`` power, matching the anisotropic
    scaling.  Normalized to unit discrete mass.
    """
    if width is None:
        width = 2.0 * max(grid.dx ** (1.0 / (1 + 2 * s)), grid.dv)
    sig_v = width
    sig_x = width ** (1 + 2 * s)
    X, V = np.meshgrid(grid.x_axis, grid.v_axis, indexing="ij")
    g = np.exp(-0.5 * ((X - x0) / sig_x) ** 2 - 0.5 * ((V - v0) / sig_v) ** 2)
    g /= g.sum() * grid.dx * grid.dv
    return g


def fundamental_approx(
    k: KernelSpec,
    grid: PhaseGrid,
    T: float,
    config: SolverConfig,
    s: float,
    n_freq: int = 1024,
) -> dict:
    """Evolve a mollified point mass and compare with the explicit
    fundamental solution at time ``T``.

    The comparison convolves the tabulated propagator with the same
    mollifier (sheared convolution at time ``T``), so the two fields
    approximate the same object.  The reference table needs a finer
    frequency grid than the default: the slow velocity tails otherwise
    alias back into the box at the percent level.  Reports the sup-relative error on the
    region where the reference exceeds 1% of its peak, and the mass
    drift of the run.
    """
    if abs(config.dt * config.steps - T) > 1e-12:
        raise ValueError("config horizon does not match T")
    f0 = mollified_delta(grid, s)
    # only the final slice is read
    traj = solve(k, f0, grid, replace(config, save_every=config.steps))
    fT = traj.final

    tab = j0_table(T, s, n_freq)
    X, V = np.meshgrid(grid.x_axis, grid.v_axis, indexing="ij")
    Jt = tab.sample(X, V)
    ref = modified_convolution(f0, Jt, T, grid.dx, grid.dv, warn=False)

    peak = ref.max()
    mask = ref > 0.01 * peak
    rel = np.abs(fT[mask] - ref[mask]) / ref[mask]
    return {
        "sup_rel_error": float(rel.max()),
        "mass_drift": traj.mass_drift(),
        "mass_initial": traj.mass[0],
        "mass_final": traj.mass[-1],
        "reference_peak": float(peak),
        "computed_peak": float(fT.max()),
    }
