"""Strang-split time stepper for the kinetic jump equation.

One step of size ``dt`` applies a half step of free transport, a full
collision step, and another half transport step.  Transport is diagonal
in the x-wavenumber and the velocity, and the collision map acts on the
velocity alone, so ``solve`` keeps its state in x-Fourier space between
steps: ``G = rfft_x(f)``, held as a C-contiguous ``(nv, nx//2 + 1)``
complex array.  A transport half step is then one product with a cached
phase table ``exp(-i phi dt/2 v)``.  The collision step is one
precomputed linear map ``f <- M f`` per velocity column (explicit
Euler, implicit Euler or Crank-Nicolson, built once from the dense
velocity operator by ``collision_propagator``); the real ``M`` acts on
the interleaved real and imaginary parts of ``G``.  Each step of
``solve`` makes one inverse transform, for the recorded diagnostics and
the saved slices; ``fundamental_approx`` runs the same steps and makes
one inverse transform, of the final state.
``step_transport`` and ``step_collision`` are the same two maps on a
physical ``(nx, nv)`` slice.

The kernel is frozen at ``(t, x) = (0, 0)`` when the velocity matrix
is assembled, so kernels with genuine (t, x) dependence are treated in
frozen-coefficient fashion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import PhaseField, PhaseGrid
from .fundsol import j0_lattice, modified_convolution
from .kernels import KernelSpec
from .operators import assemble_operator_matrix

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
    ``dt`` must be finite.
    """

    dt: float
    steps: int
    scheme: str = "cn"
    torus: bool = True
    save_every: int = 1

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
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


def collision_propagator(A: np.ndarray, dt: float, scheme: str) -> np.ndarray:
    """``M`` such that one collision step of ``scheme`` for the operator
    ``A`` is ``f <- f @ M.T``:

    * explicit: ``M = I + dt A``;
    * implicit: ``M = (I - dt A)^{-1}``;
    * cn: ``M = (I - dt/2 A)^{-1} (I + dt/2 A)``.
    """
    eye = np.eye(A.shape[0])
    if scheme == "explicit":
        return eye + dt * A
    theta = 1.0 if scheme == "implicit" else 0.5
    return np.linalg.solve(eye - theta * dt * A, eye + (1.0 - theta) * dt * A)


def step_collision(f: np.ndarray, dt: float, op: np.ndarray, scheme: str, prop=None) -> np.ndarray:
    """One collision step on a ``(nx, nv)`` slice for the operator ``op``;
    ``prop`` is the ``collision_propagator(op, dt, scheme)`` of the run,
    built here when not given."""
    M = collision_propagator(op, dt, scheme) if prop is None else prop
    return f @ M.T


def _strang_steps(k: KernelSpec, f: np.ndarray, grid: PhaseGrid, config: SolverConfig):
    """Run the Strang-split scheme from the slice ``f`` and yield, after
    each step, the state ``G = rfft_x(f)`` and the mass that step leaked.

    The yielded state is updated in place by the next step.
    """
    G = np.fft.rfft(f, axis=0).T.copy()
    dt = config.dt
    M = collision_propagator(assemble_operator_matrix(k, grid, torus=config.torus), dt, config.scheme)
    half = _transport_phase(grid, 0.5 * dt)
    for _ in range(config.steps):
        G *= half
        before = G[:, 0].real.sum()
        # the real M acts on the interleaved real and imaginary parts
        G = (M @ G.view(float)).view(complex)
        leak = float((before - G[:, 0].real.sum()) * grid.dx * grid.dv)
        G *= half
        yield G, leak


def _physical(G: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """The ``(nx, nv)`` slice of the state ``G``."""
    return np.fft.irfft(G, n=grid.nx, axis=1).T


def solve(k: KernelSpec, f0: np.ndarray, grid: PhaseGrid, config: SolverConfig) -> Trajectory:
    """Run the Strang-split scheme from the slice ``f0``.

    The collision matrix is assembled once.  Diagnostics are recorded at
    every step; a slice is kept every ``save_every`` steps and at the
    last one.
    """
    f = np.asarray(f0, dtype=float)
    if f.shape != (grid.nx, grid.nv):
        raise ValueError("initial slice shape does not match grid")
    traj = Trajectory(grid=grid)
    traj.record(0.0, f, keep_slice=True)
    for n, (G, leak) in enumerate(_strang_steps(k, f, grid, config), start=1):
        traj.leak_total += leak
        keep = n % config.save_every == 0 or n == config.steps
        traj.record(n * config.dt, _physical(G, grid), keep_slice=keep)
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


def mollified_delta(grid: PhaseGrid, s: float, x0: float = 0.0, v0: float = 0.0) -> np.ndarray:
    """Kinetic Gaussian approximating a point mass at ``(x0, v0)``.

    The velocity width is ``2 max(dx^{1/(1+2s)}, dv)`` and the position
    width is its ``(1 + 2s)`` power, matching the anisotropic scaling.
    Normalized to unit discrete mass.
    """
    sig_v = 2.0 * max(grid.dx ** (1.0 / (1 + 2 * s)), grid.dv)
    sig_x = sig_v ** (1 + 2 * s)
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

    The run takes the steps of ``solve`` and records the diagnostics of
    the first and the last slice only, so only the final state is
    transformed back to ``(x, v)``.  The reference is
    ``J(T)`` built by ``j0_lattice`` on the solve lattice, cut from the
    lattice ``P`` times larger, with
    ``P = max(2, ceil(n_freq / max(nx, nv)))``, so the reference's
    frequency grid has at least ``n_freq`` points along the longer axis; a
    larger box pushes the periodic images of the slow velocity tails
    further out.  The reference is convolved with the same mollifier
    (sheared convolution at time ``T``, periodic on the solve box), so the
    two fields approximate the same object.  Reports the sup-relative
    error on the region where the reference exceeds 1% of its peak, and
    the mass drift of the run.
    """
    if abs(config.dt * config.steps - T) > 1e-12:
        raise ValueError("config horizon does not match T")
    if n_freq < 4:
        raise ValueError("n_freq must be at least 4")
    f0 = mollified_delta(grid, s)
    traj = Trajectory(grid=grid)
    traj.record(0.0, f0, keep_slice=False)
    for G, leak in _strang_steps(k, f0, grid, config):
        traj.leak_total += leak
    fT = _physical(G, grid)
    traj.record(T, fT, keep_slice=False)

    P = max(2, math.ceil(n_freq / max(grid.nx, grid.nv)))
    J = j0_lattice(T, s, grid.nx, grid.nv, grid.dx, grid.dv, pad=P)
    ref = modified_convolution(f0, J, T, grid.dx, grid.dv)

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
