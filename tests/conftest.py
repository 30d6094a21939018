"""Shared fixtures: fundamental-solution tables and a reference solver run."""

import numpy as np
import pytest

from kineticlab.fields import PhaseGrid, PowerLawEnvelope
from kineticlab.fundsol import j0_table
from kineticlab.kernels import normalized_fractional
from kineticlab.solver import SolverConfig, mollified_delta, solve, trajectory_field

S = 0.5


@pytest.fixture(scope="session")
def tab256():
    return j0_table(1.0, S, n_freq=256)


@pytest.fixture(scope="session")
def tab512():
    return j0_table(1.0, S, n_freq=512)


@pytest.fixture(scope="session")
def frac_kernel():
    return normalized_fractional(S)


@pytest.fixture(scope="session")
def solver_run(frac_kernel):
    """A short reference run: mollified point mass, trapezoidal scheme,
    periodic velocity box, every slice saved."""
    grid = PhaseGrid(nt=1, nx=128, nv=128, x_period=8.0, v_extent=8.0)
    config = SolverConfig(dt=0.02, steps=50, scheme="cn", torus=True)
    f0 = mollified_delta(grid, S)
    traj = solve(frac_kernel, f0, grid, config)
    field = trajectory_field(traj, farfield=PowerLawEnvelope(amplitude=0.05, exponent=2.0))
    return traj, field


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
