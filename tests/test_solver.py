"""Split-step solver: schemes, conservation, diagnostics."""

import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from kineticlab import cli, solver
from kineticlab.fields import PhaseGrid
from kineticlab.kernels import SymmetricPerturbation, normalized_fractional
from kineticlab.operators import assemble_operator_matrix
from kineticlab.solver import (
    SolverConfig,
    Trajectory,
    _transport_phase,
    collision_propagator,
    fundamental_approx,
    mollified_delta,
    solve,
    step_collision,
    step_transport,
    trajectory_field,
)

S = 0.5


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=-0.1, steps=10)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, steps=0)
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, steps=1, scheme="rk4")
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, steps=1, save_every=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="dt must be finite"):
            SolverConfig(dt=bad, steps=1)


class TestTransportStep:
    def test_exact_shift_of_plane_wave(self):
        g = PhaseGrid(nt=1, nx=64, nv=4, x_period=8.0, v_extent=2.0)
        kx = 2 * np.pi / g.x_period
        f = np.cos(kx * g.x_axis)[:, None] * np.ones((1, g.nv))
        dt = 0.37
        out = step_transport(f, dt, g)
        for j, v in enumerate(g.v_axis):
            want = np.cos(kx * (g.x_axis - dt * v))
            assert np.max(np.abs(out[:, j] - want)) < 1e-12

    def test_mass_preserved(self):
        g = PhaseGrid(nt=1, nx=32, nv=8, x_period=4.0, v_extent=2.0)
        rngf = np.random.default_rng(3).random((g.nx, g.nv))
        out = step_transport(rngf, 0.2, g)
        assert out.sum() == pytest.approx(rngf.sum(), rel=1e-12)


    def test_matches_complex_fft_shift(self):
        g = PhaseGrid(nt=1, nx=48, nv=10, x_period=6.0, v_extent=3.0)
        f = np.random.default_rng(7).standard_normal((g.nx, g.nv))
        dt = 0.23
        phi = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.dx)
        want = np.fft.ifft(np.fft.fft(f, axis=0) * np.exp(-1j * phi[:, None] * dt * g.v_axis[None, :]), axis=0).real
        np.testing.assert_allclose(step_transport(f, dt, g), want, rtol=0, atol=1e-14 * np.abs(f).max())

    def test_phase_cached_read_only(self):
        g = PhaseGrid(nt=1, nx=16, nv=4, x_period=2.0, v_extent=1.0)
        phase = _transport_phase(g, 0.1)
        assert phase is _transport_phase(PhaseGrid(nt=1, nx=16, nv=4, x_period=2.0, v_extent=1.0), 0.1)
        assert phase.shape == (g.nv, g.nx // 2 + 1)
        with pytest.raises(ValueError):
            phase[0, 0] = 0.0


class TestCollisionPropagator:
    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    def test_matches_lu_reference(self, scheme, torus):
        g = PhaseGrid(nt=1, nx=8, nv=32, x_period=4.0, v_extent=4.0)
        A = assemble_operator_matrix(normalized_fractional(S), g, torus=torus)
        eye, dt = np.eye(g.nv), 0.05
        if scheme == "explicit":
            M_ref = eye + dt * A
        else:
            theta = 1.0 if scheme == "implicit" else 0.5
            lu = lu_factor(eye - theta * dt * A)
            M_ref = lu_solve(lu, eye + (1 - theta) * dt * A)
        M = collision_propagator(A, dt, scheme)
        assert np.abs(M - M_ref).max() <= 1e-13 * np.abs(M_ref).max()

        f = np.random.default_rng(1).random((g.nx, g.nv))
        if scheme == "explicit":
            want = f + dt * (f @ A.T)
        elif scheme == "implicit":
            want = lu_solve(lu, f.T).T
        else:
            want = lu_solve(lu, (f + 0.5 * dt * (f @ A.T)).T).T
        for got in (step_collision(f, dt, A, scheme), step_collision(f, dt, A, scheme, M)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestCirculantMap:
    """On the torus a ``FractionalLaplacian``'s ``A`` is circulant, and the
    run steps its collision as a multiplier on the velocity DFT."""

    GRID = PhaseGrid(nt=1, nx=8, nv=64, x_period=4.0, v_extent=6.0)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_torus_operator_is_circulant(self, s):
        A = assemble_operator_matrix(normalized_fractional(s), self.GRID, torus=True)
        idx = np.arange(self.GRID.nv)
        circulant = A[(idx[:, None] - idx[None, :]) % self.GRID.nv, 0]
        assert np.abs(A - circulant).max() <= 1e-14 * np.abs(A).max()

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    def test_multiplier_step_matches_the_propagator_gemm(self, scheme, s):
        g, k = self.GRID, normalized_fractional(s)
        cfg = SolverConfig(dt=0.01, steps=1, scheme=scheme)
        f = np.random.default_rng(5).random((g.nx, g.nv))
        G, mu, half = solver._initial_state(k, f, g, cfg)
        assert mu.shape == (g.nv,)
        M = collision_propagator(assemble_operator_matrix(k, g, torus=True), cfg.dt, scheme)
        got, got_lost = next(solver._strang_steps(G.copy(), mu, half, 1))
        want, want_lost = next(solver._strang_steps(G.copy(), M, half, 1))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the loss is a difference of column sums: rounding scales with the sum
        assert abs(got_lost - want_lost) <= 1e-13 * np.abs(G[:, 0]).sum()

    @pytest.mark.parametrize("kernel, torus, propagators", [
        ("fractional", True, 0),
        ("perturbed", True, 1),
        ("fractional", False, 1),
    ])
    def test_only_a_circulant_run_skips_the_propagator(self, monkeypatch, kernel, torus, propagators):
        calls, propagator = [], solver.collision_propagator

        def spy(*args):
            calls.append(args)
            return propagator(*args)

        monkeypatch.setattr(solver, "collision_propagator", spy)
        k = TestSpectralLoop._kernel(kernel)
        solve(k, mollified_delta(self.GRID, S), self.GRID, SolverConfig(dt=0.05, steps=2, torus=torus))
        assert len(calls) == propagators


class TestMollifier:
    def test_unit_mass_and_center(self):
        g = PhaseGrid(nt=1, nx=64, nv=64, x_period=8.0, v_extent=4.0)
        f = mollified_delta(g, S, x0=1.0, v0=-0.5)
        assert f.sum() * g.dx * g.dv == pytest.approx(1.0, rel=1e-12)
        i, j = np.unravel_index(np.argmax(f), f.shape)
        assert g.x_axis[i] == pytest.approx(1.0, abs=g.dx)
        assert g.v_axis[j] == pytest.approx(-0.5, abs=g.dv)


@pytest.fixture(scope="module")
def setup():
    k = normalized_fractional(S)
    g = PhaseGrid(nt=1, nx=64, nv=64, x_period=8.0, v_extent=6.0)
    return k, g, mollified_delta(g, S)


class TestSolve:
    def test_leak_corrected_mass_identity(self, setup):
        k, g, f0 = setup
        traj = solve(k, f0, g, SolverConfig(dt=0.02, steps=20, scheme="cn", torus=True))
        assert traj.mass_drift() < 1e-10

    def test_leak_corrected_mass_identity_zero_extension(self, setup):
        k, g, f0 = setup
        traj = solve(k, f0, g, SolverConfig(dt=0.02, steps=20, scheme="implicit", torus=False))
        assert traj.leak_total > 0  # mass genuinely leaves through the far field
        assert traj.mass_drift() < 1e-10

    def test_schemes_agree_at_small_dt(self, setup):
        k, g, f0 = setup
        ref = solve(k, f0, g, SolverConfig(dt=0.005, steps=40, scheme="cn")).final
        exp = solve(k, f0, g, SolverConfig(dt=0.005, steps=40, scheme="explicit")).final
        assert np.max(np.abs(ref - exp)) < 2e-2 * np.max(ref)

    def test_positivity_preserved(self, setup):
        k, g, f0 = setup
        traj = solve(k, f0, g, SolverConfig(dt=0.02, steps=20, scheme="cn"))
        assert traj.minimum[-1] > -1e-8 * max(traj.maximum)

    def test_shape_mismatch_rejected(self, setup):
        k, g, _ = setup
        with pytest.raises(ValueError, match="initial slice"):
            solve(k, np.zeros((3, 3)), g, SolverConfig(dt=0.1, steps=1))


def _physical_reference(k, f0, g, cfg):
    """The Strang loop on physical slices, one ``step_transport`` half step,
    one ``step_collision`` and another half step per step."""
    A = assemble_operator_matrix(k, g, torus=cfg.torus)
    prop = collision_propagator(A, cfg.dt, cfg.scheme)
    f = f0.copy()
    traj = Trajectory(grid=g)
    traj.record(0.0, f, keep_slice=True)
    for n in range(1, cfg.steps + 1):
        f = step_transport(f, 0.5 * cfg.dt, g)
        before = f.sum() * g.dx * g.dv
        f = step_collision(f, cfg.dt, A, cfg.scheme, prop)
        traj.leak_total += float(before - f.sum() * g.dx * g.dv)
        f = step_transport(f, 0.5 * cfg.dt, g)
        traj.record(n * cfg.dt, f, keep_slice=(n % cfg.save_every == 0 or n == cfg.steps))
    return traj


class TestSpectralLoop:
    """``solve`` keeps its state in x-Fourier space; it must reproduce the
    physical-space loop to rounding."""

    # nx != nv, so a transposed layout cannot pass
    GRID = PhaseGrid(nt=1, nx=40, nv=28, x_period=6.0, v_extent=5.0)

    @staticmethod
    def _kernel(kind):
        if kind == "fractional":
            return normalized_fractional(S)
        if kind == "low_order":
            return normalized_fractional(0.3)
        # a v-dependent multiplier takes the generic quadrature path
        return SymmetricPerturbation(
            base=normalized_fractional(S), multiplier=lambda v, w: 1.0 + 0.5 * np.cos(v + w), a_min=0.5, a_max=1.5
        )

    @pytest.mark.parametrize("save_every", [1, 3])
    @pytest.mark.parametrize("kernel", ["fractional", "low_order", "perturbed"])
    @pytest.mark.parametrize("torus", [True, False])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    def test_matches_physical_loop(self, scheme, torus, kernel, save_every):
        k, g = self._kernel(kernel), self.GRID
        f0 = mollified_delta(g, S, x0=0.7, v0=-0.4)
        cfg = SolverConfig(dt=0.03, steps=7, scheme=scheme, torus=torus, save_every=save_every)
        got = solve(k, f0, g, cfg)
        want = _physical_reference(k, f0, g, cfg)

        tol = 1e-13 * max(want.maximum)
        assert got.times == want.times
        assert len(got.slices) == len(want.slices) == (8 if save_every == 1 else 4)
        for a, b in zip(got.slices, want.slices):
            assert np.abs(a - b).max() <= tol
        for name in ("mass", "minimum", "maximum", "l2"):
            assert np.abs(np.subtract(getattr(got, name), getattr(want, name))).max() <= tol, name
        assert abs(got.leak_total - want.leak_total) <= 1e-14
        if not torus:
            assert want.leak_total > 1e-6  # mass leaves through the far field

        if save_every > 1:
            every = solve(k, f0, g, replace(cfg, save_every=1))
            assert got.times == every.times
            kept = [0, 3, 6, 7]
            assert all(np.array_equal(a, every.slices[i]) for a, i in zip(got.slices, kept))


class TestFundamentalApprox:
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    @pytest.mark.parametrize("torus", [True, False])
    def test_run_reports_match_a_full_solve(self, setup, scheme, torus):
        # the cross-validation run records two slices; what it reports of
        # the run must be what a run recording every step reports
        k, g, f0 = setup
        cfg = SolverConfig(dt=0.05, steps=4, scheme=scheme, torus=torus)
        rep = fundamental_approx(k, g, cfg, S, n_freq=64)
        traj = solve(k, f0, g, cfg)
        assert rep["computed_peak"] == float(traj.final.max())
        assert rep["mass_initial"] == traj.mass[0]
        assert rep["mass_final"] == traj.mass[-1]
        assert rep["mass_drift"] == traj.mass_drift()

    def test_peak_memory(self):
        # a 4-fold padded reference at 128^2 and 100 CN steps: the run and
        # the reference hold a few slices, never the padded lattice
        k = normalized_fractional(S)
        g = PhaseGrid(nt=1, nx=128, nv=128, x_period=8.0, v_extent=6.0)
        cfg = SolverConfig(dt=0.01, steps=100)
        tracemalloc.start()
        try:
            fundamental_approx(k, g, cfg, S, n_freq=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * g.nx * g.nv * 16

    def test_reference_error_does_not_grow_with_padding(self, setup):
        # a four-fold box folds less of the slow velocity tail back into
        # the reference than a two-fold one
        k, g, _ = setup
        errs = [fundamental_approx(k, g, SolverConfig(dt=0.05, steps=4), S, n_freq=p * g.nx)["sup_rel_error"]
                for p in (2, 4)]
        assert errs[1] <= errs[0]


class TestColumnBlocks:
    """``fundamental_approx`` steps its x-wavenumber columns as two blocks
    on two threads; each column evolves on its own, so the split is exact."""

    @staticmethod
    def _two_block_run(monkeypatch, k, g, cfg):
        """The final state and the worker's thread and block width of one
        ``fundamental_approx`` run."""
        seen = {}
        physical, final_block = solver._physical, solver._final_block

        def record_state(G, grid):
            seen["G"] = G.copy()
            return physical(G, grid)

        def record_worker(G, *args):
            seen["worker"], seen["width"] = threading.get_ident(), G.shape[1]
            return final_block(G, *args)

        monkeypatch.setattr(solver, "_physical", record_state)
        monkeypatch.setattr(solver, "_final_block", record_worker)
        fundamental_approx(k, g, cfg, S, n_freq=2 * max(g.nx, g.nv))
        return seen

    @pytest.mark.parametrize("torus", [True, False], ids=["fft", "dense"])
    @pytest.mark.parametrize("scheme", ["explicit", "implicit", "cn"])
    @pytest.mark.parametrize("grid, steps", [
        # criterion 6's grid, and one whose blocks are 1 and 2 columns wide
        (PhaseGrid(nt=1, nx=256, nv=256, x_period=16.0, v_extent=12.0), 20),
        (PhaseGrid(nt=1, nx=4, nv=32, x_period=4.0, v_extent=6.0), 20),
    ], ids=["criterion-6", "nx-4"])
    def test_two_blocks_match_one(self, monkeypatch, grid, steps, scheme, torus):
        # the torus run steps its collision by FFT, the zero-extended one by GEMM
        k = normalized_fractional(S)
        cfg = SolverConfig(dt=0.01, steps=steps, scheme=scheme, torus=torus)
        G, M, half = solver._initial_state(k, mollified_delta(grid, S), grid, cfg)
        assert M.ndim == (1 if torus else 2)
        one = solver._final_block(G, M, half, steps)
        seen = self._two_block_run(monkeypatch, k, grid, cfg)
        m = grid.nx // 2 + 1
        assert seen["worker"] != threading.get_ident() and seen["width"] == m - m // 2
        assert np.abs(seen["G"] - one).max() <= 1e-14 * np.abs(one).max()

    def test_blocks_hold_under_frequent_thread_switches(self, setup):
        # the threads share one state array and write disjoint columns of it
        k, g, f0 = setup
        cfg = SolverConfig(dt=0.05, steps=8)
        traj = solve(k, f0, g, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reps = [fundamental_approx(k, g, cfg, S, n_freq=128) for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        assert all(rep == reps[0] for rep in reps)
        assert reps[0]["computed_peak"] == traj.final.max() and reps[0]["mass_final"] == traj.mass[-1]

    @staticmethod
    def _failing_worker(monkeypatch, fail):
        """Make the second thread's block call ``fail`` after its first step."""
        caller, steps = threading.get_ident(), solver._strang_steps

        def strang_steps(*args):
            for n, out in enumerate(steps(*args)):
                if n == 1 and threading.get_ident() != caller:
                    fail()
                yield out

        monkeypatch.setattr(solver, "_strang_steps", strang_steps)

    def test_exception_in_the_worker_reaches_the_caller(self, monkeypatch, setup):
        k, g, _ = setup

        def fail():
            raise np.linalg.LinAlgError("worker block failed")

        self._failing_worker(monkeypatch, fail)
        threads = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="worker block failed"):
            fundamental_approx(k, g, SolverConfig(dt=0.05, steps=4), S, n_freq=128)
        assert threading.active_count() == threads

    def test_warning_as_error_in_the_worker_reaches_the_caller(self, monkeypatch, setup):
        k, g, _ = setup
        self._failing_worker(monkeypatch, lambda: np.float64(1e308) * 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                fundamental_approx(k, g, SolverConfig(dt=0.05, steps=4), S, n_freq=128)

    def test_worker_keeps_the_callers_numpy_error_state(self, monkeypatch, setup):
        k, g, _ = setup
        self._failing_worker(monkeypatch, lambda: np.float64(1e308) * 10.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            fundamental_approx(k, g, SolverConfig(dt=0.05, steps=4), S, n_freq=128)

    def test_numerical_failure_in_the_worker_exits_3(self, monkeypatch, tmp_path, capsys):
        def fail():
            raise FloatingPointError("overflow in the worker block")

        self._failing_worker(monkeypatch, fail)
        out = tmp_path / "x"
        argv = ["solve", "--cross-validate", "--out", str(out), "--nx", "16", "--nv", "16", "--steps", "4"]
        assert cli.main(argv) == 3
        assert "numerical failure: overflow in the worker block" in capsys.readouterr().err
        assert not out.exists()


class TestTrajectoryField:
    def test_bundles_all_slices(self, solver_run):
        traj, field = solver_run
        assert field.grid.nt == len(traj.times)
        assert field.values.shape[0] == len(traj.slices)
        # node values agree with the stored slices
        assert float(field.sample(traj.times[3], 0.0, 0.0)) == pytest.approx(
            traj.slices[3][traj.grid.nx // 2, traj.grid.nv // 2], rel=1e-10
        )

    def test_requires_every_slice(self):
        k = normalized_fractional(S)
        g = PhaseGrid(nt=1, nx=32, nv=32, x_period=4.0, v_extent=4.0)
        traj = solve(k, mollified_delta(g, S), g, SolverConfig(dt=0.05, steps=4, save_every=3))
        with pytest.raises(ValueError, match="equally spaced slices: run with steps % save_every == 0"):
            trajectory_field(traj)

    @pytest.mark.parametrize("steps, save_every", [(9, 4), (7, 2), (5, 3)])
    def test_unequal_spacing_is_rejected(self, steps, save_every):
        # 9 steps keep 0, 4, 8, 9: three intervals that divide 9, yet unequal
        k = normalized_fractional(S)
        g = PhaseGrid(nt=1, nx=16, nv=16, x_period=4.0, v_extent=4.0)
        traj = solve(k, mollified_delta(g, S), g, SolverConfig(dt=0.05, steps=steps, save_every=save_every))
        with pytest.raises(ValueError, match="steps % save_every == 0"):
            trajectory_field(traj)

    def test_bundles_equally_spaced_slices(self):
        k = normalized_fractional(S)
        g = PhaseGrid(nt=1, nx=32, nv=32, x_period=4.0, v_extent=4.0)
        f0, cfg = mollified_delta(g, S), SolverConfig(dt=0.05, steps=8)
        every = trajectory_field(solve(k, f0, g, cfg))
        sparse = trajectory_field(solve(k, f0, g, replace(cfg, save_every=2)))
        assert sparse.grid.nt == 5
        assert np.array_equal(sparse.values, every.values[::2])
        np.testing.assert_allclose(sparse.grid.t_axis, every.grid.t_axis[::2], rtol=0, atol=1e-15)
