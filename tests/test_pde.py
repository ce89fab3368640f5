import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ksgrowup import pde
from ksgrowup.errors import (MaximumPrincipleViolation, RangeError, ResolutionError,
                             SolverFailureError)
from ksgrowup.grids import GradedGrid, RadialField, Snapshot, make_graded_grid
from ksgrowup.pde import SolverConfig, l1_to_one, origin_slope, solve, solve_w
from ksgrowup.pde import _UProblem, _WProblem, _step_once
from oracles import (ReferenceUProblem, fixed_step_values, ordered_pair_test,
                     small_time_checks, snapshot_at, steady_profile, w_from_u)


def critical_snapshot(grid):
    return Snapshot(grid=grid, values=grid.nodes.copy(), time=0.0,
                    left_bc=0.0, right_bc=1.0)


def _u_problem(xi=0.5):
    grid = make_graded_grid(120, 1e-6, 1.1)
    x = grid.nodes
    u = xi * 4.0 * x / (3.0 * x + 1.0) * (1.0 + 0.2 * x * (1.0 - x) * np.sin(5.0 * x))
    return _UProblem(grid, xi), u


def _w_problem():
    r = np.linspace(0.0, 1.0, 81)
    w = 8.0 + 3.0 * np.cos(np.pi * r) + 2.0 * r ** 2
    return _WProblem(r), w


class TestJacobians:
    @pytest.mark.parametrize("make", [_u_problem, lambda: _u_problem(1.0), _w_problem],
                             ids=["u", "u_xi_1", "w"])
    def test_bands_match_central_differences(self, make):
        # xi = 1 is the run's own case: w(1) = 0 makes the last face
        # arithmetic, and every face couples only its two nodes
        problem, u = make()
        _, sub, diag, sup, _ = problem.rhs_and_jac(u)
        J = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        rows = range(problem.ilo, len(u) - 1)
        J_fd = np.empty_like(J)
        for j, k in enumerate(rows):
            step = 1e-6 * abs(u[k])
            up, um = u.copy(), u.copy()
            up[k] += step
            um[k] -= step
            J_fd[:, j] = (problem.rhs_and_jac(up)[0]
                          - problem.rhs_and_jac(um)[0]) / (2.0 * step)
        assert np.max(np.abs(J - J_fd)) <= 1e-8 * np.max(np.abs(J_fd))


def _radial_grid(n=200, ratio=1.06):
    """A graded r-grid from cells of 2e-4, rescaled to [0, 1]."""
    widths = np.diff(make_graded_grid(n, 2e-4, ratio).nodes)
    r = np.concatenate([[0.0], np.cumsum(widths)])
    return r / r[-1]


class _ScaledBands(_WProblem):
    """A w-form problem whose Jacobian bands are off by a constant factor."""
    band_scale = 1.0

    def rhs_and_jac(self, w):
        F, sub, diag, sup, faces = super().rhs_and_jac(w)
        c = self.band_scale
        return F, c * sub, c * diag, c * sup, faces


class TestNewtonStop:
    def _steady_w(self, w_origin=750.0):
        r = _radial_grid()
        a = w_origin / 8.0
        return r, 8.0 * a / (a * r * r + 1.0)

    @staticmethod
    def _size(problem, u, coef, rhs):
        """The row sizes _step_once hands to a stage solve from u."""
        return np.abs(rhs) + coef * problem.term_size(u, problem.rhs_and_jac(u))

    def test_stops_at_round_off(self):
        # near w(0) = 750 the residual of a converged step sits near 1e-8,
        # far above an absolute bar of 1e-11; against the size of each
        # row's terms it is round-off, reached in at most 2 updates
        r, w = self._steady_w()
        problem = _WProblem(r)
        coef, rhs = 1e-3, w[:-1]
        w_new, its, ok, _ = problem.newton(w, coef, rhs,
                                           self._size(problem, w, coef, rhs),
                                           pde._MAX_NEWTON)
        F = problem.rhs_and_jac(w_new)[0]
        assert np.max(np.abs(w_new[:-1] - coef * F - rhs)) >= 1e-9
        assert its <= 2
        assert ok

    @pytest.mark.parametrize("band_scale, its_expected", [(1e3, 14), (1e20, 14)],
                             ids=["slow", "stalled"])
    def test_wrong_jacobian_is_not_accepted(self, band_scale, its_expected):
        # bands 1e3 too large: Newton creeps; 1e20 too large: its updates
        # are at round-off and the residual stays.  Both run out of
        # iterations with the residual above the bar
        r, w = self._steady_w()
        problem = _ScaledBands(r)
        problem.band_scale = band_scale
        coef, rhs = 1e-4, w[:-1]
        _, its, ok, _ = problem.newton(w, coef, rhs,
                                       self._size(problem, w, coef, rhs),
                                       pde._MAX_NEWTON)
        assert its == its_expected
        assert not ok

    @pytest.mark.parametrize("factor, accepted", [(0.1, True), (10.0, False)])
    def test_bar_is_per_row(self, factor, accepted):
        # the steady profile is an exact fixed point of the u-form, so its
        # residual is round-off; moving the right-hand side of the finest
        # row by a multiple of that row's allowance moves its residual by
        # the same amount, and the bar sees that one row
        grid = make_graded_grid(420, 1e-8, 1.07)
        u = steady_profile(1e5, grid).values
        problem = _UProblem(grid, u[-1])
        coef, rhs = 0.1, u[1:-1].copy()
        size = self._size(problem, u, coef, rhs)
        rhs[0] += factor * pde._NEWTON_TOL * (abs(u[1]) + size[0])
        _, its, ok, _ = problem.newton(u, coef, rhs, size, 1)
        assert ok == accepted
        assert its == (0 if accepted else 1)


def _faces_one_by_one(u):
    """Reference face values and derivatives, face by face by the case split:
    face 0 upwind by the sign of 1 - (u_0 + u_1), every other face geometric
    or arithmetic."""
    out = np.empty((3, len(u) - 1))
    for i in range(len(u) - 1):
        wl, wr = u[i] * (1.0 - u[i]), u[i + 1] * (1.0 - u[i + 1])
        sl, sr = 1.0 - 2.0 * u[i], 1.0 - 2.0 * u[i + 1]
        if i == 0:
            face = (wl, sl, 0.0) if u[0] + u[1] < 1.0 else (wr, 0.0, sr)
        elif wl > 0.0 and wr > 0.0:
            face = (math.sqrt(wl * wr), 0.5 * math.sqrt(wr / wl) * sl,
                    0.5 * math.sqrt(wl / wr) * sr)
        else:
            face = (0.5 * (wl + wr), 0.5 * sl, 0.5 * sr)
        out[:, i] = face
    return out


class TestAdvectiveFace:
    @pytest.mark.parametrize("xi, a, zero_node", [
        (1.0, 40.0, None),   # w > 0 on every interior node, w <= 0 at both ends
        (0.5, 40.0, None),   # w(1) > 0: the last face is geometric too
        (1.0, 40.0, 1),      # w = 0 on an interior node: arithmetic faces inside
        (1.5, 1e5, None),    # u_1 > 1: face 0 upwind from node 1
    ], ids=["xi_1", "xi_below_1", "interior_zero", "face_0_from_the_right"])
    def test_faces_agree_with_face_by_face(self, xi, a, zero_node):
        x = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 31)])
        u = xi * (a + 1.0) * x / (a * x + 1.0)
        u[-1] = xi
        if zero_node is not None:
            u[:zero_node + 1] = 0.0
        problem = _UProblem(GradedGrid(nodes=x), xi)
        got = np.array(problem._advective_face(u))
        ref = _faces_one_by_one(u)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))

    def test_grid_a_central_face_cannot_resolve_is_refused(self):
        # the jump from 0.1 to 0.9 gives face 30 a cell Peclet number of
        # 0.8 / 0.3 = 2.7 at |1 - (u_l + u_r)| = 1
        x = np.concatenate([[0.0], np.geomspace(1e-4, 0.1, 30), [0.9, 0.95, 1.0]])
        grid = GradedGrid(nodes=x)
        with pytest.raises(ResolutionError, match="face 30 .* Peclet number of 2.67"):
            _UProblem(grid, 1.0)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _kernel_case(case):
    """(xi, states) on the default grid for one kernel comparison case."""
    x = make_graded_grid(420, 1e-8, 1.07).nodes
    quasi = [(a + 1.0) * x / (a * x + 1.0) for a in (1.0, 1e3, 1e6, 1e9)]
    if case == "xi_0.95":           # w(1) > 0: the last face is geometric
        return 0.95, [0.95 * q for q in quasi]
    if case == "face_0_from_the_right":   # u_0 + u_1 >= 1, values above 1
        states = [1.5 * q for q in quasi[2:]]
        states.append(np.where(x > 0.0, 1.0, 0.0))   # u_0 + u_1 == 1 exactly
        states.append(0.6 + 0.3 * x)    # every w > 0
        return 1.5, states
    if case == "arithmetic_faces":  # w <= 0 at interior nodes
        states = [q.copy() for q in quasi]
        states[0][:4] = 0.0
        states[1][5] = -1e-9
        states[2][200:] = 1.0
        states[3][100] = 1.25
        return 1.0, states
    rng = np.random.default_rng(7)   # mixed faces everywhere
    states = [rng.uniform(-0.1, 1.2, len(x)) for _ in range(4)]
    for u in states:
        u[0], u[-1] = 0.0, 1.0
    return 1.0, states


class TestKernelBits:
    """The u-form kernel's rewrites with fewer numpy passes, and term_size
    reading the face values of the state's own evaluation, give the bits of
    the plain formulas in oracles.ReferenceUProblem."""

    @staticmethod
    def _check(grid, xi, states):
        new, ref = _UProblem(grid, xi), ReferenceUProblem(grid, xi)
        for u in states:
            ev = new.rhs_and_jac(u)
            assert len(ev) == 5
            assert all(_same_bits(g, r) for g, r in zip(ev[:4], ref.rhs_and_jac(u)))
            assert _same_bits(new.term_size(u, ev), ref.term_size(u))

    def test_default_run_snapshots(self, critical_traj):
        snaps = critical_traj.snapshots
        self._check(snaps[0].grid, 1.0, [s.values for s in snaps])

    @pytest.mark.parametrize("case", ["xi_0.95", "face_0_from_the_right",
                                      "arithmetic_faces", "random"])
    def test_edge_states(self, case):
        xi, states = _kernel_case(case)
        self._check(make_graded_grid(420, 1e-8, 1.07), xi, states)

    def test_cases_reach_every_branch(self):
        # the face-0 branch each case takes, and whether it has
        # arithmetic faces (w <= 0 next to a face) besides faces 0 and N-1
        seen = set()
        for case in ("xi_0.95", "face_0_from_the_right", "arithmetic_faces", "random"):
            _, states = _kernel_case(case)
            for u in states:
                w = u * (1.0 - u)
                seen.add(("upwind_left" if u[0] + u[1] < 1.0 else "upwind_right",
                          bool((w[1:-1] <= 0.0).any())))
        assert seen >= {("upwind_left", False), ("upwind_left", True),
                        ("upwind_right", False), ("upwind_right", True)}


def _pivoting_system(rng, n):
    """Bands and right side of a random system whose solve pivots: normal
    off-diagonals next to a diagonal of 0.5 + U(0, 1)."""
    sub, sup = rng.normal(size=n - 1), rng.normal(size=n - 1)
    return (sub, 0.5 + rng.random(n), sup), rng.normal(size=n)


def _gtsv_paths():
    """The resolved dgtsv and, where that is numpy's bundled one, the scipy
    fallback, which setting pde._gtsv forces."""
    paths = [pde._gtsv]
    if pde._bundled_gtsv() is not None:
        paths.append(pde._scipy_gtsv())
    return paths


class TestSolveBanded:
    def test_equals_scipy_solve_banded(self):
        # one ?gtsv call, as scipy.linalg.solve_banded makes for (1, 1)
        # systems: the same bits on diagonally dominant systems
        rng = np.random.default_rng(7)
        n = 418
        for _ in range(5):
            sub, sup = rng.normal(size=n - 1), rng.normal(size=n - 1)
            diag = 3.0 + rng.random(n)
            b = rng.normal(size=n)
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
            ref = scipy.linalg.solve_banded((1, 1), ab, b)
            inputs = [sub, diag, sup, b]
            kept = [v.copy() for v in inputs]
            got = pde.solve_banded((sub, diag, sup), b)
            assert np.array_equal(got, ref)
            assert all(np.array_equal(v, k) for v, k in zip(inputs, kept))

    def test_singular_raises(self, monkeypatch):
        bands = (np.zeros(3), np.array([1.0, 0.0, 1.0, 1.0]), np.zeros(3))
        for gtsv in _gtsv_paths():
            monkeypatch.setattr(pde, "_gtsv", gtsv)
            with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
                pde.solve_banded(bands, np.ones(4))

    @pytest.mark.parametrize("lengths", [(6, 6, 4, 6), (4, 6, 6, 6),
                                         (5, 6, 5, 7)])
    def test_misshapen_system_raises(self, lengths, monkeypatch):
        # the bundled path copies the bands into one buffer of 4n - 2
        # values: bands of the wrong lengths must not fill it misplaced
        sub, diag, sup, b = (np.ones(m) for m in lengths)
        for gtsv in _gtsv_paths():
            monkeypatch.setattr(pde, "_gtsv", gtsv)
            with pytest.raises(ValueError):
                pde.solve_banded((sub, 4.0 * diag, sup), b)

    @pytest.mark.parametrize("n", [2, 3, 81, 418, 798])
    def test_bundled_and_scipy_paths_agree_bit_for_bit(self, n, monkeypatch):
        # the same LAPACK routine from two libraries: the same bits, also
        # where the elimination pivots, and neither touches its inputs
        paths = _gtsv_paths()
        if len(paths) == 1:
            pytest.skip("this numpy bundles no OpenBLAS with dgtsv")
        rng = np.random.default_rng(n)
        for _ in range(40):
            bands, b = _pivoting_system(rng, n)
            inputs = [*bands, b]
            kept = [v.copy() for v in inputs]
            got = []
            for gtsv in paths:
                monkeypatch.setattr(pde, "_gtsv", gtsv)
                got.append(pde.solve_banded(bands, b))
            assert np.array_equal(got[0], got[1])
            assert all(np.array_equal(v, k) for v, k in zip(inputs, kept))

    def test_solution_survives_the_next_call(self):
        # the bundled path solves in a workspace kept per size: what it
        # returns must be the caller's own array, not a view of it
        rng = np.random.default_rng(9)
        bands, b = _pivoting_system(rng, 81)
        x = pde.solve_banded(bands, b)
        kept = x.copy()
        pde.solve_banded(*_pivoting_system(rng, 81))
        assert np.array_equal(x, kept)
        x[:] = 0.0
        assert np.array_equal(pde.solve_banded(bands, b), kept)


class TestPredictor:
    def test_stage_solves_take_at_most_two_updates(self):
        # Newton starts from the quadratic predictor: on the default grid
        # no stage solve needs more than 2 updates (started from the state
        # before the stage, this run needs 3)
        grid = make_graded_grid(420, 1e-8, 1.07)
        traj = solve(critical_snapshot(grid),
                     SolverConfig(), 2.0, [1.0, 2.0])
        assert traj.rejected_newton == traj.rejected_error_test == 0
        assert traj.newton_iters.max() <= 2


class TestFailedSolve:
    """A Newton solve that cannot go on rejects the step; the run goes on."""

    def _run(self):
        grid = make_graded_grid(140, 1e-6, 1.12)
        return solve(critical_snapshot(grid),
                     SolverConfig(), 1.0, [1.0])

    def test_nan_residual_is_rejected_and_retried(self, monkeypatch):
        calls = []
        rhs_and_jac = _UProblem.rhs_and_jac

        def nan_once(self, u):
            F, *rest = rhs_and_jac(self, u)
            calls.append(1)
            if len(calls) == 3:   # a Newton iterate of the first step
                F = np.full_like(F, np.nan)
            return F, *rest
        monkeypatch.setattr(_UProblem, "rhs_and_jac", nan_once)
        traj = self._run()
        assert traj.rejected_newton == 1
        assert traj.step_times[-1] == 1.0
        assert np.all(np.isfinite(traj.snapshots[-1].values))

    def test_singular_band_is_rejected_and_retried(self, monkeypatch):
        solves = []
        solve_banded = pde.solve_banded

        def singular_once(bands, b):
            solves.append(1)
            if len(solves) == 1:
                bands = tuple(np.zeros_like(band) for band in bands)
            return solve_banded(bands, b)
        monkeypatch.setattr(pde, "solve_banded", singular_once)
        traj = self._run()
        assert traj.rejected_newton == 1
        assert traj.step_times[-1] == 1.0

    def test_nan_state_fails_the_solve_at_once(self):
        problem, u = _w_problem()
        u[5] = np.nan
        _, its, ok, _ = problem.newton(u, 1e-3, u[:-1], 1e-11, 14)
        assert (its, ok) == (0, False)


class TestSteadyStates:
    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_steady_profile_is_exact_fixed_point(self, a):
        grid = make_graded_grid(160, 1e-6, 1.1)
        ua = steady_profile(a, grid)
        cfg = SolverConfig()
        traj = solve(ua, cfg, 10.0, [5.0, 10.0])
        drift = max(np.max(np.abs(s.values - ua.values)) for s in traj.snapshots)
        assert drift <= 1e-8


class TestMaximumPrinciple:
    def test_range_and_monotonicity_preserved(self, fast_traj):
        for s in fast_traj.snapshots:
            assert s.values.min() >= 0.0
            assert s.values.max() <= 1.0 + 1e-9
            assert s.is_nondecreasing(tol=1e-8)

    def test_monotonicity_loss_is_refused(self, monkeypatch):
        # a step whose state drops by 1e-6 from one node to the next,
        # inside [0, 1]: the guard stops the run at that step
        def dropping(*args):
            un, ok, its, est, ev = _step_once(*args)
            if ok:
                un = un.copy()
                un[71] = un[70] - 1e-6
            return un, ok, its, est, ev
        monkeypatch.setattr(pde, "_step_once", dropping)
        grid = make_graded_grid(140, 1e-6, 1.12)
        with pytest.raises(MaximumPrincipleViolation, match=r"monotonicity lost "
                           r"at t = 1e-07 \(worst drop -1\.000e-06\)"):
            solve(critical_snapshot(grid), SolverConfig(), 1.0, [1.0])

    @pytest.mark.parametrize("node, value, message", [
        (5, 1.0 + 1e-6, r"values left \[0, 1\.0\] at the snapshot t = 0\.5: "
                        r"u = 1\.000001 lies 1\.000e-06 past it"),
        (71, None, r"monotonicity lost at the snapshot t = 0\.5 "
                   r"\(worst drop -1\.000e-06\)"),
    ], ids=["range", "monotonicity"])
    def test_snapshot_is_checked(self, monkeypatch, node, value, message):
        # an interpolated snapshot passes the accepted states' checks, with
        # their tolerances: an overshoot of the interpolant stops the run
        hermite = pde._hermite

        def overshooting(*args):
            v = hermite(*args)
            v[node] = v[node - 1] - 1e-6 if value is None else value
            return v
        monkeypatch.setattr(pde, "_hermite", overshooting)
        grid = make_graded_grid(140, 1e-6, 1.12)
        with pytest.raises(MaximumPrincipleViolation, match=message):
            solve(critical_snapshot(grid), SolverConfig(), 1.0, [0.5, 1.0])

    def test_rejects_decreasing_data(self):
        grid = make_graded_grid(60, 1e-4, 1.2)
        v = grid.nodes.copy()
        v[30] = 0.5 * v[29]  # force a decrease
        snap = Snapshot(grid=grid, values=v, time=0.0, left_bc=0.0,
                        right_bc=1.0)
        with pytest.raises(ValueError):
            solve(snap, SolverConfig(), 1.0, [1.0])


class TestSmallTime:
    def test_early_bound_and_eta(self, critical_traj):
        rep = small_time_checks(critical_traj, K=1.0, delta=0.5)
        assert rep.tau == 0.25
        assert rep.bound_ok, f"u exceeded 2Kx by {rep.worst_excess:.2e}"
        assert rep.eta > 0.0
        assert rep.T_delta is not None
        # at T_delta the profile clears min(1 - delta, x / delta)
        s = snapshot_at(critical_traj, rep.T_delta)
        target = np.minimum(0.5, s.grid.nodes / 0.5)
        assert np.all(s.values >= target - 1e-8)

    def test_steady_run_respects_its_own_bound(self):
        a = 2.0
        grid = make_graded_grid(120, 1e-6, 1.12)
        ua = steady_profile(a, grid)
        cfg = SolverConfig()
        traj = solve(ua, cfg, 5.0, [1.0, 5.0])
        rep = small_time_checks(traj, K=a, delta=0.5)
        assert rep.bound_ok


class TestOrdering:
    def test_square_below_identity(self):
        grid = make_graded_grid(140, 1e-6, 1.12)
        lo = Snapshot(grid=grid, values=grid.nodes ** 2, time=0.0,
                      left_bc=0.0, right_bc=1.0)
        hi = critical_snapshot(grid)
        cfg = SolverConfig()
        assert ordered_pair_test(lo, hi, cfg, 2.0, [0.5, 1.0, 2.0])

    def test_perturbed_steady_pair(self):
        a = 1.0
        grid = make_graded_grid(140, 1e-6, 1.12)
        x = grid.nodes
        ua = a * x / (a * x + 1)
        bumped = ua + 0.1 * x * (1 - x) * (1 - ua)
        lo = Snapshot(grid=grid, values=ua, time=0.0, right_bc=float(ua[-1]))
        hi = Snapshot(grid=grid, values=bumped, time=0.0,
                      right_bc=float(bumped[-1]))
        cfg = SolverConfig()
        assert ordered_pair_test(lo, hi, cfg, 2.0, [1.0, 2.0])

    def test_identical_data(self):
        grid = make_graded_grid(80, 1e-5, 1.2)
        s = critical_snapshot(grid)
        cfg = SolverConfig()
        assert ordered_pair_test(s, s, cfg, 0.5, [0.5])


class TestSlopeExtraction:
    def test_exact_on_steady_profile(self):
        # u/(x(1-u)) = a on U_a: node 1 returns a up to the rounding of the
        # samples and of the quotient, on the default grid, its partners
        # with half and twice its spacing (TestTimeErrorBar) and the 300-node
        # grid of other tests; y_1 = a x_1 <= 0.01 in every case
        grids = [(210, 2e-8, 1.07 ** 2), (300, 1e-7, 1.08), (420, 1e-8, 1.07),
                 (840, 5e-9, 1.07 ** 0.5)]
        for n, x_min, ratio in grids:
            grid = make_graded_grid(n, x_min, ratio)
            for a in (1.0, 37.0, 1e3, 1e5, 1e6):
                if a * x_min <= 0.01:
                    got = origin_slope(steady_profile(a, grid))
                    assert abs(got - a) <= 4.0 * np.spacing(a), (n, a, got)

    def test_unresolved_layer_raises(self):
        grid = make_graded_grid(40, 0.01, 1.3)
        snap = steady_profile(1e4, grid)
        with pytest.raises(ResolutionError):
            origin_slope(snap)


class TestLongTime:
    def test_converges_to_one_locally(self, critical_traj):
        # away from the origin the solution approaches the singular state
        s50 = snapshot_at(critical_traj, 50.0)
        x = s50.grid.nodes
        assert np.min(s50.values[x >= 0.01]) > 0.99

    def test_subcritical_control_has_no_growup(self):
        # with right bc below 1 the slope stays bounded, so
        # d(t) = log u_x(0,t) - sqrt(2t) dives; the critical mechanism is
        # genuinely about the boundary value
        a = 1.0
        grid = make_graded_grid(160, 1e-6, 1.1)
        ua = steady_profile(a, grid)
        cfg = SolverConfig()
        traj = solve(ua, cfg, 8.0, [2.0, 8.0])
        ds = [np.log(s.values[1] / grid.nodes[1]) - np.sqrt(2 * s.time)
              for s in traj.snapshots]
        assert ds[1] < ds[0] < 0.0


class TestL1:
    def test_all_ones(self):
        grid = make_graded_grid(50, 1e-4, 1.2)
        snap = Snapshot(grid=grid, values=np.ones(grid.n), time=0.0,
                        left_bc=1.0, right_bc=1.0)
        assert l1_to_one(snap) == 0.0

    def test_linear(self):
        grid = make_graded_grid(50, 1e-4, 1.2)
        snap = critical_snapshot(grid)
        assert abs(l1_to_one(snap) - 0.5) < 1e-12

    def test_same_bits_as_scipy_trapezoid(self, fast_traj):
        for snap in fast_traj.snapshots:
            ref = scipy.integrate.trapezoid(1.0 - snap.values, snap.grid.nodes)
            assert l1_to_one(snap) == float(ref)

    def test_steady_profile_closed_form(self):
        a = 2.0
        x = np.linspace(0, 1, 2001)
        grid = GradedGrid(nodes=x)
        snap = Snapshot(grid=grid, values=a * x / (a * x + 1), time=0.0,
                        right_bc=a / (1 + a))
        assert abs(l1_to_one(snap) - np.log(1 + a) / a) < 1e-6


class TestWForm:
    def test_steady_state_near_stationary(self):
        a = 1.0
        r = np.linspace(0.0, 1.0, 201)
        w0 = 8 * a / (a * r * r + 1)
        field = RadialField(r_nodes=r, values=w0, total_mass=np.pi * w0[-1])
        cfg = SolverConfig(dt_max=0.01)
        traj = solve_w(field, cfg, 1.0, [1.0])
        drift = np.max(np.abs(traj.fields[-1].values - w0))
        assert drift < 5e-3  # truncation-level only; no geometric trick here

    def test_cross_form_consistency(self, critical_traj, monkeypatch):
        # w(0, t/4)/8 equals u_x(0, t); both solvers independently, at every
        # u-time up to 5, and no Newton solve of the w-form uses all
        # _MAX_NEWTON iterations.  The relative gap converges at second order
        # in the r-grid; measured against this u-form run:
        #   nodes (ratio)   u-time 0.25   1        2        5
        #   200 (1.06)      9.7e-5        5.0e-4   1.5e-3   3.5e-2
        #   400 (1.03)      8.0e-5        4.2e-5   2.2e-4   7.4e-3
        #   800 (1.015)     7.7e-5        5.4e-5   4.9e-5   1.7e-3
        # (early times sit at the u-form's floor of about 8e-5).  The 800-node
        # gap is about the 400-node gap / 4, 1.8e-3 at u-time 5; the
        # tolerance is twice that.
        r = _radial_grid(800, 1.015)
        field = RadialField(r_nodes=r, values=np.full_like(r, 8.0),
                            total_mass=8 * np.pi)
        cfg = SolverConfig(dt_max=0.005)
        its = []
        newton = _WProblem.newton

        def recorded(*args):
            out = newton(*args)
            its.append(out[1])
            return out
        monkeypatch.setattr(_WProblem, "newton", recorded)
        u_times = (0.25, 1.0, 2.0, 5.0)
        traj_w = solve_w(field, cfg, 1.25, [tu / 4.0 for tu in u_times])
        assert its and max(its) < pde._MAX_NEWTON
        for tu in u_times:
            w0v = traj_w.fields[traj_w.times.index(tu / 4.0)].values[0]
            snap = snapshot_at(critical_traj, tu)
            ratio = snap.values[1] / snap.grid.nodes[1]
            assert abs(w0v / 8.0 - ratio) / ratio < 3.7e-3, tu

    def test_transform_round_trip_consistency(self, critical_traj):
        # w_from_u of the solved snapshot gives w(0) = 8 u_x(0)
        snap = snapshot_at(critical_traj, 1.0)
        w = w_from_u(snap)
        ratio = snap.values[1] / snap.grid.nodes[1]
        assert abs(w.values[0] / 8.0 - ratio) < 0.01 * ratio

    def test_blow_up_detected_supercritical(self):
        # boundary value above the critical 8 forces finite-time blow-up
        r = np.linspace(0.0, 1.0, 81)
        field = RadialField(r_nodes=r, values=np.full_like(r, 10.4),
                            total_mass=np.pi * 10.4)
        cfg = SolverConfig(dt_max=0.01, blowup_cap=1e3)
        traj = solve_w(field, cfg, 5.0, [5.0])
        assert traj.events and traj.events[0]["event"] == "blow-up-detected"
        assert traj.events[0]["time"] < 5.0


class TestConvergence:
    def test_trbdf2_second_order(self):
        xi = 0.5
        grid = make_graded_grid(201, 1.0 / 200, 1.0)
        u0 = Snapshot(grid=grid, values=xi * grid.nodes, time=0.0,
                      left_bc=0.0, right_bc=xi)

        def run(dt):
            return fixed_step_values(u0, dt, 1.0)

        ref = run(0.000625)
        errs = [np.max(np.abs(run(dt) - ref)) for dt in (0.04, 0.02, 0.01)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.7

    def test_space_second_order(self):
        xi = 0.5

        def run(n, dt=0.002):
            grid = make_graded_grid(n, 1.0 / (n - 1), 1.0)
            u0 = Snapshot(grid=grid, values=xi * grid.nodes, time=0.0,
                          left_bc=0.0, right_bc=xi)
            return grid, fixed_step_values(u0, dt, 1.0)

        ref_grid, ref = run(513)
        errs = []
        for n in (33, 65, 129):
            grid, u = run(n)
            idx = np.searchsorted(ref_grid.nodes, grid.nodes)
            errs.append(np.max(np.abs(u - ref[idx])))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8


def _d(snap):
    """d(t) = log u_x(0, t) - sqrt(2t), the grow-up observable."""
    return math.log(origin_slope(snap)) - math.sqrt(2.0 * snap.time)


def _local_errors(u, dt, problem):
    """One TR-BDF2 step from u: (max|est|, max error against 64 substeps)."""
    u_step, ok, _, est, _ = _step_once(problem, u, problem.rhs_and_jac(u), dt)
    ref = u.copy()
    for _ in range(64):
        ref = _step_once(problem, ref, problem.rhs_and_jac(ref), dt / 64)[0]
    assert ok
    return np.max(np.abs(est)), np.max(np.abs(u_step - ref))


class TestStepControl:
    def _smooth_state(self):
        xi = 0.5
        grid = make_graded_grid(41, 1.0 / 40, 1.0)
        u0 = Snapshot(grid=grid, values=xi * grid.nodes, time=0.0,
                      left_bc=0.0, right_bc=xi)
        return grid.nodes, fixed_step_values(u0, 1e-3, 0.2), _UProblem(grid, xi)

    def test_estimate_matches_local_error(self):
        # one TR-BDF2 step from a smooth state: the embedded estimate agrees
        # with the error against a 64-substep reference within a factor 3,
        # and it shrinks like dt^3 (8x per halving; accepted: 6x to 10x)
        _, u, problem = self._smooth_state()
        ests = []
        for dt in (0.02, 0.01):
            est, true = _local_errors(u, dt, problem)
            assert true / 3.0 < est < 3.0 * true
            ests.append(est)
        assert 6.0 < ests[0] / ests[1] < 10.0

    def test_filter_damps_stiff_components(self):
        # a grid-scale ripple is damped within the step, so the error it
        # leaves is small; filtered by (I - d dt J)^{-1} the estimate stays
        # within 50x of that error (unfiltered it is 400x too large)
        x, u, problem = self._smooth_state()
        u += 1e-3 * x * np.sin(20.0 * np.pi * x)
        est, true = _local_errors(u, 0.02, problem)
        assert est < 50.0 * true

    def test_time_error_of_d(self, critical_traj):
        # bound fixed before the run: d(20) and d(50) move by less than 1e-3
        # under a 10x tighter local_error_tol (backward Euler with step
        # doubling moved them by 3.2e-3)
        cfg = critical_traj.config
        tight = SolverConfig(local_error_tol=cfg.local_error_tol / 10.0)
        u0 = critical_snapshot(critical_traj.snapshots[0].grid)
        traj = solve(u0, tight, 50.0, [20.0, 50.0])
        for t in (20.0, 50.0):
            assert abs(_d(snapshot_at(traj, t)) - _d(snapshot_at(critical_traj, t))) < 1e-3

    def test_no_sliver_step(self, critical_traj):
        # with a cap of 0.05 most steps run at the cap, and the round-off of
        # t summed over them must not leave a sliver step before t_end
        # (uncapped, the default run takes too few steps to show it)
        grid = critical_traj.snapshots[0].grid
        traj = solve(critical_snapshot(grid),
                     SolverConfig(dt_max=0.05), 50.0,
                     [s.time for s in critical_traj.snapshots])
        assert np.mean(traj.step_sizes == 0.05) > 0.5
        assert traj.step_sizes.min() > 1e-9
        assert traj.step_times[-1] == 50.0

    @pytest.mark.parametrize("extra, max_newton, cause", [
        ({}, pde._MAX_NEWTON, "error_test"),
        ({"local_error_tol": 1.0}, 3, "newton"),
    ], ids=["error_test", "newton"])
    def test_rejections_counted_by_cause(self, monkeypatch, extra, max_newton,
                                         cause):
        # a first step of 0.05 fails the error test; with 3 Newton
        # iterations and an error test too loose to reject, it fails Newton
        # instead.  Every attempt is an accepted or a rejected step.
        grid = make_graded_grid(140, 1e-6, 1.12)
        attempts = []

        def counted(*args):
            attempts.append(args)
            return _step_once(*args)
        monkeypatch.setattr(pde, "_step_once", counted)
        monkeypatch.setattr(pde, "_MAX_NEWTON", max_newton)
        monkeypatch.setattr(pde, "_DT_INITIAL", 0.05)
        cfg = SolverConfig(**extra)
        traj = solve(critical_snapshot(grid), cfg, 3.0, [1.0, 3.0])
        rejected = {"error_test": traj.rejected_error_test,
                    "newton": traj.rejected_newton}
        assert rejected.pop(cause) > 0
        assert rejected.popitem()[1] == 0
        assert len(attempts) == (len(traj.step_times) + traj.rejected_error_test
                                 + traj.rejected_newton)

    @pytest.mark.parametrize("times", [[-1.0, 1.0], [1.0, 2.0], [math.nan, 1.0]],
                             ids=["negative", "beyond_t_end", "nan"])
    def test_output_times_outside_the_run_are_refused(self, times):
        # a NaN time is never reached: the run would drop its snapshot
        grid = make_graded_grid(140, 1e-6, 1.12)
        with pytest.raises(RangeError, match=r"must lie in \[0, t_end\]"):
            solve(critical_snapshot(grid), SolverConfig(), 1.0, times)
        r = _radial_grid()
        field = RadialField(r_nodes=r, values=np.full_like(r, 8.0),
                            total_mass=8 * np.pi)
        with pytest.raises(RangeError, match=r"must lie in \[0, t_end\]"):
            solve_w(field, SolverConfig(dt_max=0.01), 1.0, times)

    def test_wrong_jacobian_fails_fast(self, monkeypatch):
        # with 1 + coef*diag in the iteration matrix, Newton converges only
        # on steps near 1e-9, above the step floor: the run would crawl for
        # hours.  The rejection budget stops it (measured: after 2510
        # attempts, 1001 of them rejected, at t = 1.4e-6, in under 2 s)
        def wrong(coef, sub, diag, sup):
            return -coef * sub[1:], 1.0 + coef * diag, -coef * sup[:-1]

        attempts = []

        def counted(*args):
            attempts.append(1)
            assert len(attempts) <= 20_000, "the run was not stopped"
            return _step_once(*args)
        monkeypatch.setattr(pde, "_iteration_bands", wrong)
        monkeypatch.setattr(pde, "_step_once", counted)
        grid = make_graded_grid(420, 1e-8, 1.07)
        t0 = time.perf_counter()
        with pytest.raises(SolverFailureError, match="more than 1000 steps rejected"):
            solve(critical_snapshot(grid), SolverConfig(), 50.0, [50.0])
        assert time.perf_counter() - t0 < 15.0

    def test_step_floor_applies_after_an_accepted_step(self, monkeypatch):
        # the first step of 1e-7 is accepted, and every later one fails
        # Newton: each retry is a quarter of the last, and the run fails
        # once the proposal lies below the floor of 1e-12.  A floor above
        # the first step fails the run at t = 0
        attempts = []

        def failing_after_one(problem, u, ev, dt, *args):
            attempts.append(dt)
            if len(attempts) == 1:
                return _step_once(problem, u, ev, dt, *args)
            return u, False, 0, None, None
        monkeypatch.setattr(pde, "_step_once", failing_after_one)
        grid = make_graded_grid(140, 1e-6, 1.12)
        with pytest.raises(SolverFailureError,
                           match=r"step size fell to \S+ at t = 1e-07$"):
            solve(critical_snapshot(grid), SolverConfig(), 1.0, [1.0])
        assert 1 < len(attempts) < 20 and min(attempts) >= 1e-12
        monkeypatch.setattr(pde, "_DT_FLOOR", 1e-6)
        with pytest.raises(SolverFailureError,
                           match=r"step size fell to 1e-07 at t = 0$"):
            solve(critical_snapshot(grid), SolverConfig(), 1.0, [1.0])

    def test_solver_config_refusals(self):
        # the local-error test sizes every step: a tolerance < 0 or inf
        # would pass every step unchecked, 0 or NaN fail the run; a cap <= 0
        # would make steps of no or negative length, a NaN cap cap nothing.
        # By default nothing caps the steps
        for tol in (None, 0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError, match="local_error_tol must be finite and > 0"):
                SolverConfig(local_error_tol=tol)
        for cap in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="dt_max must be None or > 0"):
                SolverConfig(dt_max=cap)
        assert SolverConfig().dt_max is None

    @pytest.mark.parametrize("times", [[1.0, 1.0 + 1e-13, 2.0], [1e-13, 2.0],
                                       [0.0, 1e-13, 2.0]],
                             ids=["apart", "from_0", "from_output_0"])
    def test_output_times_closer_than_the_step_floor_run(self, times):
        # no step lands on an output time, so times closer than the step
        # floor of 1e-12 run, with one snapshot each and the steps of a run
        # without them
        grid = make_graded_grid(140, 1e-6, 1.12)
        u0 = critical_snapshot(grid)
        steps = solve(u0, SolverConfig(), 2.0, [2.0]).step_times
        traj = solve(u0, SolverConfig(), 2.0, times)
        assert [s.time for s in traj.snapshots] == times
        assert np.array_equal(traj.step_times, steps)

    def test_output_times_at_the_floor_and_at_zero(self):
        # 2e-12 apart runs with the steps of a run without them, and output
        # time 0 is the initial state itself
        grid = make_graded_grid(140, 1e-6, 1.12)
        u0 = critical_snapshot(grid)
        steps = solve(u0, SolverConfig(), 2.0, [2.0]).step_times
        times = [0.0, 1.0, 1.0 + 2e-12, 2.0]
        traj = solve(u0, SolverConfig(), 2.0, times)
        assert [s.time for s in traj.snapshots] == times
        assert np.array_equal(traj.step_times, steps)
        assert np.array_equal(traj.snapshots[0].values, u0.values)

    @pytest.mark.parametrize("form", ["u", "w"])
    def test_output_times_do_not_steer_the_steps(self, form):
        # two runs asking for different output times take the same steps
        # and agree bit for bit at every time they share; an output time on
        # a step's end, t_end among them, gets that accepted state itself
        if form == "u":
            grid = make_graded_grid(140, 1e-6, 1.12)
            problem, v0 = _UProblem(grid, 1.0), grid.nodes.copy()
            t_end, cfg = 2.0, SolverConfig()
        else:
            r = _radial_grid()
            problem, v0 = _WProblem(r), np.full_like(r, 8.0)
            t_end, cfg = 0.5, SolverConfig(dt_max=0.005)

        def run(times):
            accepted = {}

            def keep(v, t, est):
                accepted[t] = v.copy()
            outs, steps, *_ = pde._advance(problem, v0, t_end, times, cfg, keep)
            return outs, steps, accepted

        few, steps, accepted = run([0.3 * t_end, t_end])
        on_step = float(steps[len(steps) // 2])
        many, many_steps, _ = run([0.0, 0.1 * t_end, 0.3 * t_end, on_step,
                                   0.7 * t_end, t_end])
        assert np.array_equal(steps, many_steps)
        for t in (0.3 * t_end, t_end):
            assert _same_bits(few[t], many[t]), t
        for t in (on_step, t_end):
            assert _same_bits(many[t], accepted[t]), t


class TestEvaluationReuse:
    """Each state is evaluated once: the Newton solve that accepts a state
    hands F(u) and its Jacobian bands on to the next step."""

    @pytest.mark.parametrize("extra, max_newton, cause", [
        ({}, pde._MAX_NEWTON, "error_test"),
        ({"local_error_tol": 1.0}, 3, "newton"),
    ], ids=["error_test", "newton"])
    def test_carried_evaluation_is_fresh(self, monkeypatch, extra, max_newton,
                                         cause):
        # the rejection scenarios of test_rejections_counted_by_cause: a
        # rejected step leaves u, and the evaluation carried with it must
        # stay that of u, at every attempt
        grid = make_graded_grid(140, 1e-6, 1.12)
        stale = []

        def checked(problem, u, ev, *args):
            fresh = problem.rhs_and_jac(u)
            stale.append(not all(np.array_equal(a, b) for a, b in zip(ev, fresh)))
            return _step_once(problem, u, ev, *args)
        monkeypatch.setattr(pde, "_step_once", checked)
        monkeypatch.setattr(pde, "_MAX_NEWTON", max_newton)
        monkeypatch.setattr(pde, "_DT_INITIAL", 0.05)
        traj = solve(critical_snapshot(grid), SolverConfig(**extra), 3.0,
                     [1.0, 3.0])
        assert getattr(traj, f"rejected_{cause}") > 0
        assert len(stale) == (len(traj.step_times) + traj.rejected_error_test
                              + traj.rejected_newton)
        assert not any(stale)

    @pytest.mark.parametrize("form", ["u", "w"])
    def test_no_state_is_evaluated_twice(self, monkeypatch, form):
        # the default-grid u-form run to t = 2 and the critical w-form run:
        # no rhs_and_jac call sees a state an earlier call has seen
        cls = _UProblem if form == "u" else _WProblem
        seen = []
        rhs_and_jac = cls.rhs_and_jac

        def recorded(self, u):
            seen.append(u.tobytes())
            return rhs_and_jac(self, u)
        monkeypatch.setattr(cls, "rhs_and_jac", recorded)
        if form == "u":
            grid = make_graded_grid(420, 1e-8, 1.07)
            solve(critical_snapshot(grid), SolverConfig(), 2.0, [1.0, 2.0])
        else:
            r = _radial_grid()
            field = RadialField(r_nodes=r, values=np.full_like(r, 8.0),
                                total_mass=8 * np.pi)
            solve_w(field, SolverConfig(dt_max=0.005), 1.25,
                    [0.0625, 0.25, 0.5, 1.25])
        assert seen and len(set(seen)) == len(seen)


def _critical_run(n, x_min, ratio, t_out, **cfg):
    grid = make_graded_grid(n, x_min, ratio)
    return solve(critical_snapshot(grid),
                 SolverConfig(**cfg), max(t_out), t_out)


class TestTimeErrorBar:
    """The bar on d from the summed embedded estimate (Trajectory.d_time_err).

    Bounds fixed before the runs were looked at: at t = 20 and 50 the bar
    covers the true time error of d and is at most 5x it; and it is no wider
    than the Richardson estimate of the space error of d."""

    T = (20.0, 50.0)

    def _bar(self, traj, t):
        return traj.d_time_err[[s.time for s in traj.snapshots].index(t)]

    def test_bar_covers_the_time_error(self, critical_traj):
        # the time-converged reference: 100x tighter local error test and a
        # cap of 0.02 (about 3000 steps)
        ref = _critical_run(420, 1e-8, 1.07, list(self.T), local_error_tol=1e-8,
                            dt_max=0.02)
        for t in self.T:
            err = abs(_d(snapshot_at(critical_traj, t)) - _d(snapshot_at(ref, t)))
            assert err <= self._bar(critical_traj, t) <= 5.0 * err, t

    def test_bar_is_below_the_space_error(self, critical_traj):
        # partners of the default grid (420 nodes, x_min 1e-8, ratio 1.07)
        # with half and twice the nodes; (d_420 - d_210)/3 estimates the
        # space error of d_420 when the error is second order, which the
        # ratio of successive differences checks (4 for second order), at
        # t = 5 too, where the bar is not compared
        times = [5.0, *self.T]
        coarse = _critical_run(210, 2e-8, 1.07 ** 2, times)
        fine = _critical_run(840, 5e-9, 1.07 ** 0.5, times)
        for t in times:
            d_c, d_m, d_f = (_d(snapshot_at(tr, t)) for tr in (coarse, critical_traj, fine))
            assert 3.0 <= (d_m - d_c) / (d_f - d_m) <= 5.0, t
            if t in self.T:
                assert self._bar(critical_traj, t) <= abs(d_m - d_c) / 3.0, t

    def test_bar_is_finite_on_a_coarse_grid(self):
        # x_1 = 0.01 with u = U_a at a = 1e4: node 1 lies far outside the
        # inner layer (y_1 = 100), and the bar is still finite
        grid = make_graded_grid(40, 0.01, 1.3)
        ua = steady_profile(1e4, grid)
        traj = solve(ua, SolverConfig(), 0.5, [0.5])
        assert np.all(np.isfinite(traj.d_time_err))

    def test_bar_sums_through_the_covering_step(self):
        # a snapshot inside an accepted step (t_k, t_k+1] carries the bar
        # through that step, as one at t_k+1 does; output 0 carries none
        grid = make_graded_grid(140, 1e-6, 1.12)
        u0 = critical_snapshot(grid)
        steps = solve(u0, SolverConfig(), 2.0, [2.0]).step_times
        a, b = float(steps[9]), float(steps[10])
        bar = solve(u0, SolverConfig(), 2.0,
                    [0.0, a, 0.5 * (a + b), b, 2.0]).d_time_err
        assert bar[0] == 0.0 and 0.0 < bar[1] < bar[2] == bar[3]

    def test_bar_grows(self, critical_traj):
        # the bar sums one nonnegative term per step, so it never decreases
        bars = critical_traj.d_time_err
        assert bars[0] > 0.0 and np.all(np.diff(bars) >= 0.0)
