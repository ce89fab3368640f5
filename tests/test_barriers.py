import copy

import numpy as np
import pytest

from ksgrowup.barriers import (BarrierSpec, certify_sign,
                               check_boundary_matching, eval_barrier,
                               find_time_shifts, residual_reduced, time_lattice)
from ksgrowup.grids import Snapshot, make_graded_grid
from ksgrowup.matching import integrate_a
from ksgrowup.specialfn import PhiBlend, SpecialFunctions
from ksgrowup.barriers import boundary_margin
from ksgrowup.errors import ConstructionError, OrderingFailureError, RangeError
from oracles import residual_fd, residual_full

# the lattice of the desk-scale scans, inside the reach of funcs_med
DESK = np.geomspace(1.0, 50.0, 96)


class StubPath:
    """Duck-typed path with prescribed constants (for synthetic barriers);
    like a MatchingPath, it gives one value per time of an array."""

    def __init__(self, a=50.0, b=0.0, gamma=0.0, K=5.0):
        self._a, self._b, self._g = a, b, gamma
        self.K = K
        self.t_end = 1e9

    def closed_forms_at(self, t):
        return tuple(np.full(np.shape(t), v, dtype=float)
                     for v in (self._a, self._b, self._g, 0.0))

    def loga_at(self, t):
        return np.full(np.shape(t), np.log(self._a))


@pytest.fixture(scope="module")
def lower_med(path_k5, funcs_med):
    return BarrierSpec(kind="lower", path=path_k5, table=funcs_med)


@pytest.fixture(scope="module")
def upper_med(path_k6, funcs_med):
    return BarrierSpec(kind="upper", path=path_k6, table=funcs_med)


class TestEval:
    def test_vanishes_at_origin(self, lower_med, upper_med):
        for spec in (lower_med, upper_med):
            v, _ = eval_barrier(spec, np.array([0.0]), 5.0)
            assert v[0] == 0.0

    def test_lower_origin_slope(self, lower_med):
        # tabulated f'(0) = 1, g'(0) = 0: slope at x = 0 is a (1 + b),
        # asymptotically a(t)
        for t in (2.0, 20.0):
            _, s = eval_barrier(lower_med, np.array([0.0]), t)
            a, b, _, _ = lower_med.path.closed_forms_at(t)
            assert abs(s[0] - a * (1.0 + b)) < 1e-9 * a
            assert abs(s[0] / a - 1.0) < 2.0 * b

    def test_b_zero_reduces_to_steady_profile(self, funcs_med):
        spec = BarrierSpec(kind="lower", path=StubPath(a=50.0, b=0.0), table=funcs_med)
        x = np.linspace(0, 1, 33)
        v, s = eval_barrier(spec, x, 1.0)
        assert np.max(np.abs(v - 50 * x / (50 * x + 1))) < 1e-12
        assert np.max(np.abs(s - 50.0 / (50 * x + 1) ** 2)) < 1e-9

    def test_range_error(self, lower_med):
        with pytest.raises(RangeError):
            eval_barrier(lower_med, np.array([1.0]), 100.0)  # a(100) > y_max

    def test_bad_kind(self, path_k5, funcs_med):
        with pytest.raises(ConstructionError):
            BarrierSpec(kind="middle", path=path_k5, table=funcs_med)


class TestResidual:
    def test_anchored_zero(self, lower_med, upper_med):
        assert residual_reduced(lower_med, np.array([0.0]), 3.0)[0] == 0.0
        assert residual_reduced(upper_med, np.array([0.0]), 3.0)[0] == 0.0

    def test_b_zero_residual(self, funcs_med):
        # with b = 0 and gamma = 0 the full residual a b^2 (A or B) vanishes
        for kind in ("lower", "upper"):
            spec = BarrierSpec(kind=kind, path=StubPath(b=0.0, gamma=0.0),
                               table=funcs_med)
            y = np.geomspace(1e-3, 40.0, 30)
            assert np.max(np.abs(residual_full(spec, y, 1.0))) == 0.0
            A = residual_reduced(spec, y, 1.0)
            if kind == "lower":
                assert np.max(np.abs(A)) < 1e-14
            else:
                assert np.all(A >= 0.0)  # reduces to M phi >= 0

    def test_signs_at_moderate_times(self, lower_med, upper_med):
        for t in (2.0, 10.0, 50.0):
            a = float(lower_med.path.closed_forms_at(t)[0])
            y = np.geomspace(1e-6, a, 400)
            assert np.max(residual_reduced(lower_med, y, t)) <= 1e-11
            a = float(upper_med.path.closed_forms_at(t)[0])
            y = np.geomspace(1e-6, a, 400)
            assert np.min(residual_reduced(upper_med, y, t)) >= -1e-11

    def test_fd_matches_grouped_algebra(self, lower_med, upper_med):
        for spec, t, x in ((lower_med, 2.0, 0.1), (lower_med, 4.0, 0.02),
                           (upper_med, 3.0, 0.05)):
            ref = float(residual_full(
                spec, np.array([spec.path.closed_forms_at(t)[0] * x]), t)[0])
            fd = residual_fd(spec, x, t)
            assert abs(fd - ref) < 2e-2 * abs(ref)

    def test_fd_second_order(self, lower_med):
        t, x = 2.0, 0.08
        ref = float(residual_full(
            lower_med, np.array([lower_med.path.closed_forms_at(t)[0] * x]), t)[0])
        e1 = abs(residual_fd(lower_med, x, t, dx_rel=2e-3, dt_rel=4e-3) - ref)
        e2 = abs(residual_fd(lower_med, x, t, dx_rel=1e-3, dt_rel=2e-3) - ref)
        assert e2 < 0.4 * e1

    def test_fd_on_steady_profile(self, funcs_med):
        # b = 0 barrier is the steady profile; P(U_a) = 0
        spec = BarrierSpec(kind="lower", path=StubPath(a=50.0, b=0.0), table=funcs_med)
        fd = residual_fd(spec, 0.02, 1.0)
        assert abs(fd) < 1e-5

    def test_parabolic_operator_on_separable_solution(self):
        # P[K x / (1 - 2 K t)] = 0 identically; central differences confirm
        K = 1.0

        def v(x, t):
            return K * x / (1.0 - 2.0 * K * t)

        x, t, dx, dt = 0.5, 0.1, 1e-4, 1e-4
        u_t = (v(x, t + dt) - v(x, t - dt)) / (2 * dt)
        u_xx = (v(x + dx, t) - 2 * v(x, t) + v(x - dx, t)) / dx ** 2
        u_x = (v(x + dx, t) - v(x - dx, t)) / (2 * dx)
        assert abs(u_t - x * u_xx - 2 * v(x, t) * u_x) < 1e-6


class TestCertify:
    def test_lower_certifies(self, lower_med):
        rep = certify_sign(lower_med, np.geomspace(0.5, 50.0, 24), 40)
        assert rep.threshold_T is not None
        assert rep.threshold_T <= 1.0
        assert rep.worst_value <= 1e-11

    def test_upper_certifies(self, upper_med):
        rep = certify_sign(upper_med, np.geomspace(0.5, 50.0, 24), 40)
        assert rep.threshold_T is not None
        assert rep.worst_value >= -1e-11

    def test_upper_small_m_fails(self, path_k6, funcs_med):
        # a counterfeit table with M = 0.02: h = g + M g4 and the M phi term
        # of the residual both read the table's M
        weak = copy.copy(funcs_med)
        weak.M = 0.02
        spec = BarrierSpec(kind="upper", path=path_k6, table=weak)
        rep = certify_sign(spec, np.geomspace(1.0, 20.0, 16), 40)
        assert rep.threshold_T is None
        # the failure sits at moderate inner coordinate, where M phi is the
        # only positive contribution once gamma (2ff'-yf') turns negative
        a = path_k6.closed_forms_at(rep.worst_location[1])[0]
        worst_y = rep.worst_location[0] * a
        assert worst_y < 100.0

    def test_refining_scan_never_rescues(self, lower_med):
        ts = np.geomspace(0.5, 20.0, 12)
        coarse = certify_sign(lower_med, ts, 10)
        fine = certify_sign(lower_med, ts, 80)
        assert fine.worst_value >= coarse.worst_value - 1e-15
        assert coarse.threshold_T is not None and fine.threshold_T is not None

    def test_phi_blend_sensitivity(self, path_k6):
        # the blend segment of phi below the join is free; the certified
        # threshold must not hinge on it
        thresholds = []
        for scale in (0.5, 1.0, 2.0):
            class Blend(PhiBlend):
                slope0 = scale * 0.72134752

            class Funcs(SpecialFunctions):
                phi = Blend()
            fn = Funcs(3e6, npd=20)
            spec = BarrierSpec(kind="upper", path=path_k6, table=fn)
            rep = certify_sign(spec, np.geomspace(0.5, 50.0, 16), 40)
            assert rep.threshold_T is not None
            thresholds.append(rep.threshold_T)
        assert max(thresholds) <= 4.0 * max(min(thresholds), 0.5)


class TestMonotone:
    # certify_sign checks the lower barrier's x-slope on the lattice it scans
    def test_lower_monotone_beyond_threshold(self, lower_med):
        rep = certify_sign(lower_med, np.geomspace(0.5, 50.0, 24), 40)
        assert rep.threshold_T < 1.0 and rep.slope_ok

    def test_huge_b_breaks_monotonicity(self, funcs_med):
        spec = BarrierSpec(kind="lower", path=StubPath(a=50.0, b=5.0),
                           table=funcs_med)
        assert certify_sign(spec, np.geomspace(1.0, 2.0, 24), 40).slope_ok is False

    def test_kind_guard(self, upper_med):
        # the slope check applies to the lower barrier only
        assert certify_sign(upper_med, np.geomspace(1.0, 2.0, 4), 40).slope_ok is None


class TestBoundaryMatching:
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_batched_margins_equal_pointwise(self, kind, lower_med, upper_med):
        # one table call for the whole lattice gives the bits of one call
        # per time, as the bisection makes them
        spec = lower_med if kind == "lower" else upper_med
        ts = np.geomspace(1.0, 50.0, 48)
        pointwise = [boundary_margin(spec, t)[0] for t in ts]
        assert np.array_equal(boundary_margin(spec, ts), pointwise)

    def test_lower_k5_holds(self, lower_med):
        rep = check_boundary_matching(lower_med, DESK)
        assert rep.onset_t is not None
        assert rep.onset_t < 20.0

    def test_lower_k7_fails(self, funcs_med):
        path = integrate_a(7.0, 60.0)
        spec = BarrierSpec(kind="lower", path=path, table=funcs_med)
        rep = check_boundary_matching(spec, DESK)
        assert rep.onset_t is None
        assert np.all(boundary_margin(spec, DESK)[-10:] < 0.0)

    def test_upper_k6_desk_scale_negative(self, upper_med):
        # the upper inequality needs the deep-asymptotic regime; margins are
        # still negative at t <= 50 and shrink toward zero
        rep = check_boundary_matching(upper_med, DESK)
        assert rep.onset_t is None
        m = boundary_margin(upper_med, DESK)
        assert np.all(m < 0.0)
        assert abs(m[-1]) < abs(m[0])

    def test_upper_k6_certifies_eventually(self, path_k6_big, funcs_big,
                                           default_lattice):
        spec = BarrierSpec(kind="upper", path=path_k6_big, table=funcs_big)
        rep = check_boundary_matching(spec, default_lattice)
        assert rep.onset_t is not None
        assert 500.0 < rep.onset_t < 2000.0

    def test_upper_k5_swap_fails(self, path_k5_big, funcs_big, default_lattice):
        spec = BarrierSpec(kind="upper", path=path_k5_big, table=funcs_big)
        rep = check_boundary_matching(spec, default_lattice)
        assert rep.onset_t is None
        assert np.all(boundary_margin(spec, default_lattice)[-10:] < 0.0)


class TestTimeShifts:
    def test_barrier_as_initial_data_needs_no_shift(self, lower_med):
        # start the run from (the admissible monotone envelope of) the
        # lower barrier at its certified onset; ordering then holds with
        # T1 = 0 (the equation is autonomous, so the trajectory clock is
        # tagged to start at the onset)
        t0 = 6.0
        grid = make_graded_grid(220, 1e-7, 1.09)
        v, _ = eval_barrier(lower_med, grid.nodes, t0)
        v = np.maximum.accumulate(np.clip(v, 0.0, 1.0))
        v[-1] = 1.0
        u0 = Snapshot(grid=grid, values=v, time=0.0, left_bc=0.0, right_bc=1.0)
        from ksgrowup.pde import SolverConfig, solve
        traj = solve(u0, SolverConfig(), 6.0,
                     [1.0, 2.0, 4.0, 6.0])
        shifted = [Snapshot(grid=s.grid, values=s.values, time=s.time + t0,
                            left_bc=s.left_bc, right_bc=s.right_bc)
                   for s in traj.snapshots]
        from ksgrowup.barriers import _lower_violation
        assert _lower_violation(lower_med, shifted, 0.0, t0) <= 1e-9

    def test_pre_onset_window_costs_a_shift(self, lower_med, fast_traj):
        # starting the comparison clock at 0 (barrier not yet a
        # subsolution) requires a small positive shift
        from ksgrowup.barriers import _lower_violation, _search_shift
        t1, _ = _search_shift(
            lambda s: _lower_violation(lower_med, fast_traj.snapshots, s, 6.0),
            shift_max=50.0, lattice=0.25, slack=1e-9)
        assert 0.0 <= t1 <= 5.0

    def test_shift_search_refines_between_doublings(self):
        # a violation above the slack below shift 3.3: the doublings bracket
        # it in (2, 4], and the refinement halves to the lattice, failing at
        # the midpoints 3 and 3.25 and holding at 3.5
        from ksgrowup.barriers import _search_shift
        probes = []

        def violation(shift):
            probes.append(shift)
            return 1.0 if shift < 3.3 else shift * 1e-12
        assert _search_shift(violation, shift_max=50.0, lattice=0.25,
                             slack=1e-9) == (3.5, 3.5e-12)
        assert probes == [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 3.0, 3.5, 3.25]

    def test_shift_search_raises_when_capped(self, fast_traj, lower_med,
                                             upper_med):
        # the K = 6 upper onset (t ~ 1150.6) needs a shift far above 5
        lower_onset = check_boundary_matching(lower_med, DESK).onset_t
        with pytest.raises(OrderingFailureError, match="shift_max"):
            find_time_shifts(lower_med, upper_med, fast_traj.snapshots,
                             shift_max=5.0, lattice=0.5, slack=1e-9,
                             t_min_upper=0.5, lower_onset=lower_onset,
                             upper_onset=1150.6)

    def test_path_horizon_guard(self, fast_traj, funcs_med, path_k5):
        short = integrate_a(6.0, 20.0)
        spec_up = BarrierSpec(kind="upper", path=short, table=funcs_med)
        spec_lo = BarrierSpec(kind="lower", path=path_k5, table=funcs_med)
        with pytest.raises(RangeError):
            find_time_shifts(spec_lo, spec_up, fast_traj.snapshots,
                             shift_max=100.0, lattice=0.25, slack=1e-9,
                             t_min_upper=0.5, lower_onset=6.0,
                             upper_onset=1150.6)

    def test_lower_onset_at_the_scans_first_time_is_used_as_is(
            self, fast_traj, lower_med, path_k6_big, funcs_big, default_lattice):
        # a scan that starts past the true onset (t ~ 5.8) puts the onset at
        # its first time; the sandwich then compares exactly the snapshots
        # with t - T1 >= that time, and none below it
        scan = np.geomspace(7.0, 50.0, 96)
        late = check_boundary_matching(lower_med, scan)
        assert late.onset_t == scan[0] == 7.0
        upper = BarrierSpec(kind="upper", path=path_k6_big, table=funcs_big)
        upper_onset = check_boundary_matching(upper, default_lattice).onset_t
        rep = find_time_shifts(lower_med, upper, fast_traj.snapshots,
                               shift_max=2000.0, lattice=0.25, slack=1e-9,
                               t_min_upper=0.5, lower_onset=late.onset_t,
                               upper_onset=upper_onset)
        times = [s.time for s in fast_traj.snapshots]
        compared = [t for t in times if t - rep.T1 >= 7.0]
        assert rep.lower_onset == 7.0
        assert 0 < rep.n_times_lower == len(compared) < len(times)
        assert rep.max_t_lower == max(compared) - rep.T1
        assert rep.max_t_upper == max(times) + rep.T2
        assert rep.worst_lower <= rep.slack


# ---------------------------------------------------------------------------
# batching oracles: the per-time loops the batched scans replaced


def _certify_per_time(spec, ts, y_resolution, tol=1e-11):
    """threshold_T, worst_value and worst_location from one residual call
    per lattice time."""
    from ksgrowup.barriers import _scan_grid
    ok, worst = [], []
    for t in ts:
        a = float(spec.path.closed_forms_at(t)[0])
        ys = _scan_grid(a, y_resolution)
        vals = residual_reduced(spec, ys, float(t))
        i = int(np.argmax(vals) if spec.kind == "lower" else np.argmin(vals))
        ok.append(vals[i] <= tol if spec.kind == "lower" else vals[i] >= -tol)
        worst.append((float(vals[i]), float(ys[i] / a), float(t)))
    j = next((j for j in range(len(ts)) if all(ok[j:])), None)
    region = worst if j is None else worst[j:]
    pick = max if spec.kind == "lower" else min
    w = pick(region, key=lambda r: r[0])
    return None if j is None else float(ts[j]), w[0], (w[1], w[2])


def _monotone_per_time(spec, ts, y_resolution):
    """Whether the barrier's x-slope is positive at x = 0 and at every scan
    point, at each of the times ts, from one call per time."""
    from ksgrowup.barriers import _scan_grid
    for t in ts:
        a = float(spec.path.closed_forms_at(t)[0])
        ys = np.concatenate([[0.0], _scan_grid(a, y_resolution)])
        if np.any(eval_barrier(spec, ys / a, float(t))[1] <= 0.0):
            return False
    return True


def _violations_per_snapshot(lower, upper, snaps, T1, onset, T2, t_min):
    worst_lo = -np.inf
    for s in snaps:
        if s.time - T1 >= onset:
            v, _ = eval_barrier(lower, s.grid.nodes, s.time - T1)
            worst_lo = max(worst_lo, float(np.max(v - s.values)))
    worst_up = -np.inf
    for s in snaps:
        if s.time >= t_min:
            v, _ = eval_barrier(upper, s.grid.nodes, s.time + T2)
            worst_up = max(worst_up, float(np.max(s.values - v)))
    return worst_lo, worst_up


def _bisected_onset(spec, ts):
    """The onset on the lattice ts as 40 one-point bisection steps refine it."""
    m = boundary_margin(spec, ts)
    j = next(j for j in range(len(ts)) if np.all(m[j:] > 0.0))
    lo, hi = float(ts[j - 1]), float(ts[j])
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if boundary_margin(spec, mid)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


class TestBatchedScans:
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_array_times_equal_per_time_calls(self, kind, lower_med, upper_med):
        spec = lower_med if kind == "lower" else upper_med
        ts = np.geomspace(0.5, 50.0, 7)
        xs = [np.geomspace(1e-9, 1.0, 30 + 7 * j) for j in range(len(ts))]
        x = np.concatenate(xs)
        t = np.repeat(ts, [len(v) for v in xs])
        value, slope = eval_barrier(spec, x, t)
        parts = [eval_barrier(spec, v, float(tj)) for v, tj in zip(xs, ts)]
        assert np.array_equal(value, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(slope, np.concatenate([p[1] for p in parts]))
        ys = [v * float(spec.path.closed_forms_at(tj)[0]) for v, tj in zip(xs, ts)]
        batched = residual_reduced(spec, np.concatenate(ys), t)
        per_time = [residual_reduced(spec, y, float(tj)) for y, tj in zip(ys, ts)]
        assert np.array_equal(batched, np.concatenate(per_time))

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_certify_sign_equals_per_time_loop(self, kind, lower_med, upper_med):
        spec = lower_med if kind == "lower" else upper_med
        ts = np.geomspace(0.5, 60.0, 20)
        rep = certify_sign(spec, ts, 30)
        ref = _certify_per_time(spec, ts, 30)
        assert (rep.threshold_T, rep.worst_value, rep.worst_location) == ref

    def test_failing_certify_equals_per_time_loop(self, path_k6, funcs_med):
        # M = 0 leaves the upper residual negative: no threshold
        small = copy.copy(funcs_med)
        small.M = 0.0
        spec = BarrierSpec(kind="upper", path=path_k6, table=small)
        ts = np.geomspace(0.5, 60.0, 20)
        rep = certify_sign(spec, ts, 30)
        ref = _certify_per_time(spec, ts, 30)
        assert ref[0] is None
        assert (rep.threshold_T, rep.worst_value, rep.worst_location) == ref

    def test_lower_monotone_equals_per_time_loop(self, lower_med, funcs_med):
        # the slope is checked from threshold_T on, at every lattice time
        # when the sign never certifies
        ts = np.geomspace(0.5, 60.0, 24)
        rep = certify_sign(lower_med, ts, 40)
        assert rep.slope_ok == _monotone_per_time(
            lower_med, ts[ts >= rep.threshold_T], 40) is True
        steep = BarrierSpec(kind="lower", path=StubPath(a=50.0, b=5.0),
                            table=funcs_med)
        ts = np.geomspace(1.0, 2.0, 24)
        rep = certify_sign(steep, ts, 40)
        assert rep.threshold_T is None
        assert rep.slope_ok == _monotone_per_time(steep, ts, 40) is False

    @pytest.mark.parametrize("T1,T2", [(0.0, 0.0), (0.75, 10.0), (3.0, 40.0)])
    def test_violations_equal_snapshot_loop(self, T1, T2, fast_traj,
                                            lower_med, upper_med):
        from ksgrowup.barriers import _lower_violation, _upper_violation
        snaps = fast_traj.snapshots
        onset, t_min = 2.0, 1.0
        ref = _violations_per_snapshot(lower_med, upper_med, snaps, T1, onset,
                                       T2, t_min)
        assert _lower_violation(lower_med, snaps, T1, onset) == ref[0]
        assert _upper_violation(upper_med, snaps, T2, t_min) == ref[1]
        assert _lower_violation(lower_med, snaps, T1, np.inf) == -np.inf

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_onset_matches_bisection(self, kind, lower_med, path_k6_big,
                                     funcs_big, default_lattice):
        if kind == "lower":
            spec, ts = lower_med, DESK
        else:
            spec = BarrierSpec(kind="upper", path=path_k6_big, table=funcs_big)
            ts = default_lattice
        rep = check_boundary_matching(spec, ts)
        ref = _bisected_onset(spec, ts)
        assert abs(rep.onset_t - ref) <= 1e-9 * ref
        assert boundary_margin(spec, rep.onset_t)[0] > 0.0


# ---------------------------------------------------------------------------
# certify's one y-lattice, shared by every lattice time

# inner-variable ends a(t) of a scan: both sides of y_floor's switch at
# a = 1000, lattice points themselves (10, 1000), and far beyond the tables
SCAN_ENDS = [0.3, 1.0, 7.5, 10.0, 999.0, 1000.0, 1234.5, 3.2e4, 1e8, 1e30]
RESOLUTIONS = [10, 36, 40, 44, 80]


class TestScanLattice:
    @pytest.mark.parametrize("r", RESOLUTIONS)
    def test_lattice_points_are_shared_bitwise(self, r):
        from ksgrowup.barriers import _scan_grid
        for i, a1 in enumerate(SCAN_ENDS):
            for a2 in SCAN_ENDS[i + 1:]:
                g1, g2 = _scan_grid(a1, r), _scan_grid(a2, r)
                lat1, lat2 = g1[8:-1], g2[8:-1]
                # g2[7] is the larger y_floor; below it only g1 scans
                assert np.array_equal(lat1[lat1 > g2[7]], lat2[lat2 < a1])

    @pytest.mark.parametrize("r", RESOLUTIONS)
    def test_scan_ends_at_a_and_keeps_the_old_density(self, r):
        from ksgrowup.barriers import _scan_grid
        for a in SCAN_ENDS + list(np.geomspace(0.5, 1e30, 97)):
            g = _scan_grid(float(a), r)
            assert g[-1] == a and np.all(np.diff(g) > 0.0)
            y_floor = min(1e-6, a * 1e-9)
            decades = max(1.0, np.log10(a / y_floor))
            assert len(g) >= max(16, int(decades * r)) + 8

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_one_table_evaluation_per_certify(self, kind, lower_med, upper_med,
                                              monkeypatch):
        from ksgrowup.barriers import _BATCH_POINTS, _scan_grid
        spec = lower_med if kind == "lower" else upper_med
        sizes = []
        original = SpecialFunctions.eval

        def counted(table, yq):
            sizes.append(np.size(yq))
            return original(table, yq)

        monkeypatch.setattr(SpecialFunctions, "eval", counted)
        rep = certify_sign(spec, DESK, 40)
        assert rep.threshold_T is not None and len(sizes) == 1
        # the scans hold several batches' worth of points, their union fewer
        a = spec.path.closed_forms_at(DESK)[0]
        scanned = sum(len(_scan_grid(float(aj), 40)) for aj in a)
        assert sizes[0] < _BATCH_POINTS < scanned


# ---------------------------------------------------------------------------
# certify's one time lattice


class TestLattice:
    @pytest.mark.parametrize("n_t", [43, 48, 53])
    def test_prefix_is_geomspace_and_end_reaches_the_sandwich(self, n_t):
        ts = time_lattice(0.5, 1000.0, n_t, 2050.0)
        assert np.array_equal(ts[:n_t], np.geomspace(0.5, 1000.0, n_t))
        assert ts[-1] >= 2050.0 > ts[-2]
        ratios = ts[1:] / ts[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)

    def test_reach_inside_the_geomspace_adds_nothing(self):
        assert np.array_equal(time_lattice(0.5, 1000.0, 48, 800.0),
                              np.geomspace(0.5, 1000.0, 48))

    def test_bad_lattice(self):
        with pytest.raises(RangeError):
            time_lattice(1000.0, 0.5, 48, 2050.0)

    def test_default_thresholds_are_the_benchmark_references(
            self, default_lattice, path_k5_big, path_k6_big, funcs_big):
        # perfbench/workloads.py checks threshold_T against these lattice
        # points of geomspace(0.5, 1000, 48)
        assert len(default_lattice) == 53
        lower = certify_sign(BarrierSpec(kind="lower", path=path_k5_big,
                                         table=funcs_big), default_lattice, 40)
        upper = certify_sign(BarrierSpec(kind="upper", path=path_k6_big,
                                         table=funcs_big), default_lattice, 40)
        assert lower.threshold_T == 0.69093845710337354 and lower.slope_ok
        assert upper.threshold_T == 0.5

    # A refined onset lies where the margin's sign is round-off.  Around the
    # lower onset that zone is 1e-14 (relative) wide.  The upper margin
    # rises by only 4e-5 per unit of relative time there, so its sign
    # flips back and forth over a zone 1.8e-11 wide: no lattice can place
    # that onset more closely.
    @pytest.mark.parametrize("kind, rtol", [("lower", 1e-12), ("upper", 2e-11)])
    def test_onset_stands_a_four_times_denser_lattice(
            self, kind, rtol, default_lattice, path_k5_big, path_k6_big, funcs_big):
        spec = BarrierSpec(kind=kind, table=funcs_big,
                           path=path_k5_big if kind == "lower" else path_k6_big)
        onset = check_boundary_matching(spec, default_lattice).onset_t
        dense = time_lattice(0.5, 1000.0, 4 * 47 + 1, 2050.0)
        ref = check_boundary_matching(spec, dense).onset_t
        assert abs(onset - ref) <= rtol * ref

    @pytest.mark.parametrize("n_t", [43, 48, 53])
    def test_signs_certify_and_swaps_fail_to_the_end(self, n_t, funcs_big,
                                                     path_k5_big, path_k6_big):
        # certify's defaults with n_t scaled as the benchmark's seeds scale it
        ts = time_lattice(0.5, 1000.0, n_t, 2050.0)
        lower = certify_sign(BarrierSpec(kind="lower", path=path_k5_big,
                                         table=funcs_big), ts, 40)
        upper = certify_sign(BarrierSpec(kind="upper", path=path_k6_big,
                                         table=funcs_big), ts, 40)
        assert lower.threshold_T is not None and lower.slope_ok
        assert upper.threshold_T is not None
        for kind, path in (("lower", integrate_a(7.0, ts[-1])),
                           ("upper", path_k5_big)):
            spec = BarrierSpec(kind=kind, path=path, table=funcs_big)
            rep = check_boundary_matching(spec, ts)
            assert rep.onset_t is None and boundary_margin(spec, ts)[-1] < 0.0
