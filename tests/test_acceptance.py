"""Acceptance gate: one test per criterion, each printing a PASS line.

Run as  pytest -s tests/test_acceptance.py  to see the per-criterion lines.
All tolerances are pinned here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from ksgrowup import cli
from ksgrowup.barriers import (BarrierSpec, boundary_margin, certify_sign,
                               check_boundary_matching, find_time_shifts)
from ksgrowup.grids import Snapshot, make_graded_grid
from ksgrowup.matching import integrate_a
from ksgrowup.pde import SolverConfig, l1_to_one, origin_slope, solve
from ksgrowup.specialfn import (OperatorInverse, SpecialFunctions,
                                build_partition, check_asymptotics, locate, w0)
from oracles import (apply_operator, fixed_step_values, ordered_pair_test,
                     queries_solve_the_time_integral, residual_fd,
                     residual_full, small_time_checks, steady_profile)


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


class TestCriterion1:
    def test_operator_round_trip(self):
        """|L(L0^{-1} psi) - psi| <= 1e-6 on [0.01, 1e4] for three sources."""
        start = time.perf_counter()
        sources = {
            "y": lambda y: np.asarray(y, float),
            "y/(1+y)^2": w0,
            "log(1+y)": lambda y: np.log1p(np.asarray(y, float)),
        }
        ys = np.geomspace(0.01, 1e4, 400)
        sups = {}
        for name, psi in sources.items():
            inv = OperatorInverse(psi, build_partition(1.5e4))
            d = 3e-4 * ys
            wpp = (inv.pair(locate(inv.nodes, ys + d))[1]
                   - inv.pair(locate(inv.nodes, ys - d))[1]) / (2 * d)
            got = apply_operator(*inv.pair(locate(inv.nodes, ys)), wpp, ys)
            sups[name] = float(np.max(np.abs(got - psi(ys))))
            assert sups[name] <= 1e-6, (name, sups[name])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _ok(1, f"round-trip sups {sups} in {elapsed:.1f}s")


class TestCriterion2:
    def test_special_function_asymptotics(self):
        """Deviation ratios bounded across y_max = 1e4 -> 1e6; spot values."""
        start = time.perf_counter()
        table = SpecialFunctions(1e6)
        rep = check_asymptotics(table, (1e4, 1e5, 1e6))
        assert cli.asymptotics_gate(rep, {"growth_tol": "1.35"}) == []
        f_dev = rep.spot_checks["f_dev_at_ymax"]
        g_dev = rep.spot_checks["g_over_y_dev_at_ymax"]
        assert f_dev <= 0.01
        assert g_dev <= 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        _ok(2, f"f dev {f_dev:.2e} <= 0.01, g/y dev {g_dev:.2e} <= 0.02, "
               f"ratios bounded, {elapsed:.1f}s")


class TestCriterion3:
    def test_matching_ode(self):
        """K=5: log a - sqrt(2t) in [2,3] on [100,1000]; the path's log a
        solves the quadrature t(log a) = t to round-off, for K = 5 and on
        the arctan, atanh and rational branches (K = 6, -1, 25/16)."""
        start = time.perf_counter()
        path = integrate_a(5.0, 1000.0)
        assert np.all(queries_solve_the_time_integral(path))
        for K in (6.0, -1.0, 25.0 / 16.0):
            assert np.all(queries_solve_the_time_integral(integrate_a(K, 1000.0)))
        t = np.linspace(100.0, 1000.0, 400)
        dev = path.loga_at(t) - np.sqrt(2.0 * t)
        assert dev.min() > 2.0 and dev.max() < 3.0
        assert np.all(np.diff(np.abs(dev - 2.5)) <= 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _ok(3, f"deviation in [{dev.min():.3f}, {dev.max():.3f}], "
               f"exact inverse, {elapsed:.1f}s")


class TestCriterion4:
    def test_barrier_certification(self, path_k5_big, path_k6_big, funcs_big,
                                   default_lattice):
        """On certify's one lattice (to t_end + shift_max): residual signs
        certify with thresholds <= 1000 and the lower barrier increases in x
        from there; boundary matching holds beyond finite onsets; K swaps
        fail as predicted."""
        start = time.perf_counter()
        ts = default_lattice
        lower = BarrierSpec(kind="lower", path=path_k5_big, table=funcs_big)
        upper = BarrierSpec(kind="upper", path=path_k6_big, table=funcs_big)

        rep_lo = certify_sign(lower, ts, 40)
        rep_up = certify_sign(upper, ts, 40)
        assert rep_lo.threshold_T is not None and rep_lo.threshold_T <= 1000.0
        assert rep_lo.slope_ok
        assert rep_up.threshold_T is not None and rep_up.threshold_T <= 1000.0

        bnd_lo = check_boundary_matching(lower, ts)
        bnd_up = check_boundary_matching(upper, ts)
        assert bnd_lo.onset_t is not None and bnd_lo.onset_t < 100.0
        assert bnd_up.onset_t is not None and bnd_up.onset_t < ts[-1]

        swap_lo = BarrierSpec(kind="lower", path=integrate_a(7.0, ts[-1]),
                              table=funcs_big)
        swap_up = BarrierSpec(kind="upper", path=path_k5_big, table=funcs_big)
        rep_sl = check_boundary_matching(swap_lo, ts)
        rep_su = check_boundary_matching(swap_up, ts)
        assert rep_sl.onset_t is None and np.all(boundary_margin(swap_lo, ts)[-10:] < 0)
        assert rep_su.onset_t is None and np.all(boundary_margin(swap_up, ts)[-10:] < 0)

        elapsed = time.perf_counter() - start
        build = getattr(funcs_big, "build_seconds", 0.0)
        assert elapsed + build < 120.0
        _ok(4, f"thresholds: signs ({rep_lo.threshold_T:.2g}, "
               f"{rep_up.threshold_T:.2g}), boundary onsets "
               f"({bnd_lo.onset_t:.3g}, {bnd_up.onset_t:.4g}), swaps fail; "
               f"{elapsed:.1f}s + {build:.1f}s tables")


class TestCriterion5:
    def test_residual_cross_check(self, funcs_med, path_k5, path_k6):
        """FD parabolic operator matches a b^2 (A|B) to second order at 100
        random points."""
        lower = BarrierSpec(kind="lower", path=path_k5, table=funcs_med)
        upper = BarrierSpec(kind="upper", path=path_k6, table=funcs_med)
        rng = np.random.default_rng(20260810)
        orders, rels = [], []
        for i in range(100):
            spec = lower if i % 2 == 0 else upper
            t = rng.uniform(0.7, 4.0)
            a = float(spec.path.closed_forms_at(t)[0])
            y = np.exp(rng.uniform(np.log(0.3), np.log(min(30.0, 0.9 * a))))
            ref = float(residual_full(spec, np.array([y]), t)[0])
            errs = [abs(residual_fd(spec, y / a, t, dx_rel=s, dt_rel=2 * s)
                        - ref) for s in (2e-3, 1e-3, 5e-4)]
            for e_coarse, e_fine in zip(errs, errs[1:]):
                if e_fine > 0:
                    orders.append(np.log2(e_coarse / e_fine))
            rels.append(errs[-1] / abs(ref))
        orders = np.array(orders)
        rels = np.array(rels)
        assert np.median(orders) >= 1.7
        assert np.mean(orders >= 1.5) >= 0.8   # rest sit at the error floor
        assert np.max(rels) <= 1e-3
        _ok(5, f"median order {np.median(orders):.2f}, "
               f"worst rel err {np.max(rels):.1e} over 100 points")


class TestCriterion6:
    def test_steady_state_drift(self):
        grid = make_graded_grid(160, 1e-6, 1.1)
        ua = steady_profile(1.0, grid)
        cfg = SolverConfig()
        traj = solve(ua, cfg, 10.0, [10.0])
        drift = float(np.max(np.abs(traj.snapshots[-1].values - ua.values)))
        assert drift <= 1e-8
        _ok("6a", f"steady drift over 10 units = {drift:.2e}")

    def test_early_linear_bound(self, critical_traj):
        rep = small_time_checks(critical_traj, K=1.0, delta=0.5)
        assert rep.bound_ok
        _ok("6b", f"u <= 2x up to t = 1/4 (worst excess {rep.worst_excess:.1e})")

    def test_ordered_pairs_stay_ordered(self):
        grid = make_graded_grid(140, 1e-6, 1.12)
        lo = Snapshot(grid=grid, values=grid.nodes ** 2, time=0.0,
                      left_bc=0.0, right_bc=1.0)
        hi = Snapshot(grid=grid, values=grid.nodes.copy(), time=0.0,
                      left_bc=0.0, right_bc=1.0)
        cfg = SolverConfig()
        assert ordered_pair_test(lo, hi, cfg, 2.0, [0.5, 1.0, 2.0])
        _ok("6c", "ordered initial pairs remain ordered at all outputs")

    def test_convergence_orders(self):
        xi = 0.5

        def run(n, dt):
            grid = make_graded_grid(n, 1.0 / (n - 1), 1.0)
            u0 = Snapshot(grid=grid, values=xi * grid.nodes, time=0.0,
                          left_bc=0.0, right_bc=xi)
            return grid, fixed_step_values(u0, dt, 1.0)

        _, ref_t = run(201, 0.000625)
        errs_t = [np.max(np.abs(run(201, dt)[1] - ref_t))
                  for dt in (0.02, 0.01, 0.005)]
        order_t = min(np.log2(errs_t[i] / errs_t[i + 1]) for i in range(2))
        assert order_t >= 0.9

        ref_grid, ref_x = run(513, 0.002)
        errs_x = []
        for n in (33, 65, 129):
            grid, u = run(n, 0.002)
            idx = np.searchsorted(ref_grid.nodes, grid.nodes)
            errs_x.append(np.max(np.abs(u - ref_x[idx])))
        order_x = min(np.log2(errs_x[i] / errs_x[i + 1]) for i in range(2))
        assert order_x >= 1.8
        _ok("6d", f"convergence orders: time {order_t:.2f} >= 0.9, "
                  f"space {order_x:.2f} >= 1.8")


def _rate_rows(traj):
    rows = []
    for s in traj.snapshots:
        if s.time <= 0.0:
            continue
        ahat = origin_slope(s)
        d = float(np.log(ahat) - np.sqrt(2.0 * s.time))
        l1 = l1_to_one(s)
        r = float(l1 / (np.sqrt(2.0 * s.time)
                        * np.exp(-2.5 - np.sqrt(2.0 * s.time))))
        rows.append((s.time, ahat, d, r))
    return rows


def _fit_slope(t, v):
    A = np.vstack([np.ones(len(t)), np.asarray(t)]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(v), rcond=None)
    return float(coef[1])


class TestCriterion7:
    def test_growup_rate(self, critical_traj):
        """d(t) = log u_x(0,t) - sqrt(2t) in [1.5, 3.5] on [20, 50],
        |d - 5/2| trending down; the constant itself is not certifiable at
        this horizon -- the trend plus the sandwich (criterion 8) is the
        acceptance."""
        build = getattr(critical_traj, "build_seconds", 0.0)
        assert build < 600.0
        rows = _rate_rows(critical_traj)
        window = [(t, d) for t, _, d, _ in rows if 20.0 <= t <= 50.0]
        assert window, "no samples in [20, 50]"
        ds = [d for _, d in window]
        assert min(ds) >= 1.5 and max(ds) <= 3.5
        tail = [(t, d) for t, _, d, _ in rows if t >= 10.0]
        slope = _fit_slope([t for t, _ in tail],
                           [abs(d - 2.5) for _, d in tail])
        assert slope <= 1e-5
        _ok(7, f"d in [{min(ds):.3f}, {max(ds):.3f}] on [20,50], "
               f"|d-5/2| slope {slope:.2e} <= 0, solve {build:.0f}s")


class TestCriterion8:
    def test_sandwich(self, critical_traj, path_k5_big, path_k6_big, funcs_big,
                      default_lattice):
        """Finite shifts order the numeric run between the barriers at all
        certified nodes/times."""
        lower = BarrierSpec(kind="lower", path=path_k5_big, table=funcs_big)
        upper = BarrierSpec(kind="upper", path=path_k6_big, table=funcs_big)
        # from the onsets of certify's boundary scan (criterion 4)
        onsets = [check_boundary_matching(spec, default_lattice).onset_t
                  for spec in (lower, upper)]
        rep = find_time_shifts(lower, upper, critical_traj.snapshots,
                               shift_max=2000.0, lattice=0.25, slack=1e-9,
                               t_min_upper=0.25, lower_onset=onsets[0],
                               upper_onset=onsets[1])
        assert np.isfinite(rep.T1) and np.isfinite(rep.T2)
        assert rep.worst_lower <= rep.slack
        assert rep.worst_upper <= rep.slack
        assert rep.n_times_lower >= 5
        assert rep.n_times_upper >= 10
        # every compared barrier time lies on certify's lattice
        assert rep.max_t_lower <= default_lattice[-1]
        assert rep.max_t_upper <= default_lattice[-1]
        # the sandwich tightens: its width at a fixed station decreases
        from ksgrowup.barriers import eval_barrier
        widths = []
        for t in (20.0, 35.0, 50.0):
            lo, _ = eval_barrier(lower, np.array([0.5]), t - rep.T1)
            up, _ = eval_barrier(upper, np.array([0.5]), t + rep.T2)
            widths.append(float(up[0] - lo[0]))
        assert widths[0] > widths[1] > widths[2] > 0.0
        _ok(8, f"T1 = {rep.T1}, T2 = {rep.T2} "
               f"(onsets {rep.lower_onset:.3g}/{rep.upper_onset:.4g}); "
               f"worst violations {rep.worst_lower:.1e}/{rep.worst_upper:.1e}; "
               f"width(x=0.5) {widths[0]:.2e} -> {widths[2]:.2e}")


class TestCriterion9:
    def test_profile_and_l1(self, critical_traj):
        """Profile error E(t) decreasing on [10, 50] with E(50) <= 0.6;
        L1 ratio r(50) within [0.4, 2.5] and |r - 1| trending down."""
        rows = []
        for s in critical_traj.snapshots:
            if s.time < 5.0:
                continue
            ahat = origin_slope(s)
            x = s.grid.nodes
            E = float(np.max(np.abs((1 - s.values) * (1 + ahat * x) - (1 - x))))
            rows.append((s.time, E))
        tail = [(t, E) for t, E in rows if t >= 10.0]
        assert all(e2 < e1 for (_, e1), (_, e2) in zip(tail, tail[1:]))
        E50 = tail[-1][1]
        assert E50 <= 0.6

        rate = _rate_rows(critical_traj)
        r50 = rate[-1][3]
        assert 0.4 <= r50 <= 2.5
        rt = [(t, r) for t, _, _, r in rate if t >= 10.0]
        slope = _fit_slope([t for t, _ in rt], [abs(r - 1.0) for _, r in rt])
        assert slope <= 1e-5
        _ok(9, f"E(50) = {E50:.3f} <= 0.6 (decreasing), r(50) = {r50:.3f} "
               f"in [0.4, 2.5], |r-1| slope {slope:.2e}")
