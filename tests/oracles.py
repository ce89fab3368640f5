"""Independent references the tests check the package against.

None of these runs in a ``ksgrowup`` command: each is a second way to
compute a quantity (a finite-difference residual, a closed form, an
ordering experiment), or a reader of a result that only the tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ksgrowup.barriers import eval_barrier, residual_reduced
from ksgrowup.errors import NumericsError, RangeError, ResolutionError
from ksgrowup.grids import GradedGrid, RadialField, Snapshot
from ksgrowup.matching import _gp, _hp
from ksgrowup.pde import SolverConfig, Trajectory, _UProblem, solve

# -- special functions ---------------------------------------------------------


def apply_operator(w, wp, wpp, y):
    """L w from sampled values of w, w', w'' at y."""
    y = np.asarray(y, dtype=float)
    return y * wpp + 2.0 * y * wp / (1.0 + y) + 2.0 * w / (1.0 + y) ** 2


def phi_deriv(phi, y):
    """phi' of a PhiBlend: the cubic Hermite blend's slope below the join,
    the slope of 1/log(y) above it."""
    y = np.asarray(y, dtype=float)
    s = np.clip(y / phi.join, 0.0, 1.0)
    dh10 = (1.0 - s) * (1.0 - 3.0 * s)
    dh01 = 6.0 * s * (1.0 - s)
    dh11 = s * (3.0 * s - 2.0)
    blend = (dh10 * phi.slope0 + dh01 * phi._tail_value() / phi.join
             + dh11 * phi._tail_slope())
    with np.errstate(divide="ignore"):
        tail = np.where(y > 1.0, -1.0 / (y * np.log(np.maximum(y, 1.0 + 1e-12)) ** 2), 0.0)
    return np.where(y < phi.join, blend, tail)


def quintic_cutoff(y):
    """Alternative C^2 cutoff for blend-sensitivity sweeps."""
    y = np.asarray(y, dtype=float)
    s = np.clip(y, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)


# -- matching paths -------------------------------------------------------------


def closed_rate(t):
    """Closed-form grow-up rate exp(5/2 + sqrt(2 t))."""
    t = np.asarray(t, dtype=float)
    return np.exp(2.5 + np.sqrt(2.0 * t))


def gamma_of_a(a, K: float):
    """gamma as the closed form H(1/log a); requires a > 1."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 1.0):
        raise RangeError("gamma_of_a needs a > 1 (log a must be positive)")
    return _hp(1.0 / np.log(a), K)


def a_prime_at(path, t):
    """a'(t) = a Gp(1/log a) on a matching path."""
    ell = path.loga_at(t)
    return np.exp(ell) * _gp(1.0 / ell, path.K)


def time_integral(ell, K: float, panel: float = 0.25):
    """t(ell) = int_{log 2}^{ell} s^3 / (s^2 + 5s/2 + K) ds at each ell > log 2:
    10-point Gauss-Legendre on panels at most ``panel`` wide from log 2 to
    the largest ell, with every ell a panel edge, summed up to it.  A second
    way to the path's closed-form t(ell), by quadrature alone."""
    ell = np.asarray(ell, dtype=float)
    l0 = math.log(2.0)
    edges = np.unique(np.concatenate([np.arange(l0, ell.max(), panel), ell]))
    x, w = np.polynomial.legendre.leggauss(10)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = mid[:, None] + half[:, None] * x[None, :]
    part = half * ((s ** 3 / (s * s + 2.5 * s + K)) @ w)
    t = np.concatenate([[0.0], np.cumsum(part)])
    return t[np.searchsorted(edges, ell)]


def queries_solve_the_time_integral(path):
    """Whether loga_at(t) solves time_integral(ell) = t to 1e-12 relative in
    t beyond what one ulp of ell moves t (near a = 2 an ulp of ell is a
    large part of ell - log 2), at 200 times on [1e-6, 0.5] and 400 on
    [100, 1000]: one bool per time."""
    t = np.concatenate([np.geomspace(1e-6, 0.5, 200), np.linspace(100.0, 1000.0, 400)])
    ell = path.loga_at(t)
    dt_dell = ell ** 3 / (ell * ell + 2.5 * ell + path.K)
    err = np.abs(time_integral(ell, path.K) - t)
    return err <= 1e-12 * t + np.spacing(ell) * dt_dell


# -- barriers -------------------------------------------------------------------


def residual_full(spec, y, t: float):
    """a b^2 A (resp. a b^2 B): the parabolic residual itself."""
    a, b = (float(v) for v in spec.path.closed_forms_at(t)[:2])
    return a * b * b * residual_reduced(spec, y, t)


def residual_fd(spec, x: float, t: float,
                dx_rel: float = 5e-4, dt_rel: float = 1e-3,
                check_tol: float | None = None) -> float:
    """P(barrier) = u_t - x u_xx - 2 u u_x by central differences.

    This is the independence check between the grouped algebra of
    residual_reduced and the raw operator: it uses only barrier VALUES.
    Steps are relative (dx = dx_rel * x), so the stencil stays inside the
    layer whenever x does.  With ``check_tol`` set, raises ResolutionError
    when the result disagrees with a b^2 * residual_reduced by more than
    check_tol relative.
    """
    if x <= 0.0 or x > 1.0:
        raise RangeError("x must lie in (0, 1]")
    dx = dx_rel * x
    dt = dt_rel * max(float(spec.path.loga_at(t)), 1.0)
    if t - dt < 0.0:
        dt = 0.5 * t

    def val(xx, tt):
        v, _ = eval_barrier(spec, np.asarray([xx]), tt)
        return float(v[0])

    um, u0, up = val(x - dx, t), val(x, t), val(x + dx, t)
    u_t = (val(x, t + dt) - val(x, t - dt)) / (2.0 * dt)
    u_xx = (up - 2.0 * u0 + um) / dx ** 2
    u_x = (up - um) / (2.0 * dx)
    fd = u_t - x * u_xx - 2.0 * u0 * u_x
    if check_tol is not None:
        a, b = (float(v) for v in spec.path.closed_forms_at(t)[:2])
        ref = float(residual_full(spec, np.asarray([a * x]), t)[0])
        scale = max(abs(ref), a * b ** 2 * 1e-6)
        if abs(fd - ref) > check_tol * scale:
            raise ResolutionError(
                f"finite differences disagree with the grouped residual "
                f"({fd:.3e} vs {ref:.3e}); refine the steps")
    return fd


# -- grids and snapshots ----------------------------------------------------------

_GEOM_TOL = 1e-12


def geometric_prefix_len(grid: GradedGrid, ratio: float) -> int:
    """Number of leading cells whose widths grow by ratio."""
    w = np.diff(grid.nodes)
    k = 1
    while k < len(w) and abs(w[k] / w[k - 1] - ratio) <= _GEOM_TOL * max(1.0, ratio):
        k += 1
    return k


class DegenerateSlopeError(NumericsError):
    """u(x)/x unbounded near x = 0; the radial transform is undefined."""


def origin_slope_extrapolated(snap: Snapshot) -> float:
    """Slope of u at x = 0 by linear extrapolation of u/x to the origin.

    The one-sided ratio at the first node amplifies round-off as
    x_min -> 0; extrapolating the ratio from the two innermost nodes is
    first-order exact on the steady profiles.  Raises DegenerateSlopeError
    when u/x grows toward 0 like a power (u not C^1 at the origin).
    """
    x = snap.grid.nodes
    u = snap.values
    q1 = u[1] / x[1]
    q2 = u[2] / x[2]
    if q1 <= 0.0 and q2 <= 0.0:
        return 0.0
    if q1 > 0.0 and q2 > 0.0:
        beta = np.log(q1 / q2) / np.log(x[2] / x[1])
        if beta > 0.25:
            raise DegenerateSlopeError(
                f"u/x grows like x^-{beta:.2f} toward 0; slope undefined")
    return float(q1 - x[1] * (q2 - q1) / (x[2] - x[1]))


def w_from_u(snap: Snapshot) -> RadialField:
    """Smoothed radial variable w(r) = 8 u(r^2) / r^2 with w(0) = 8 u_x(0)."""
    x = snap.grid.nodes
    u = snap.values
    slope0 = origin_slope_extrapolated(snap)
    r = np.sqrt(x)
    w = np.empty_like(u)
    w[0] = 8.0 * slope0
    w[1:] = 8.0 * u[1:] / x[1:]
    return RadialField(r_nodes=r, values=w, total_mass=8.0 * np.pi * snap.right_bc)


# -- the u-form kernel ----------------------------------------------------------


class ReferenceUProblem(_UProblem):
    """_UProblem with its face values, residual, Jacobian bands and term
    sizes in the plain formulas: each operation as the formula reads, and
    term_size evaluating the faces again.  The package's kernel computes
    them with fewer numpy passes and must give the same bits; rhs_and_jac
    here returns (F, sub, diag, sup) and term_size takes the state alone."""

    def _advective_face(self, u):
        w = u * (1.0 - u)
        s = 1.0 - 2.0 * u
        wl, wr = w[:-1], w[1:]
        both_pos = (wl > 0.0) & (wr > 0.0)
        # sqrt(w_r/w_l) on geometric faces, 1 on arithmetic ones
        root = np.sqrt(np.where(both_pos, wr, 1.0) / np.where(both_pos, wl, 1.0))
        g_val = np.where(both_pos, wl * root, 0.5 * (wl + wr))
        dl = 0.5 * s[:-1] * root
        dr = 0.5 * s[1:] / root
        if u[0] + u[1] < 1.0:
            g_val[0], dl[0], dr[0] = w[0], s[0], 0.0
        else:
            g_val[0], dl[0], dr[0] = w[1], 0.0, s[1]
        if self.extrapolate_last:
            g_val[-1] = self.cA * w[-3] + self.cB * w[-2]
            dl[-1] = self.cB * s[-2]
            dr[-1] = 0.0
        return g_val, dl, dr

    def rhs_and_jac(self, u):
        s = (u[1:] - u[:-1]) / self.h
        g_val, g_dl, g_dr = self._advective_face(u)
        flux = self.xhat * s - g_val
        d_l = -self.xhat_h - g_dl
        d_r = self.xhat_h - g_dr
        F = (flux[1:] - flux[:-1]) / self.dlt
        return (F, -d_l[:-1] / self.dlt, (d_l[1:] - d_r[:-1]) / self.dlt,
                d_r[1:] / self.dlt)

    def term_size(self, u):
        face = (self.xhat_h * (np.abs(u[:-1]) + np.abs(u[1:]))
                + np.abs(self._advective_face(u)[0]))
        return (face[:-1] + face[1:]) / self.dlt


# -- solutions --------------------------------------------------------------------


def snapshot_at(traj: Trajectory, t: float) -> Snapshot:
    """The trajectory's snapshot at output time t."""
    for s in traj.snapshots:
        if abs(s.time - t) < 1e-12:
            return s
    raise RangeError(f"no snapshot stored at t = {t}")


def steady_profile(a: float, grid: GradedGrid) -> Snapshot:
    """The steady state U_a(x) = a x / (a x + 1), boundary value a/(1+a)."""
    x = grid.nodes
    vals = a * x / (a * x + 1.0)
    return Snapshot(grid=grid, values=vals, time=0.0,
                    left_bc=0.0, right_bc=float(vals[-1]))


def ordered_pair_test(u0_low: Snapshot, u0_high: Snapshot, config: SolverConfig,
                      t_end: float, output_times, tol: float = 1e-8) -> bool:
    """Evolve an ordered pair and report whether ordering persisted."""
    if np.any(u0_low.values > u0_high.values + 1e-12):
        raise ValueError("initial data are not ordered")
    lo = solve(u0_low, config, t_end, output_times)
    hi = solve(u0_high, config, t_end, output_times)
    for sl, sh in zip(lo.snapshots, hi.snapshots):
        if np.any(sl.values > sh.values + tol):
            return False
    return True


@dataclass
class SmallTimeReport:
    K: float
    tau: float
    bound_ok: bool
    worst_excess: float
    eta: float
    delta: float
    T_delta: float | None


def small_time_checks(traj: Trajectory, K: float | None = None,
                      delta: float = 0.5, tol: float = 1e-8) -> SmallTimeReport:
    """Short-time bounds: u <= 2Kx up to tau = 1/(4K); the flatness factor
    eta at tau; and the first output time with u >= min(1-delta, x/delta)."""
    if K is None:
        K = traj.data_K
    tau = 1.0 / (4.0 * K)
    worst = -np.inf
    for s in traj.snapshots:
        if s.time > tau + 1e-12:
            continue
        x = s.grid.nodes
        worst = max(worst, float(np.max(s.values - 2.0 * K * x)))
    bound_ok = worst <= tol

    near_tau = min(traj.snapshots, key=lambda s: abs(s.time - tau))
    x = near_tau.grid.nodes[:-1]
    eta = float(np.min((1.0 - near_tau.values[:-1]) / (1.0 - x)))

    T_delta = None
    for s in traj.snapshots:
        x = s.grid.nodes
        target = np.minimum(1.0 - delta, x / delta)
        if np.all(s.values >= target - tol):
            T_delta = s.time
            break
    return SmallTimeReport(K=K, tau=tau, bound_ok=bound_ok, worst_excess=worst,
                           eta=eta, delta=delta, T_delta=T_delta)
