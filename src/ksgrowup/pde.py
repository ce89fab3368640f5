"""Implicit solvers for the degenerate problem and its smoothed radial form.

u-form:  u_t = x u_xx + 2 u u_x on (0,1), u(0,t)=0, u(1,t)=xi.
In flux form u_t = d/dx [ x u_x - u(1-u) ], discretized with
vertex-centered flux differences.  Face coefficients use geometric means,

    flux_{i+1/2} = sqrt(x_i x_{i+1}) (u_{i+1}-u_i)/h
                   - sqrt(u_i (1-u_i) u_{i+1} (1-u_{i+1})),

which makes every steady profile U_a(x) = a x/(a x + 1) an EXACT fixed
point of the discretization (both factors reduce to a sqrt(x_i x_{i+1}) /
((1+a x_i)(1+a x_{i+1})) on U_a samples), so steady-state drift measures
the time integrator alone.  One rule gives every face value of
w = u(1-u).  Face 0 has no diffusion (x_0 = 0), so it carries advection
alone and takes the upwind value, node 0's w when u_0 + u_1 < 1, else
node 1's: its steady flux is then u_0(1-u_0) = 0, as U_a needs.  Every
other face takes the geometric mean sqrt(w_l w_r) where both nodes have
w > 0, else the arithmetic mean (w_l + w_r)/2, still second order: the
last face at the critical boundary value 1, where w(1) = 0, is one.  Each
face couples only its two nodes, so the tridiagonal Jacobian is exact in
every row.  Every face but face 0 is central, so a grid is refused
(ResolutionError) when one of them could reach a cell Peclet number
|1 - (u_l + u_r)| h / sqrt(x_l x_r) above 2 (Patankar, Numerical Heat
Transfer and Fluid Flow, 1980, 5.2) for u in [0, xi], where
|1 - (u_l + u_r)| <= max(1, 2 xi - 1).  On the default grid that bound is
at most 0.744.

w-form:  w_t = w_rr + 3 w_r / r + w^2 + (r/2) w w_r on (0,1), w_r(0,t)=0,
w(1,t) = 8 xi; the diffusion is the radial Laplacian in 4 space dimensions,
discretized by finite volumes with r^3 weights.

Both forms share one implicit-step core: TR-BDF2, one Newton loop
(`_newton`) on the full nonlinear system with the exact tridiagonal
Jacobian, and local-error control by TR-BDF2's embedded error estimate
(Hosea & Shampine, Appl. Numer. Math. 20, 1996), which costs one more
tridiagonal solve per step.  That error test (one finite positive
`local_error_tol`) sizes every step; only `dt_max` caps it (the w-form's
callers set one for blow-up detection).  The u-form sums the estimate,
relative to u on the nodes the origin-slope fit reads, over the accepted
steps, and reports it, times a safety factor, as a time-error bar on
d(t) = log u_x(0,t) - sqrt(2t) at each snapshot.  Each form supplies only
its residual with the Jacobian bands (`rhs_and_jac`), the size of each
residual row's terms (`term_size`, which reads the u-form's face values
from that evaluation) and the scale of its local-error test (`scale`).
Every tridiagonal system goes through `solve_banded`, one LAPACK ?gtsv
call into the OpenBLAS that numpy's wheels bundle (scipy's LAPACK where
numpy has none), so a run needs no scipy.  Newton starts each TR-BDF2
stage from a quadratic predictor (Hairer & Wanner, Solving ODEs II, IV.8):
the first stage extrapolates the previous accepted state, the current one
and its slope F(u); the second stage the current state, its slope and the
first stage's value.  Newton accepts a stage once every row's residual is
at most _NEWTON_TOL times |U_i| + |rhs_i| + coef * term_size_i (term sizes
from the step's start).
A sum cannot be rounded below a few eps times its terms, so in every row,
the fine cells near x = 0 included, that bar lies above the round-off.
Anything else fails the solve, and the step is retried smaller.  Each
state is evaluated once: the residual, Jacobian bands and face values
with which Newton accepts a step's new state travel with it to the next
step, as the F(u), J(u) and term sizes that step starts from.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (MaximumPrincipleViolation, RangeError, ResolutionError,
                     SolverFailureError)
from .grids import GradedGrid, RadialField, Snapshot

_TRBDF2_GAMMA = 2.0 - math.sqrt(2.0)
# error constant of TR-BDF2: its local error is about k dt^3 d3u/dt3
_TRBDF2_K = (-3.0 * _TRBDF2_GAMMA ** 2 + 4.0 * _TRBDF2_GAMMA - 2.0) / (
    12.0 * (2.0 - _TRBDF2_GAMMA))
# a step that would leave less than this fraction of itself before its
# target goes to the target, so the round-off of t makes no sliver step
_SLIVER = 1e-6
# the inner-coordinate window y = s x of the origin-slope fit, and the
# largest relative fit residual it accepts before falling back to the ratio
_Y_WINDOW = (0.02, 0.5)
_FIT_TOL = 2e-3
# the time-error bar on d is this times the summed embedded estimate.  The
# sum ignores how earlier errors grow or decay, and on the default run it
# measured 0.97x and 1.29x the true time error of d at t = 20 and t = 50
# (against a run at local_error_tol = 1e-8): 2 covers an underestimate of
# that size with room to spare
_TIME_ERR_SAFETY = 2.0
# Newton iterations per stage solve before the step is retried smaller
_MAX_NEWTON = 14
# a stage solve is converged when each row's residual is at most this times
# the size of the row's terms (_newton); on the default run, values from
# 1e-10 to 1e-14 fail no solve and give d(50) within 4e-10 of each other
_NEWTON_TOL = 1e-12
# the first step; _advance caps it at dt_max
_DT_INITIAL = 1e-7
# a run fails at a proposed step below _DT_FLOOR or after more
# than _MAX_REJECTED rejected steps: no Tier-1 solve rejects more than 6
# (the default run none), a wrong Jacobian about 800 a second at dt ~ 1e-9
_DT_FLOOR = 1e-12
_MAX_REJECTED = 1000


@dataclass
class SolverConfig:
    """How to integrate; the grid and the boundary value come with the data."""

    dt_max: float | None = None         # step cap; None: the error test alone
    local_error_tol: float = 1e-6       # bound of the local-error test
    blowup_cap: float = 1e6             # w-form blow-up detector

    def __post_init__(self):
        # a tolerance < 0 or inf would pass every step unchecked, 0 or NaN fail the run
        tol = self.local_error_tol
        if tol is None or not 0.0 < tol < math.inf:
            raise ValueError(f"local_error_tol must be finite and > 0, got {tol}")
        if self.dt_max is not None and not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be None or > 0, got {self.dt_max}")


@dataclass
class Trajectory:
    config: SolverConfig
    snapshots: list
    step_times: np.ndarray
    step_sizes: np.ndarray
    newton_iters: np.ndarray
    # time-error bar on d(t) at each snapshot: _TIME_ERR_SAFETY times the
    # embedded estimate summed over the steps up to it (_d_step_error)
    d_time_err: np.ndarray
    data_K: float = np.nan
    rejected_error_test: int = 0   # steps rejected by the local-error test
    rejected_newton: int = 0       # steps rejected for a Newton failure


# ---------------------------------------------------------------------------
# shared Newton core


def _bundled_gtsv():
    """LAPACK dgtsv from the OpenBLAS numpy is linked against, or None.

    numpy's wheels ship scipy-openblas (ILP64: 64-bit integers, symbols
    named scipy_*_64_).  The symbol is looked up through numpy's own
    extension module, so the library is the one numpy has already loaded;
    a numpy without it (conda/MKL, a source build) gives None.  Each call
    copies the bands and b into a workspace cached per n and the solution
    out of it: one float buffer [dl | d | du | b] that dgtsv overwrites, the
    integers N (also LDB), NRHS and INFO, and the eight pointer arguments,
    built once.  The workspace is shared, so calls must not overlap
    (single-threaded use).
    """
    try:
        from numpy._core import _multiarray_umath
        dgtsv = ctypes.CDLL(_multiarray_umath.__file__).scipy_dgtsv_64_
    except (ImportError, OSError, AttributeError):
        return None
    dgtsv.restype = None

    @functools.lru_cache(maxsize=8)
    def workspace(n):
        buf = np.empty(4 * n - 2)
        ints = np.array([n, 1, 0], dtype=np.int64)
        p, q, f = buf.ctypes.data, ints.ctypes.data, buf.itemsize
        args = tuple(ctypes.c_void_p(a) for a in (
            q, q + 8, p, p + (n - 1) * f, p + (2 * n - 1) * f,
            p + (3 * n - 2) * f, q, q + 16))
        return buf, buf[3 * n - 2:], ints, args

    def gtsv(sub, diag, sup, b):
        n = len(diag)
        # the buffer's total length alone would let misplaced bands through
        if len(sub) != n - 1 or len(sup) != n - 1:
            raise ValueError("the off-diagonal bands need n - 1 entries")
        buf, x, ints, args = workspace(n)
        np.concatenate((sub, diag, sup, b), out=buf)
        dgtsv(*args)
        return x.copy(), ints[2]

    return gtsv


def _scipy_gtsv():
    """scipy's wrapper of LAPACK dgtsv, returning (x, info) as _bundled_gtsv's."""
    from scipy.linalg.lapack import dgtsv

    def gtsv(sub, diag, sup, b):
        *_, x, info = dgtsv(sub, diag, sup, b)
        return x, info

    return gtsv


# resolved once: numpy's bundled OpenBLAS when it has dgtsv, else scipy
_gtsv = _bundled_gtsv() or _scipy_gtsv()


def solve_banded(bands, b):
    """Solve the tridiagonal system with bands (sub, diag, sup) for b.

    One LAPACK dgtsv call (Gaussian elimination with partial pivoting), the
    routine scipy.linalg.solve_banded uses for (1, 1) systems.  It comes
    from the OpenBLAS bundled with numpy's wheels, called through ctypes on
    a workspace kept per system size (single-threaded use), or, where numpy
    has no such library, from scipy.linalg.lapack.  Raises
    np.linalg.LinAlgError for a singular matrix; nothing checks that the
    input is finite.  The inputs are left unchanged, and the returned array
    is the caller's own.
    """
    x, info = _gtsv(*bands, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal solve failed (info = {info})")
    return x


def _newton(problem, u_start, coef, rhs, size, maxit):
    """Solve U - coef*F(U) = rhs on the problem's unknown rows.

    Accepts U once every row's residual is at most _NEWTON_TOL times the
    size of the row's own terms, |U_i| + size_i, where size = |rhs| +
    coef * problem.term_size(u, ev) at the step's start: a bar relative to what
    the row sums, so it lies above the residual's round-off in every row
    (Hairer & Wanner, Solving ODEs II, IV.8).  Any other outcome fails the
    solve: a residual that is not finite or a singular iteration matrix at
    once, else running out of maxit iterations.  Returns (U, iterations,
    ok, ev): ev is problem.rhs_and_jac(U), the evaluation that accepted U,
    or None when the solve fails.
    """
    u = u_start.copy()
    sl = slice(problem.ilo, len(u) - 1)
    for it in range(maxit):
        ev = problem.rhs_and_jac(u)
        F, sub, diag, sup, _ = ev
        R = u[sl] - coef * F - rhs
        excess = float((np.abs(R) - _NEWTON_TOL * (np.abs(u[sl]) + size)).max())
        if not math.isfinite(excess):
            return u, it, False, None
        if excess <= 0.0:
            return u, it, True, ev
        try:
            du = solve_banded(_iteration_bands(coef, sub, diag, sup), -R)
        except np.linalg.LinAlgError:
            return u, it, False, None
        u[sl] += du
    return u, maxit, False, None


def _iteration_bands(coef, sub, diag, sup):
    """The bands (sub, diag, sup) of I - coef*J, as solve_banded takes them."""
    return -coef * sub[1:], 1.0 - coef * diag, -coef * sup[:-1]


# ---------------------------------------------------------------------------
# u-form spatial operator


def check_central_faces(grid: GradedGrid, xi: float) -> None:
    """Refuse a grid on which a central face (past x = 0) could reach a cell Peclet
    number above 2 for u in [0, xi], where |1 - (u_l + u_r)| <= max(1, 2 xi - 1)."""
    x = grid.nodes
    pe = max(1.0, 2.0 * xi - 1.0) * np.diff(x)[1:] / np.sqrt(x[1:-1] * x[2:])
    if np.any(pe > 2.0):
        i = int(np.argmax(pe > 2.0)) + 1
        raise ResolutionError(
            f"grid refused: face {i} (x = {x[i]:.3g} to {x[i + 1]:.3g}) reaches a cell "
            f"Peclet number of {pe[i - 1]:.3g} > 2 for u in [0, {xi:g}]; its central "
            f"advective value needs a finer grid there")


class _UProblem:
    ilo = 1   # first unknown slot (both boundary nodes are Dirichlet)
    newton = _newton

    def __init__(self, grid: GradedGrid, xi: float):
        x = grid.nodes
        self.h = np.diff(x)
        self.xhat = np.sqrt(x[:-1] * x[1:])
        self.xhat_h = self.xhat / self.h
        self.dlt = 0.5 * (x[2:] - x[:-2])
        # negated once: -a - b and -a/b have the bits of (-a) - b and a/(-b)
        self.neg_xhat_h, self.neg_dlt = -self.xhat_h, -self.dlt
        self.ones = np.ones(len(x) - 1)
        check_central_faces(grid, xi)

    def _advective_face(self, u):
        """Face value of u(1-u) and its derivatives wrt (u_left, u_right).

        The geometric mean sqrt(w_l w_r) of w = u(1-u) where both nodes are
        positive, else the arithmetic mean: so at xi = 1, where w(1) = 0,
        the last face is arithmetic.  Face 0, which has no diffusion, takes
        the upwind value instead: w_0 when u_0 + u_1 < 1, else w_1.
        """
        w = u * (1.0 - u)
        hs = 0.5 - u    # half of w' = 1 - 2u, bit for bit: halving is exact
        wl, wr = w[:-1], w[1:]
        pos = w > 0.0
        both_pos = pos[:-1] & pos[1:]
        # sqrt(w_r/w_l) on geometric faces, 1 on arithmetic ones
        root = np.divide(wr, wl, out=self.ones.copy(), where=both_pos)
        np.sqrt(root, out=root)
        g_val = 0.5 * (wl + wr)
        np.multiply(wl, root, out=g_val, where=both_pos)
        dl = hs[:-1] * root
        dr = hs[1:] / root
        if u[0] + u[1] < 1.0:
            g_val[0], dl[0], dr[0] = w[0], 2.0 * hs[0], 0.0
        else:
            g_val[0], dl[0], dr[0] = w[1], 0.0, 2.0 * hs[1]
        return g_val, dl, dr

    def rhs_and_jac(self, u):
        """F(u) at interior nodes, its Jacobian bands (sub, diag, sup) and the
        face values of u(1-u), which term_size reads.  Each face couples
        only its two nodes, so the bands are the whole Jacobian."""
        s = (u[1:] - u[:-1]) / self.h
        g_val, g_dl, g_dr = self._advective_face(u)
        flux = self.xhat * s - g_val
        d_l = self.neg_xhat_h - g_dl
        d_r = self.xhat_h - g_dr
        F = (flux[1:] - flux[:-1]) / self.dlt
        return (F, d_l[:-1] / self.neg_dlt, (d_l[1:] - d_r[:-1]) / self.dlt,
                d_r[1:] / self.dlt, g_val)

    def term_size(self, u, ev):
        """Per unknown row, the sum of |terms| of F(u): on each of its faces
        xhat/h (|u_l| + |u_r|) + |face value g of ev = rhs_and_jac(u)|, over dlt."""
        au = np.abs(u)
        face = self.xhat_h * (au[:-1] + au[1:]) + np.abs(ev[4])
        return (face[:-1] + face[1:]) / self.dlt

    def scale(self, u):
        return 1.0


# ---------------------------------------------------------------------------
# generic implicit stepping with local-error control


def _step_once(problem, u, ev, dt, u_prev=None, dt_prev=None):
    """One implicit step of size dt from u: (u_new, ok, its, est, ev_new).

    ev is problem.rhs_and_jac(u), F(u) with its Jacobian bands, which the
    caller keeps with u; ev_new is the same for u_new, taken from the Newton
    solve that accepted it (None when the step fails).  its is the larger
    Newton iteration count of the two stages.
    TR-BDF2 takes a trapezoidal stage to t + gam*dt and a BDF2 stage to
    t + dt; with gam = 2 - sqrt(2) both stages solve with the iteration
    matrix I - d*dt*J, d = gam/2.  est estimates the local error on the
    unknown rows (Hosea & Shampine 1996):
    2k*dt*[F0/gam - Fg/(gam(1-gam)) + F1/(1-gam)], a second divided
    difference of F over the step, filtered through (I - d*dt*J(u))^{-1} so
    that stiff components do not inflate it.  F at the two stages is read
    off the stage equations, not evaluated again.

    Newton starts each stage from a quadratic predictor (Hairer & Wanner,
    Solving ODEs II, IV.8): stage 1 from the quadratic through u_prev, the
    accepted state dt_prev before u, and u with slope F0 = F(u) (the Euler
    line u + tau F0 when there is no u_prev); stage 2 from the quadratic
    through u with slope F0 and the stage-1 value u1.  Both stage solves
    measure their residual rows against |rhs| + coef * problem.term_size(u,
    ev), the size of each row's terms at the step's start.
    """
    sl = slice(problem.ilo, len(u) - 1)
    gam = _TRBDF2_GAMMA
    coef = 0.5 * gam * dt
    F0, sub, diag, sup, _ = ev
    tau = gam * dt
    start = u.copy()
    if u_prev is None:
        start[sl] = u[sl] + tau * F0
    else:
        c = (u_prev[sl] - u[sl] + dt_prev * F0) / dt_prev ** 2
        start[sl] = u[sl] + tau * F0 + c * tau ** 2
    rhs1 = u[sl] + coef * F0
    terms = coef * problem.term_size(u, ev)
    u1, its1, ok, _ = problem.newton(start, coef, rhs1, np.abs(rhs1) + terms,
                                     _MAX_NEWTON)
    if not ok:
        return u, False, its1, None, None
    start = u1.copy()
    start[sl] = u[sl] + dt * F0 + (u1[sl] - u[sl] - tau * F0) / gam ** 2
    rhs2 = (u1[sl] - (1.0 - gam) ** 2 * u[sl]) / (gam * (2.0 - gam))
    u2, its2, ok, ev_new = problem.newton(start, coef, rhs2,
                                          np.abs(rhs2) + terms, _MAX_NEWTON)
    its = max(its1, its2)
    if not ok:
        return u, False, its, None, None
    Fg = (u1[sl] - rhs1) / coef
    F1 = (u2[sl] - rhs2) / coef
    est = 2.0 * _TRBDF2_K * dt * (
        F0 / gam - Fg / (gam * (1.0 - gam)) + F1 / (1.0 - gam))
    try:
        est = solve_banded(_iteration_bands(coef, sub, diag, sup), est)
    except np.linalg.LinAlgError:
        return u, False, its, None, None
    return u2, True, its, est, ev_new


def check_output_times(out_times, t_end: float) -> list[float]:
    """The output times sorted, without repeats.  RangeError unless each lies in
    [0, t_end] and successive times, 0 counted among them, lie at least
    _DT_FLOOR apart: a step between them would fall below a run's floor."""
    times = sorted(set(float(t) for t in out_times))
    if not all(0.0 <= t <= t_end + 1e-12 for t in times):
        raise RangeError("output times must lie in [0, t_end]")
    ends = sorted({0.0, *times})
    if any(b - a < _DT_FLOOR for a, b in zip(ends, ends[1:])):
        raise RangeError(f"output times must lie at least {_DT_FLOOR:g} apart "
                         "and from 0")
    return times


def _advance(problem, u0_vec, t_end, out_times, cfg, post_check):
    """Integrate from t = 0 to t_end; keep the state at each output time.

    A step is accepted when err = max|est| / (local_error_tol *
    scale(u_new)) <= 1, and the next dt follows err^(-1/3), as est is
    O(dt^3); only cfg.dt_max, when set, caps it.  A step rejected by that
    test or for a Newton failure is retried smaller; both causes are
    counted.  SolverFailureError ends a run at a proposed step below
    _DT_FLOOR or after more than _MAX_REJECTED rejected steps.
    post_check(u, t, est) sees every accepted state with its error
    estimate.  The initial state is evaluated here, and is the output at
    time 0; every later state's evaluation comes from the step that
    accepted it, and a rejected step leaves u and its evaluation as they
    were.  Returns (outputs, step times, step sizes, Newton iterations,
    rejection counts by cause).
    """
    out_times = check_output_times(out_times, t_end)
    u = u0_vec.copy()
    ev = problem.rhs_and_jac(u)
    t, dt = 0.0, _DT_INITIAL
    u_prev = dt_prev = None   # the accepted state before u, for the predictor
    outs = {0.0: u.copy()} if out_times[:1] == [0.0] else {}
    oi = len(outs)            # the next output time to reach
    times, sizes, iters = [], [], []
    rejected = {"rejected_error_test": 0, "rejected_newton": 0}
    while t < t_end:
        if dt < _DT_FLOOR:
            raise SolverFailureError(f"step size fell to {dt:.3g} at t = {t:.6g}")
        target = out_times[oi] if oi < len(out_times) else t_end
        remaining = target - t
        dtc = dt if cfg.dt_max is None else min(dt, cfg.dt_max)
        if dtc >= (1.0 - _SLIVER) * remaining:
            dtc = remaining
        un, ok, n_newton, est, ev_new = _step_once(problem, u, ev, dtc,
                                                   u_prev, dt_prev)
        if not ok:
            cause, dt = "rejected_newton", dtc / 4.0
        else:
            err = float(np.abs(est).max()) / (
                cfg.local_error_tol * problem.scale(un))
            ok, cause = err <= 1.0, "rejected_error_test"
            dt = dtc * (min(2.5, max(0.3, 0.85 * max(err, 1e-10) ** (-1.0 / 3.0)))
                        if ok else max(0.2, 0.85 * err ** (-1.0 / 3.0)))
        if not ok:
            rejected[cause] += 1
            if sum(rejected.values()) > _MAX_REJECTED:
                raise SolverFailureError(
                    f"more than {_MAX_REJECTED} steps rejected by t = {t:.6g}: {rejected}")
            continue
        t = target if dtc == remaining else t + dtc
        post_check(un, t, est)
        u_prev, dt_prev, u, ev = u, dtc, un, ev_new
        times.append(t)
        sizes.append(dtc)
        iters.append(n_newton)
        if t == target and oi < len(out_times):
            outs[target] = u.copy()
            oi += 1
    return (outs, np.array(times), np.array(sizes), np.array(iters, dtype=int),
            rejected)


# ---------------------------------------------------------------------------
# public u-form driver


def solve(u0: Snapshot, config: SolverConfig, t_end: float,
          output_times) -> Trajectory:
    """Integrate the degenerate problem from admissible data u0.

    Admissibility: u0 continuous (it is tabulated), u0(0) = 0,
    nondecreasing, and u0 <= K x for the recorded K = max u0/x.  The
    solution keeps u0's grid and its boundary value u0(1) = right_bc.
    Every accepted step is checked against the discrete maximum principle
    (range and monotonicity).
    """
    grid, hi = u0.grid, u0.right_bc
    if u0.left_bc != 0.0:
        raise ValueError("left boundary value must be 0")
    if not u0.is_nondecreasing():
        raise ValueError("initial data must be nondecreasing")
    data_K = float(np.max(u0.values[1:] / grid.nodes[1:]))

    problem = _UProblem(grid, hi)
    monotone_tol = 1e-8
    d_errs = []

    def post_check(u, t, est):
        if u.min() < -1e-8 or u.max() > hi + 1e-8:
            excess = np.maximum(-u, u - hi)   # 4 digits of u would hide 1e-8
            i = int(np.argmax(excess))
            raise MaximumPrincipleViolation(
                f"values left [0, {hi}] at t = {t:.6g}: u = {u[i]:.10g} lies "
                f"{excess[i]:.3e} past it at x = {grid.nodes[i]:.6g} (node {i})")
        drop = np.diff(u).min()
        if drop < -monotone_tol:
            raise MaximumPrincipleViolation(
                f"monotonicity lost at t = {t:.6g} (worst drop {drop:.3e})")
        d_errs.append(_d_step_error(grid.nodes, u, est))

    outs, times, sizes, iters, rejected = _advance(
        problem, u0.values.copy(), t_end, output_times, config, post_check)
    snaps = [Snapshot(grid=grid, values=np.clip(v, 0.0, hi), time=tt,
                      left_bc=0.0, right_bc=hi)
             for tt, v in sorted(outs.items())]
    summed = np.concatenate([[0.0], np.cumsum(d_errs)])
    steps = np.searchsorted(times, [s.time for s in snaps], side="right")
    return Trajectory(config=config, snapshots=snaps, step_times=times,
                      step_sizes=sizes, newton_iters=iters,
                      d_time_err=_TIME_ERR_SAFETY * summed[steps],
                      data_K=data_K, **rejected)


def _d_step_error(x, u, est):
    """One step's contribution to the time error of d = log u_x(0) - sqrt(2t).

    max |est_i| / u_i over the interior nodes whose inner coordinate
    y = (u_1/x_1) x lies in the slope fit's window _Y_WINDOW (one slice: y
    rises with x, or is never positive): the relative error of the profile
    the fit reads, and so the error of log u_x(0).  With no node in the
    window, node 1, whose ratio the fit falls back to.
    """
    y = (u[1] / x[1]) * x[1:-1]
    lo, hi = np.searchsorted(y, _Y_WINDOW[0]), np.searchsorted(y, _Y_WINDOW[1], "right")
    lo, hi = (lo, hi) if lo < hi else (0, 1)
    return float((np.abs(est[lo:hi]) / u[1 + lo:1 + hi]).max())


# ---------------------------------------------------------------------------
# w-form


class _WProblem:
    ilo = 0   # node r = 0 is an unknown (Neumann axis condition)
    newton = _newton

    def __init__(self, r: np.ndarray):
        rf = 0.5 * (r[:-1] + r[1:])
        self.h = np.diff(r)
        self.rf3 = rf ** 3
        r4 = rf ** 4
        self.vol0 = r4[0] / 4.0
        self.vol = (r4[1:] - r4[:-1]) / 4.0
        hm, hp = self.h[:-1], self.h[1:]
        self.d1l = -hp / (hm * (hm + hp))
        self.d1c = (hp - hm) / (hm * hp)
        self.d1r = hm / (hp * (hm + hp))
        self.half_r = 0.5 * r[1:-1]
        # diffusion part of the Jacobian: constant on a fixed grid
        self.d0 = self.rf3[0] / self.h[0] / self.vol0
        self.dl = (self.rf3[:-1] / self.h[:-1]) / self.vol
        self.dr = (self.rf3[1:] / self.h[1:]) / self.vol
        self.dlr = -(self.dl + self.dr)

    def rhs_and_jac(self, w):
        """F(w) at nodes 0..n-2 (r = 1 is Dirichlet), its Jacobian bands, None."""
        n = len(w)
        dif = self.rf3 * ((w[1:] - w[:-1]) / self.h)
        wr = self.d1l * w[:-2] + self.d1c * w[1:-1] + self.d1r * w[2:]
        adv = self.half_r * w[1:-1]
        F = np.empty(n - 1)
        F[0] = dif[0] / self.vol0 + w[0] ** 2
        F[1:] = (dif[1:] - dif[:-1]) / self.vol + w[1:-1] ** 2 + adv * wr
        sub, diag, sup = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1)
        sub[0] = 0.0
        sub[1:] = self.dl + adv * self.d1l
        diag[0] = -self.d0 + 2.0 * w[0]
        diag[1:] = self.dlr + 2.0 * w[1:-1] + self.half_r * wr + adv * self.d1c
        sup[0] = self.d0
        sup[1:] = self.dr + adv * self.d1r
        return F, sub, diag, sup, None

    def term_size(self, w, ev):
        """Per unknown row, the sum of |terms| that make up F(w): on each
        face r^3 (|w_l| + |w_r|)/h over the cell volume, plus w^2, plus
        (r/2) |w| times the |terms| of the central w_r; ev is not read."""
        aw = np.abs(w)
        face = aw[:-1] + aw[1:]
        size = w[:-1] ** 2
        size[0] += self.d0 * face[0]
        size[1:] += (self.dl * face[:-1] + self.dr * face[1:]
                     + self.half_r * aw[1:-1] * (
                         np.abs(self.d1l * w[:-2]) + np.abs(self.d1c * w[1:-1])
                         + np.abs(self.d1r * w[2:])))
        return size

    def scale(self, w):
        return max(1.0, float(np.abs(w).max()))


@dataclass
class WTrajectory:
    config: SolverConfig
    fields: list
    times: list
    events: list = field(default_factory=list)


def solve_w(w0: RadialField, config: SolverConfig, t_end: float,
            output_times) -> WTrajectory:
    """Integrate the smoothed radial form; detects blow-up via a sup cap.

    The w clock runs four times slower than the u clock: a u-form run to
    time t corresponds to a w-form run to t/4.
    """
    r = w0.r_nodes
    if r[0] != 0.0 or abs(r[-1] - 1.0) > 1e-12:
        raise ValueError("w grid must span [0, 1]")
    if np.any(w0.values < -1e-12):
        raise ValueError("w must be nonnegative")
    problem = _WProblem(r)

    def post_check(w, t, est):
        m = float(np.abs(w).max())
        if m > config.blowup_cap:
            raise _BlowUp(t, m)

    try:
        outs, *_ = _advance(problem, w0.values.copy(), t_end, output_times,
                            config, post_check)
    except _BlowUp as bu:
        return WTrajectory(config=config, fields=[], times=[],
                           events=[{"event": "blow-up-detected",
                                    "time": bu.t, "sup": bu.sup}])
    fields = [RadialField(r_nodes=r, values=v, total_mass=np.pi * float(v[-1]))
              for _, v in sorted(outs.items())]
    return WTrajectory(config=config, fields=fields, times=sorted(outs.keys()))


class _BlowUp(Exception):
    def __init__(self, t, sup):
        self.t, self.sup = t, sup


# ---------------------------------------------------------------------------
# observables


@dataclass
class SlopeFit:
    value: float
    method: str          # "fit" | "ratio"
    fit_residual: float


def slope_origin_info(snap: Snapshot) -> SlopeFit:
    """Origin-slope observable from the inner profile.

    Fits z = 1/(1-u) = p + q x on nodes with estimated inner coordinate
    y = s*x inside _Y_WINDOW (the model is exact on the quasi-steady
    family, where the fitted rate is ahat = q/p).  When the fit residual
    exceeds _FIT_TOL (profile not yet quasi-steady) the one-sided ratio
    u(x1)/x1 is returned instead, with method "ratio".  Raises
    ResolutionError only when the first node fails to resolve the layer.
    """
    if not snap.is_nondecreasing(tol=1e-9):
        raise ValueError("slope extraction expects a monotone snapshot")
    x = snap.grid.nodes
    u = snap.values
    ratio = float(u[1] / x[1])
    s_est = max(ratio, 1e-30)
    ahat, resid, n_win = ratio, np.inf, 0
    for _ in range(4):
        yy = s_est * x
        m = (yy >= _Y_WINDOW[0]) & (yy <= _Y_WINDOW[1]) & (x > 0) & (u < 1.0)
        n_win = int(m.sum())
        if n_win < 4:
            break
        z = 1.0 / (1.0 - u[m])
        A = np.vstack([np.ones(n_win), x[m]]).T
        coef, *_ = np.linalg.lstsq(A, z, rcond=None)
        p, q = coef
        new = q / p
        resid = float(np.max(np.abs(A @ coef - z) / z))
        if abs(new - s_est) < 1e-10 * abs(s_est):
            s_est = new
            break
        s_est = new
    ahat = s_est
    layer_resolved = x[1] * max(ratio, ahat) <= 0.01
    if n_win >= 4 and resid <= _FIT_TOL:
        return SlopeFit(value=float(ahat), method="fit", fit_residual=resid)
    if not layer_resolved and (
            n_win < 4 or abs(ahat - ratio) > 0.1 * max(abs(ahat), abs(ratio))):
        raise ResolutionError(
            f"layer unresolved: x1 = {x[1]:.2e}, slope ~ {ahat:.3e}, "
            f"fit residual {resid:.2e}")
    return SlopeFit(value=ratio, method="ratio", fit_residual=resid)


def l1_to_one(snap: Snapshot) -> float:
    """Trapezoid integral of (1 - u) over [0, 1] on the graded grid."""
    y, x = 1.0 - snap.values, snap.grid.nodes
    # scipy.integrate.trapezoid's operations, in its order
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0))
