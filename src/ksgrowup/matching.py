"""The matching ODE for the profile scale a(t) and its derived quantities.

a solves  a' = (a / log a) * (1 + 5/(2 log a) + K/log^2 a),  a(0) = 2,
which in ell = log a and the stretched time sigma = sqrt(2 t) reads

    d ell / d sigma = sigma * Gp(1 / ell),      Gp(s) = s (1 + 5 s/2 + K s^2).

The right side depends on ell alone, so t(ell) = int_{log 2}^{ell} s^3/Q(s) ds
with Q(s) = s^2 + 5s/2 + K is elementary: a polynomial part, a
((25/4 - K)/2) log Q term, and an arctan (K > 25/16), atanh (K < 25/16) or
rational (K = 25/16) term, each written in the difference ell - log 2
(log1p; arctan and atanh of the difference) so nothing cancels near a = 2.
A path answers every query by solving t(ell) = t at the times asked for
with a safeguarded Newton, exact to round-off; it stores no knots and
interpolates nothing, so no step size sets its accuracy.

Derived closed forms, exact along solutions of the ODE:

    b      = a'/a^2 = Gp(1/ell)/a
    gamma  = (a/a')' = Hp(1/ell),  Hp(s) = s (1+5s+3Ks^2) / (1+5s/2+Ks^2)
    gamma' = -s^2 Gp(s) Hp'(s) at s = 1/ell
    epsilon = gamma  (the correction factor used by the upper barrier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidKError, RangeError, SolverFailureError
from .grids import sorted_unique


def _gp(s, K):
    return s * (1.0 + 2.5 * s + K * s * s)


def _hp(s, K):
    return s * (1.0 + 5.0 * s + 3.0 * K * s * s) / (1.0 + 2.5 * s + K * s * s)


def _hp_prime(s, K):
    # s * s * s: s ** 3 of an array may round unlike that of a scalar
    num = s + 5.0 * s * s + 3.0 * K * s * s * s
    den = 1.0 + 2.5 * s + K * s * s
    dnum = 1.0 + 10.0 * s + 9.0 * K * s * s
    dden = 2.5 + 2.0 * K * s
    return (dnum * den - num * dden) / den ** 2


@dataclass(frozen=True)
class MatchingPath:
    """Path of a(t) to t_end: sampled rows and exact queries.

    The rows (t, a, a', b, gamma) and every query solve the exact
    t(log a) at the time asked for; nothing is interpolated.
    """

    K: float
    t: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    t_end: float

    @property
    def sigma_knots(self) -> np.ndarray:
        # sigma = sqrt(2t) of the rows; perfbench/tracing.py counts them
        return np.sqrt(2.0 * self.t)

    def loga_at(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self.t_end * (1 + 1e-12))):
            raise RangeError(f"t outside the integrated range [0, {self.t_end:g}]")
        return _ell_at(self.K, t)

    def closed_forms_at(self, t):
        """(a, b, gamma, gamma') at t, from one inversion of t(log a)."""
        ell = self.loga_at(t)
        s, a = 1.0 / ell, np.exp(ell)
        gp = _gp(s, self.K)
        return a, gp / a, _hp(s, self.K), -s * s * gp * _hp_prime(s, self.K)


def _t_of_ell(ell, K: float):
    """(t, dt/dell) on the path: t(ell) = int_{log 2}^{ell} s^3 / Q(s) ds,
    Q(s) = (s + 5/4)^2 + D with D = K - 25/16.  Every term is a function of
    d = ell - log 2, so t keeps its relative accuracy where d is tiny."""
    l0 = math.log(2.0)
    d, D = ell - l0, K - 25.0 / 16.0
    z = d / (D + (ell + 1.25) * (l0 + 1.25))
    r = math.sqrt(abs(D))
    third = (np.arctan(r * z) / r if D > 0.0
             else np.arctanh(r * z) / r if D < 0.0 else z)
    t = (d * (0.5 * (ell + l0) - 2.5)
         + 0.5 * (6.25 - K) * np.log1p(d * (ell + l0 + 2.5) / (l0 * (l0 + 2.5) + K))
         + 1.25 * (3.0 * K - 6.25) * third)
    # ell * ell * ell: ** 3 of a numpy scalar may round unlike that of an array
    return t, ell * ell * ell / (ell * (ell + 2.5) + K)


def _ell_at(K: float, t) -> np.ndarray:
    """ell solving t(ell) = t at every t: Newton steps kept inside the
    bracket that each residual narrows, bisection otherwise.  Each point
    stops on its own step, so its bits do not depend on the other points.

    Raises SolverFailureError if a point has not converged in 50 steps.
    """
    l0 = math.log(2.0)
    tau = np.asarray(t, dtype=float)
    # t is convex for K >= 0, so its tangent at log 2 lies right of the root;
    # sqrt(2t) + 5/2 is the large-t asymptote
    ell = np.minimum(l0 + tau * (l0 * (l0 + 2.5) + K) / l0 ** 3,
                     np.sqrt(2.0 * tau) + 2.5)
    lo, hi = np.full_like(tau, l0), np.full_like(tau, np.inf)
    active = np.ones_like(tau, dtype=bool)
    for _ in range(50):
        tt, dt = _t_of_ell(ell, K)
        lo = np.where(tt < tau, ell, lo)
        hi = np.where(tt > tau, ell, hi)
        new = ell - (tt - tau) / dt
        new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
        step = np.abs(new - ell) / ell
        ell = np.where(active, new, ell)
        # quadratic convergence: after a step this small the error is round-off
        active = active & (step > 1e-10)
        if not active.any():
            return ell[()]
    raise SolverFailureError(
        f"t(log a) not inverted for K = {K}: {int(active.sum())} of "
        f"{active.size} points still moving after 50 Newton steps")


def integrate_a(K: float, t_end: float) -> MatchingPath:
    """The matching path to t_end: 241 rows on [0, t_end] (t = 0 and 240
    geometric times from 1e-3), each exact to round-off.  Queries of the
    path solve t(log a) = t at the times asked for.

    Raises SolverFailureError if the rows break a(0) = 2, a increasing or
    log a >= sqrt(2t), which every solution of the ODE keeps.
    """
    if not math.isfinite(K):
        raise InvalidKError("K must be finite")
    s0 = 1.0 / math.log(2.0)
    if 1.0 + 2.5 * s0 + K * s0 * s0 <= 0.0:
        raise InvalidKError(
            f"K = {K} makes a' nonpositive at a(0) = 2; no admissible path")
    if t_end <= 0.0:
        raise RangeError("t_end must be positive")

    samples = sorted_unique(np.clip(
        np.concatenate([[0.0], np.geomspace(1e-3, t_end, 240)]), 0.0, t_end))
    ell = _ell_at(float(K), samples)
    a, s = np.exp(ell), 1.0 / ell
    gp = _gp(s, K)
    if (abs(a[0] - 2.0) >= 1e-12 or not np.all(np.diff(a) > 0.0)
            or not np.all(ell >= np.sqrt(2.0 * samples) - 1e-10)):
        raise SolverFailureError(
            f"matching path for K = {K} breaks a(0) = 2, a increasing or "
            "log a >= sqrt(2t)")
    return MatchingPath(K=float(K), t=samples, a=a, a_prime=a * gp, b=gp / a,
                        gamma=_hp(s, K), t_end=float(t_end))
