"""The matching ODE for the profile scale a(t) and its derived quantities.

a solves  a' = (a / log a) * (1 + 5/(2 log a) + K/log^2 a),  a(0) = 2,
which in ell = log a and the stretched time sigma = sqrt(2 t) reads

    d ell / d sigma = sigma * Gp(1 / ell),      Gp(s) = s (1 + 5 s/2 + K s^2).

The right side depends on ell alone, so t(ell) = int_{log 2}^{ell} s^3/Q(s) ds
with Q(s) = s^2 + 5s/2 + K is elementary: a polynomial part, a
((25/4 - K)/2) log Q term, and an arctan (K > 25/16), atanh (K < 25/16) or
rational (K = 25/16) term, each written in the difference ell - log 2
(log1p; arctan and atanh of the difference) so nothing cancels near a = 2.
The knots solve t(ell_k) = sigma_k^2 / 2 on a uniform sigma grid by a
safeguarded Newton, exact to round-off; between them a(t) is cubic Hermite
in sigma with the ODE's own slopes, fourth order in the sigma step.

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

from .errors import InvalidKError, RangeError


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
    """Path of a(t) with sampled derived quantities.

    The samples, like the knots, solve the exact t(log a).  Dense
    evaluation goes through the stored knots (cubic Hermite in
    sigma = sqrt(2t), slopes from the ODE itself).
    """

    K: float
    t: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    sigma_knots: np.ndarray
    ell_knots: np.ndarray

    @property
    def t_end(self) -> float:
        return float(self.sigma_knots[-1] ** 2 / 2.0)

    def _ell(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.t_end * (1 + 1e-12)):
            raise RangeError(f"t outside the integrated range [0, {self.t_end:g}]")
        sig = np.sqrt(2.0 * t)
        sk, ek = self.sigma_knots, self.ell_knots
        k = np.clip(np.searchsorted(sk, sig, side="right") - 1, 0, len(sk) - 2)
        h = sk[k + 1] - sk[k]
        s = (sig - sk[k]) / h
        d0 = sk[k] * _gp(1.0 / ek[k], self.K)
        d1 = sk[k + 1] * _gp(1.0 / ek[k + 1], self.K)
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return h00 * ek[k] + h10 * h * d0 + h01 * ek[k + 1] + h11 * h * d1

    def loga_at(self, t):
        return self._ell(t)

    def a_at(self, t):
        return np.exp(self._ell(t))

    def b_at(self, t):
        ell = self._ell(t)
        return _gp(1.0 / ell, self.K) / np.exp(ell)

    def gamma_at(self, t):
        return _hp(1.0 / self._ell(t), self.K)

    def gamma_prime_at(self, t):
        s = 1.0 / self._ell(t)
        return -s * s * _gp(s, self.K) * _hp_prime(s, self.K)

    def dense_error(self, t_lo: float) -> float:
        """Largest relative error of the dense a(t) at the knot midpoints
        from t_lo on, against the exact a there."""
        sig = 0.5 * (self.sigma_knots[1:] + self.sigma_knots[:-1])
        sig = sig[0.5 * sig * sig >= t_lo]
        exact = np.exp(_ell_knots(self.K, sig))
        return float(np.max(np.abs(self.a_at(0.5 * sig * sig) - exact) / exact,
                            initial=0.0))


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
    return t, ell ** 3 / (ell * (ell + 2.5) + K)


def _ell_knots(K: float, sigma: np.ndarray) -> np.ndarray:
    """ell solving t(ell) = sigma^2 / 2 at every sigma: Newton steps kept
    inside the bracket that each residual narrows, bisection otherwise."""
    l0 = math.log(2.0)
    tau = 0.5 * sigma * sigma
    # t is convex for K >= 0, so its tangent at log 2 lies right of the root;
    # sigma + 5/2 is the large-t asymptote
    ell = np.minimum(l0 + tau * (l0 * (l0 + 2.5) + K) / l0 ** 3, sigma + 2.5)
    lo, hi = np.full_like(tau, l0), np.full_like(tau, np.inf)
    for _ in range(50):
        t, dt = _t_of_ell(ell, K)
        lo = np.where(t < tau, ell, lo)
        hi = np.where(t > tau, ell, hi)
        new = ell - (t - tau) / dt
        new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
        step = float(np.max(np.abs(new - ell) / ell))
        ell = new
        if step <= 1e-10:   # quadratic convergence: the error is now round-off
            break
    assert step <= 1e-10
    return ell


def integrate_a(K: float, t_end: float, sigma_step: float) -> MatchingPath:
    """The matching path to t_end: knots at a uniform sigma step of at most
    ``sigma_step`` (at least 8 intervals) and 241 samples on [0, t_end],
    each exact to round-off.  The step has no default here; runs take
    ``[barriers] sigma_step`` from ``defaults.ini``.

    ``sigma_step`` sets only the spacing of the dense Hermite evaluation;
    halving it moves a(t) between knots by the interpolation error, which
    is fourth order in the step.
    """
    if not math.isfinite(K):
        raise InvalidKError("K must be finite")
    s0 = 1.0 / math.log(2.0)
    if 1.0 + 2.5 * s0 + K * s0 * s0 <= 0.0:
        raise InvalidKError(
            f"K = {K} makes a' nonpositive at a(0) = 2; no admissible path")
    if t_end <= 0.0:
        raise RangeError("t_end must be positive")

    sig_end = math.sqrt(2.0 * t_end)
    n = max(8, int(math.ceil(sig_end / sigma_step)))
    sigma_knots = np.linspace(0.0, sig_end, n + 1)
    ells = _ell_knots(float(K), sigma_knots)

    samples = np.unique(np.clip(
        np.concatenate([[0.0], np.geomspace(1e-3, t_end, 240)]), 0.0, t_end))
    ell = _ell_knots(float(K), np.sqrt(2.0 * samples))
    a, s = np.exp(ell), 1.0 / ell
    gp, gamma = _gp(s, K), _hp(s, K)
    path = MatchingPath(K=float(K), t=samples, a=a, a_prime=a * gp, b=gp / a,
                        gamma=gamma,
                        sigma_knots=sigma_knots, ell_knots=ells)

    # construction invariants
    assert abs(path.a_at(0.0) - 2.0) < 1e-12
    assert np.all(np.diff(ells) > 0.0)
    assert np.all(ells >= sigma_knots - 1e-10)
    return path
