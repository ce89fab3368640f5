"""The matching ODE for the profile scale a(t) and its derived quantities.

a solves  a' = (a / log a) * (1 + 5/(2 log a) + K/log^2 a),  a(0) = 2,
which in ell = log a and the stretched time sigma = sqrt(2 t) reads

    d ell / d sigma = sigma * Gp(1 / ell),      Gp(s) = s (1 + 5 s/2 + K s^2).

The sigma form is nonstiff and uniformly smooth (ell ~ sigma + 5/2 for
large t), so a fixed-step classical Runge-Kutta integration converges to
well below the 1e-10 target and supports an exact step-halving check.

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


def closed_rate(t):
    """Closed-form grow-up rate exp(5/2 + sqrt(2 t))."""
    t = np.asarray(t, dtype=float)
    return np.exp(2.5 + np.sqrt(2.0 * t))


def _gp(s, K):
    return s * (1.0 + 2.5 * s + K * s * s)


def _hp(s, K):
    return s * (1.0 + 5.0 * s + 3.0 * K * s * s) / (1.0 + 2.5 * s + K * s * s)


def _hp_prime(s, K):
    num = s + 5.0 * s * s + 3.0 * K * s ** 3
    den = 1.0 + 2.5 * s + K * s * s
    dnum = 1.0 + 10.0 * s + 9.0 * K * s * s
    dden = 2.5 + 2.0 * K * s
    return (dnum * den - num * dden) / den ** 2


def gamma_of_a(a, K: float):
    """gamma as the closed form H(1/log a); requires a > 1."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 1.0):
        raise RangeError("gamma_of_a needs a > 1 (log a must be positive)")
    return _hp(1.0 / np.log(a), K)


@dataclass(frozen=True)
class MatchingPath:
    """Integrated path of a(t) with sampled derived quantities.

    Dense evaluation between samples goes through the stored integration
    knots (cubic Hermite in sigma = sqrt(2t), slopes from the ODE itself).
    """

    K: float
    t: np.ndarray
    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    epsilon: np.ndarray
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

    def a_prime_at(self, t):
        ell = self._ell(t)
        return np.exp(ell) * _gp(1.0 / ell, self.K)

    def b_at(self, t):
        ell = self._ell(t)
        return _gp(1.0 / ell, self.K) / np.exp(ell)

    def gamma_at(self, t):
        return _hp(1.0 / self._ell(t), self.K)

    def gamma_prime_at(self, t):
        s = 1.0 / self._ell(t)
        return -s * s * _gp(s, self.K) * _hp_prime(s, self.K)

    def epsilon_at(self, t):
        return self.gamma_at(t)


def integrate_a(K: float, t_end: float, sigma_step: float = 0.005,
                samples: np.ndarray | None = None) -> MatchingPath:
    """Integrate the matching ODE to t_end (classical RK4 in sigma).

    ``sigma_step`` controls the fixed step in sigma = sqrt(2t); halving it
    must leave a(t_end) unchanged to well below 1e-8 relative (order 4).
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
    h = sig_end / n
    # the loop runs on Python floats; each stage is sigma * _gp(1/ell, K)
    # written out, with _gp's operations in its order
    K = float(K)
    ell = math.log(2.0)
    ells = [ell]
    sig = 0.0
    for _ in range(n):
        s = 1.0 / ell
        k1 = sig * (s * (1.0 + 2.5 * s + K * s * s))
        sg = sig + 0.5 * h
        s = 1.0 / (ell + 0.5 * h * k1)
        k2 = sg * (s * (1.0 + 2.5 * s + K * s * s))
        s = 1.0 / (ell + 0.5 * h * k2)
        k3 = sg * (s * (1.0 + 2.5 * s + K * s * s))
        s = 1.0 / (ell + h * k3)
        k4 = (sig + h) * (s * (1.0 + 2.5 * s + K * s * s))
        ell += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        sig += h
        ells.append(ell)
    ells = np.array(ells)
    sigma_knots = np.linspace(0.0, sig_end, n + 1)

    if samples is None:
        tail = np.geomspace(1e-3, t_end, 240)
        samples = np.concatenate([[0.0], tail])
    samples = np.unique(np.clip(np.asarray(samples, dtype=float), 0.0, t_end))

    path = MatchingPath(K=float(K), t=samples,
                        a=np.empty_like(samples), a_prime=np.empty_like(samples),
                        b=np.empty_like(samples), gamma=np.empty_like(samples),
                        epsilon=np.empty_like(samples),
                        sigma_knots=sigma_knots, ell_knots=ells)
    path.a[:] = path.a_at(samples)
    path.a_prime[:] = path.a_prime_at(samples)
    path.b[:] = path.b_at(samples)
    path.gamma[:] = path.gamma_at(samples)
    path.epsilon[:] = path.gamma[:]

    # construction invariants
    assert abs(path.a_at(0.0) - 2.0) < 1e-12
    assert np.all(np.diff(ells) > 0.0)
    assert np.all(ells >= sigma_knots - 1e-10)
    return path
