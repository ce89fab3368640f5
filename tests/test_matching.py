import math

import numpy as np
import pytest

from ksgrowup import matching
from ksgrowup.matching import MatchingPath, integrate_a
from ksgrowup.errors import InvalidKError, RangeError, SolverFailureError
from ksgrowup.matching import _gp
from oracles import (a_prime_at, closed_rate, gamma_of_a,
                     queries_solve_the_time_integral, time_integral)


class TestClosedRate:
    def test_values(self):
        assert abs(closed_rate(0.0) - math.exp(2.5)) < 1e-12
        assert abs(closed_rate(50.0) - math.exp(12.5)) < 1e-7 * math.exp(12.5)

    def test_square_identity(self):
        t = np.array([0.3, 7.0, 123.0])
        lhs = closed_rate(t) ** 2
        rhs = math.exp(5.0) * np.exp(2.0 * np.sqrt(2.0 * t))
        assert np.allclose(lhs, rhs, rtol=1e-13)


class TestIntegration:
    def test_initial_slope(self, path_k5):
        s0 = 1.0 / math.log(2.0)
        expected = 2.0 * s0 * (1.0 + 2.5 * s0 + 5.0 * s0 * s0)
        assert abs(a_prime_at(path_k5, 0.0) - expected) < 1e-12
        assert abs(expected - 43.32) < 0.01
        # tiny-step cross-check (first-order in eps through a''(0))
        eps = 1e-4
        assert abs((path_k5.closed_forms_at(eps)[0] - 2.0) / eps - expected) < 0.2

    def test_start_value(self, path_k5):
        assert abs(path_k5.closed_forms_at(0.0)[0] - 2.0) < 1e-12
        assert path_k5.a[0] == pytest.approx(2.0, abs=1e-12)

    def test_log_bound(self, path_k5):
        t = np.linspace(0.0, 1000.0, 500)
        assert np.all(path_k5.loga_at(t) >= np.sqrt(2.0 * t) - 1e-10)

    def test_deviation_bracket_and_trend(self, path_k5):
        t = np.linspace(100.0, 1000.0, 200)
        dev = path_k5.loga_at(t) - np.sqrt(2.0 * t)
        assert dev.min() > 2.0 and dev.max() < 3.0
        assert np.all(np.diff(np.abs(dev - 2.5)) <= 1e-12)

    @pytest.mark.parametrize("K", [5.0, 6.0, -1.0, 25.0 / 16.0])
    def test_queries_solve_the_time_integral(self, K):
        # t(ell) = int_{log 2}^{ell} s^3 / (s^2 + 5s/2 + K) ds: K = 5, 6 take
        # the arctan branch, K = -1 the atanh branch, K = 25/16 the rational
        # one.  Queries at times off the rows: the criterion-3 window and
        # the early layer, where a dense interpolant would be worst
        assert np.all(queries_solve_the_time_integral(integrate_a(K, 1000.0)))

    @pytest.mark.parametrize("K", [5.0, 6.0, -1.0, 25.0 / 16.0])
    def test_knots_solve_the_time_integral(self, K):
        # the knots of a uniform sigma = sqrt(2t) grid, 0.005 apart, queried
        # in one batch
        path = integrate_a(K, 200.0)
        sig = np.linspace(0.0, 20.0, 4001)
        ell = path.loga_at(0.5 * sig * sig)
        tau = 0.5 * sig[1:] ** 2
        assert ell[0] == math.log(2.0)
        assert np.max(np.abs(time_integral(ell[1:], K) - tau) / tau) <= 1e-12

    @pytest.mark.parametrize("K", [5.0, 6.0, -1.0, 25.0 / 16.0])
    def test_rows_solve_the_time_integral(self, K):
        # the sampled rows (path_k*.csv) solve t(log a) = t like the queries
        path = integrate_a(K, 200.0)
        assert path.t[0] == 0.0
        t = path.t[1:]
        t_quad = time_integral(np.log(path.a[1:]), K)
        assert np.max(np.abs(t_quad - t) / t) <= 1e-12

    @pytest.mark.parametrize("K", [5.0, 6.0])
    def test_a_point_does_not_depend_on_its_batch(self, K):
        # each point stops its Newton iteration on its own step, so a batch
        # gives every time the bits of a query of that time alone
        path = integrate_a(K, 1000.0)
        ts = np.concatenate([np.linspace(0.0, 1000.0, 101),
                             np.geomspace(1e-6, 1000.0, 60), [0.0, 1000.0, 0.5, 0.5]])
        assert np.array_equal(path.loga_at(ts), [path.loga_at(t) for t in ts])

    @pytest.mark.parametrize("K", [5.0, 6.0, -1.0, 25.0 / 16.0])
    def test_rk4_converges_to_the_knots_at_order_4(self, K):
        # classical RK4 on d ell / d sigma = sigma * Gp(1/ell), stage by
        # stage, against the exact path at the knots of its own uniform sigma
        # grid: its error falls 16-fold when the step is halved
        def rk4(sigma):
            h = sigma[1] - sigma[0]
            ell = np.empty_like(sigma)
            ell[0] = e = math.log(2.0)
            for i, sg in enumerate(sigma[:-1]):
                k1 = sg * _gp(1.0 / e, K)
                k2 = (sg + 0.5 * h) * _gp(1.0 / (e + 0.5 * h * k1), K)
                k3 = (sg + 0.5 * h) * _gp(1.0 / (e + 0.5 * h * k2), K)
                k4 = (sg + h) * _gp(1.0 / (e + h * k3), K)
                e += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                ell[i + 1] = e
            return ell

        path = integrate_a(K, 200.0)
        errs = []
        for n in (1000, 2000):
            sigma = np.linspace(0.0, 20.0, n + 1)
            exact = path.loga_at(0.5 * sigma * sigma)
            errs.append(np.max(np.abs(rk4(sigma) - exact) / exact))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_unconverged_inverse_raises(self, monkeypatch):
        # a wrong slope turns Newton linear and slow: after 50 steps the
        # points still move, which must raise, not return (python -O strips
        # asserts)
        t_of_ell = matching._t_of_ell

        def wrong_slope(ell, K):
            t, dt = t_of_ell(ell, K)
            return t, 10.0 * dt

        monkeypatch.setattr(matching, "_t_of_ell", wrong_slope)
        with pytest.raises(SolverFailureError, match="50 Newton steps"):
            integrate_a(5.0, 100.0)

    def test_rows_that_break_the_ode_raise(self, monkeypatch):
        # log a one below the inverse: a(0) != 2 and log a < sqrt(2t) late on
        ell_at = matching._ell_at
        monkeypatch.setattr(matching, "_ell_at", lambda K, t: ell_at(K, t) - 1.0)
        with pytest.raises(SolverFailureError, match="a increasing"):
            integrate_a(5.0, 100.0)

    def test_invalid_k(self):
        with pytest.raises(InvalidKError):
            integrate_a(-3.0, 10.0)
        integrate_a(-2.0, 10.0)  # still admissible

    def test_range_guard(self, path_k5):
        with pytest.raises(RangeError):
            path_k5.closed_forms_at(2000.0)

    def test_path_monotone(self, path_k5):
        assert np.all(np.diff(path_k5.a) > 0)
        assert np.all(path_k5.a_prime > 0)


class TestDerivedQuantities:
    def test_gamma_closed_form_value(self):
        # H(0.1) for K = 6: 0.1 (1 + 0.5 + 0.18) / (1 + 0.25 + 0.06)
        got = gamma_of_a(math.exp(10.0), 6.0)
        assert abs(got - 0.1 * 1.68 / 1.31) < 1e-12
        assert abs(got - 0.1282) < 2e-4

    def test_gamma_domain(self):
        with pytest.raises(RangeError):
            gamma_of_a(0.5, 5.0)

    def test_gamma_matches_difference_quotient(self, path_k5):
        # gamma = (a/a')' along the path
        for t in (5.0, 50.0, 400.0):
            d = 1e-3 * max(t, 1.0)
            a_over_ap = [path_k5.closed_forms_at(s)[0] / a_prime_at(path_k5, s)
                         for s in (t + d, t - d)]
            q = (a_over_ap[0] - a_over_ap[1]) / (2 * d)
            assert abs(q - path_k5.closed_forms_at(t)[2]) < 1e-5 * max(1.0, abs(q))

    def test_gamma_small_s_expansion(self):
        # H(s) = s + O(s^2): relative deviation scales linearly in s
        s = np.array([0.02, 0.01])
        vals = gamma_of_a(np.exp(1.0 / s), 5.0)
        rel = np.abs(vals / s - 1.0)
        assert np.all(rel < 3.0 * s)
        assert rel[1] < 0.6 * rel[0]

    def test_gamma_equivalent_to_inverse_log(self, path_k5):
        t = 1000.0
        g = path_k5.closed_forms_at(t)[2]
        assert abs(g * path_k5.loga_at(t) - 1.0) < 0.15

    def test_b_identity_and_positivity(self, path_k5):
        assert np.allclose(path_k5.b, path_k5.a_prime / path_k5.a ** 2, rtol=1e-14)
        assert np.all(path_k5.b > 0)

    def test_b_a_loga_bracket(self, path_k5):
        # b a log a = 1 + 5/(2 log a) + K/log^2 a; inside [0.9, 1.1] once
        # log a is large enough (t >= 400 for K = 5), approaching 1
        t = np.linspace(400.0, 1000.0, 60)
        a, b, _, _ = path_k5.closed_forms_at(t)
        vals = b * a * path_k5.loga_at(t)
        assert np.all((vals > 0.9) & (vals < 1.1))
        assert np.all(np.diff(vals) < 0)

    def test_b_prime_identity(self, path_k5):
        # b' = -(1 + gamma) a b^2
        for t in (10.0, 200.0):
            d = 1e-3 * t
            bp = (path_k5.closed_forms_at(t + d)[1]
                  - path_k5.closed_forms_at(t - d)[1]) / (2 * d)
            a, b, gamma, _ = path_k5.closed_forms_at(t)
            rhs = -(1.0 + gamma) * a * b ** 2
            assert abs(bp - rhs) < 1e-4 * abs(rhs)

    def test_gamma_monotone(self, path_k6):
        # nonincreasing from the first sample on
        assert np.all(np.diff(path_k6.gamma) <= 1e-14)

    def test_gamma_monotone_constant_path(self):
        t = np.linspace(0, 10, 20)
        path = MatchingPath(K=5.0, t=t, a=np.exp(t + 1), a_prime=np.exp(t + 1),
                            b=np.exp(-(t + 1)), gamma=np.full_like(t, 0.25),
                            t_end=10.0)
        assert np.all(np.diff(path.gamma) <= 1e-14)

    def test_gamma_prime_scale(self, path_k5):
        # gamma' * log^3 a -> -1 (slowly); finite differences agree with the
        # closed form
        t = 1000.0
        d = 1.0
        fd = (path_k5.closed_forms_at(t + d)[2]
              - path_k5.closed_forms_at(t - d)[2]) / (2 * d)
        gamma_prime = path_k5.closed_forms_at(t)[3]
        assert abs(fd - gamma_prime) < 1e-9
        scaled = gamma_prime * path_k5.loga_at(t) ** 3
        assert -1.5 < scaled < -0.8

    def test_integrated_ode_relation_bounded(self, path_k5):
        # (log a)^2/2 - (5/2) log a - t stays within a fixed desk-scale band
        # on [1, 1000]; its only drift is logarithmic (slope -K/(4t) summed)
        t = np.geomspace(1.0, 1000.0, 200)
        ell = path_k5.loga_at(t)
        q = 0.5 * ell ** 2 - 2.5 * ell - t
        assert np.max(np.abs(q)) < 12.0
        A = np.vstack([np.ones_like(t), np.log(t)]).T
        coef, *_ = np.linalg.lstsq(A, q, rcond=None)
        resid = q - A @ coef
        assert np.max(np.abs(resid)) < 0.5  # log-linear to good accuracy

    def test_rate_ratio_decay(self, path_k5):
        # |a/A - 1| shrinks; quadrupling t roughly halves it (log-corrected)
        dev = np.abs(path_k5.closed_forms_at(np.array([250.0, 1000.0]))[0]
                     / closed_rate(np.array([250.0, 1000.0])) - 1.0)
        assert dev[1] < dev[0]
        assert dev[1] / dev[0] < 0.7
