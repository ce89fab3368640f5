import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksgrowup.specialfn import (OperatorInverse, PhiBlend, SpecialFunctions,
                                _w_and_slope, build_component,
                                build_partition, check_asymptotics, w0)
from ksgrowup.errors import ConstructionError, RangeError, SingularInputError
from oracles import apply_operator, phi_deriv, quintic_cutoff


class TestOperator:
    def test_kernel_annihilated(self):
        y = np.geomspace(1e-4, 1e4, 200)
        w = w0(y)
        wp = (1.0 - y) / (1.0 + y) ** 3
        wpp = (2.0 * y - 4.0) / (1.0 + y) ** 4
        assert np.max(np.abs(apply_operator(w, wp, wpp, y))) < 1e-14

    def test_zero(self):
        assert apply_operator(0.0, 0.0, 0.0, 3.0) == 0.0

    def test_linear_input(self):
        # L[y] = 2y/(1+y) + 2y/(1+y)^2 = 2y(y+2)/(1+y)^2; at y=1 this is 3/2
        y = np.array([1.0, 2.0, 7.5])
        got = apply_operator(y, np.ones_like(y), np.zeros_like(y), y)
        assert np.allclose(got, 2 * y * (y + 2) / (1 + y) ** 2, rtol=1e-15)
        assert abs(got[0] - 1.5) < 1e-15

    def test_divergence_form_identity(self):
        # L w also equals d/dy [ (y-1)/(y+1) w + y w' ] for smooth w
        def V(y, w, wp):
            return (y - 1.0) / (y + 1.0) * w + y * wp
        for yv in (0.5, 2.0, 17.0):
            d = 1e-5 * yv
            lhs = apply_operator(yv ** 2, 2 * yv, 2.0, yv)
            rhs = (V(yv + d, (yv + d) ** 2, 2 * (yv + d))
                   - V(yv - d, (yv - d) ** 2, 2 * (yv - d))) / (2 * d)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


class TestInverse:
    def test_zero_source(self):
        inv = OperatorInverse(lambda y: 0.0 * np.asarray(y), build_partition(100.0))
        y = np.geomspace(1e-6, 100, 50)
        assert np.max(np.abs(inv(y)[0])) == 0.0

    def test_linear_source_closed_form(self):
        inv = OperatorInverse(lambda y: np.asarray(y, float), build_partition(100.0))
        y = np.geomspace(1e-3, 100, 80)
        exact = y * ((y + 1) ** 3 - 1) / (6 * (y + 1) ** 2)
        assert np.max(np.abs(inv(y)[0] - exact) / np.maximum(exact, 1e-12)) < 1e-12
        assert abs(inv(1.0)[0] - 7.0 / 24.0) < 1e-14

    def test_inner_integral_of_w0(self, funcs_med):
        # int_0^t s/(s+1)^2 ds = log(t+1) - t/(t+1)
        t = np.array([0.5, 2.0, 50.0])
        exact = np.log1p(t) - t / (t + 1.0)
        assert np.allclose(funcs_med._f.G(t), exact, rtol=1e-13)

    def test_positivity_preserved(self):
        inv = OperatorInverse(lambda y: np.log1p(np.asarray(y)), build_partition(1e3))
        y = np.geomspace(1e-6, 1e3, 200)
        assert np.all(inv(y)[0] >= 0.0)

    def test_linearity(self):
        psi1 = lambda y: np.asarray(y, float)
        psi2 = lambda y: w0(y)
        a, b = 2.5, -0.75
        nodes = build_partition(200.0)
        comb = OperatorInverse(lambda y: a * psi1(y) + b * psi2(y), nodes)
        i1 = OperatorInverse(psi1, nodes)
        i2 = OperatorInverse(psi2, nodes)
        y = np.geomspace(1e-4, 200, 100)
        lhs = comb(y)[0]
        rhs = a * i1(y)[0] + b * i2(y)[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(lhs))

    def test_singular_source_rejected(self):
        with pytest.raises(SingularInputError):
            OperatorInverse(lambda y: np.sqrt(np.asarray(y, float)),
                            build_partition(100.0))

    def test_range_guard(self):
        inv = OperatorInverse(lambda y: np.asarray(y, float), build_partition(50.0))
        with pytest.raises(RangeError):
            inv(np.array([60.0]))

    def test_round_trip_small(self):
        # independent second derivative: difference the identity-based w'
        inv = OperatorInverse(lambda y: np.log1p(np.asarray(y)), build_partition(2e3))
        y = np.geomspace(0.01, 1e3, 120)
        d = 3e-4 * y
        wpp = (inv(y + d)[1] - inv(y - d)[1]) / (2 * d)
        got = apply_operator(*inv(y), wpp, y)
        assert np.max(np.abs(got - np.log1p(y))) < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_positivity_random_sources(self, c1, c2):
        inv = OperatorInverse(lambda y: c1 * np.asarray(y) / (1 + np.asarray(y))
                              + c2 * w0(y), build_partition(100.0))
        y = np.geomspace(1e-5, 100, 60)
        assert np.all(inv(y)[0] >= 0.0)


class TestPhi:
    def test_anchors(self):
        phi = PhiBlend()
        assert phi(0.0) == 0.0
        assert phi_deriv(phi, 0.0) > 0.0
        y = np.linspace(1e-6, 2.0 - 1e-9, 500)
        assert np.all(phi(y) > 0.0)

    def test_tail(self):
        phi = PhiBlend()
        y = np.array([2.0, 10.0, 1e5])
        assert np.allclose(phi(y), 1.0 / np.log(y), rtol=1e-14)

    def test_c1_at_join(self):
        phi = PhiBlend()
        d = 1e-7
        assert abs(phi(2.0 - d) - phi(2.0 + d)) < 1e-6
        left = (phi(2.0 - d) - phi(2.0 - 2 * d)) / d
        right = (phi(2.0 + 2 * d) - phi(2.0 + d)) / d
        assert abs(left - right) < 1e-5


class TestSpecialFunctions:
    def test_f_anchors(self, funcs_med):
        T = funcs_med.eval(0.0)
        assert T["f"] == 0.0
        assert T["f_prime"] == 1.0
        y = np.geomspace(1e-6, 3e6, 300)
        assert np.all(funcs_med.eval(y)["f"] >= w0(y))

    def test_f_solves_ode(self, funcs_med):
        y = np.geomspace(0.01, 1e4, 60)
        d = 3e-4 * y
        wpp = (funcs_med.eval(y + d)["f_prime"]
               - funcs_med.eval(y - d)["f_prime"]) / (2 * d)
        T = funcs_med.eval(y)
        got = apply_operator(T["f"], T["f_prime"], wpp, y)
        assert np.max(np.abs(got - w0(y))) < 1e-6

    def test_f_asymptote(self, funcs_med):
        y = 1e6
        T = funcs_med.eval(y)
        assert abs(T["f"] - (math.log(y) - 2.0)) < 0.01
        assert abs(y * T["f_prime"] - 1.0) < 0.01

    def test_g_anchors(self, funcs_med):
        T = funcs_med.eval(0.0)
        assert T["g"] == 0.0
        assert T["g_prime"] == 0.0

    def test_g_asymptote(self, funcs_med):
        y = 1e6
        T = funcs_med.eval(y)
        assert abs(T["g"] / y - (math.log(y) / 2 - 2.25)) < 0.02
        assert abs(T["g_prime"] - (math.log(y) / 2 - 1.75)) < 0.01

    def test_h_is_g_plus_M_g4(self, funcs_med):
        T = funcs_med.eval(np.geomspace(1e-5, 1e6, 100))
        lhs = T["h"]
        rhs = T["g"] + funcs_med.M * T["g4"]
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_h_nonnegative(self, funcs_med):
        y = np.geomspace(1e-6, 3e6, 400)
        assert np.all(funcs_med.eval(y)["h"] >= 0.0)

    def test_g4_growth_bounded(self, funcs_med):
        y = np.geomspace(1e4, 3e6, 50)
        ratio = funcs_med.eval(y)["g4"] / (y / np.log(y))
        assert np.max(ratio) < 20.0
        assert np.max(ratio) / np.min(ratio) < 1.5  # no growth across the window

    def test_tilde_f_nonnegative_empirically(self, funcs_med):
        # measured fact: 2 f f' - y f' + f stays >= 0, so the amplitude
        # requirement from nonnegativity alone is 0 and M comes from the
        # clamp at 3
        y = np.geomspace(1e-6, 3e6, 500)
        assert np.min(funcs_med.tilde_f(y)) > -1e-12
        assert funcs_med.required_m() == 0.0

    def test_min_m_clamped(self, funcs_med):
        assert funcs_med.M == 3.0
        assert funcs_med.required_m() <= 3.0

    def test_amplitude_requirement_scales_inversely(self, funcs_med):
        # on a source with genuine negativity the needed amplitude halves
        # when phi doubles
        y = funcs_med._f.nodes[1:]
        shifted = funcs_med.tilde_f(y) - 1.0
        ph = funcs_med.phi(y)
        need1 = np.max(-np.minimum(shifted, 0.0) / ph)
        need2 = np.max(-np.minimum(shifted, 0.0) / (2.0 * ph))
        assert abs(need2 - need1 / 2.0) < 1e-12 * need1

    def test_table_matches_exact(self, funcs_med):
        # eval's one shared lookup and each inverse's own read the same
        # panel data: the same bits between nodes, at nodes and at the
        # range's last node
        rng = np.random.default_rng(7)
        y = np.concatenate([[0.0], np.exp(rng.uniform(np.log(1e-5), np.log(2.9e6), 60)),
                            funcs_med.y[::25], funcs_med.y[-1:]])
        T = funcs_med.eval(y)
        (f, fp), (g, gp), (q, qp) = (inv(y) for inv in
                                     (funcs_med._f, funcs_med._g, funcs_med._g4))
        own = {"f": f, "f_prime": fp, "g": g, "g_prime": gp, "g4": q,
               "g4_prime": qp, "h": g + funcs_med.M * q,
               "h_prime": gp + funcs_med.M * qp}
        for name, values in own.items():
            assert np.array_equal(T[name], values), name
        # at the nodes, eval returns the cumulative node sums
        nodes = funcs_med.y
        at_nodes = funcs_med.eval(nodes)
        for name, inv in (("f", funcs_med._f), ("g", funcs_med._g), ("g4", funcs_med._g4)):
            w, dw = _w_and_slope(nodes, inv.kernel_coeff, inv.F.at_nodes, inv.G.at_nodes)
            assert np.array_equal(at_nodes[name], w), name
            assert np.array_equal(at_nodes[name + "_prime"], dw), name

    def test_point_alone_equals_point_in_batch(self, funcs_med):
        # every sum runs elementwise in a fixed order, so a value does not
        # depend on the other points of the query
        rng = np.random.default_rng(11)
        y = np.exp(rng.uniform(np.log(1e-7), np.log(2.9e6), 10_000))
        F_of_g = funcs_med._g.F      # the most deeply nested integral
        batch, cols = F_of_g(y), funcs_med.eval(y)
        for i in rng.choice(y.size, 25, replace=False):
            assert np.array_equal(F_of_g(y[i]), batch[i])
            alone = funcs_med.eval(y[i:i + 1])
            for name, col in cols.items():
                assert np.array_equal(alone[name][0], col[i]), name

    def test_table_anchors(self, funcs_med):
        assert funcs_med.y[0] == 0.0
        T = funcs_med.eval(funcs_med.y)
        assert T["f"][0] == 0.0 and T["g"][0] == 0.0 and T["h"][0] == 0.0
        assert T["f_prime"][0] == 1.0
        assert T["g_prime"][0] == 0.0 and T["h_prime"][0] == 0.0
        assert np.all(T["h"] >= 0.0)
        assert np.all(T["f"] >= w0(funcs_med.y))

    def test_table_range_error(self, funcs_med):
        with pytest.raises(RangeError):
            funcs_med.eval(np.array([1e7]))

    def test_longer_table_extends_a_shorter_one(self):
        # the quadrature accumulates from 0 on nodes that do not depend on
        # y_max, so a longer table repeats a shorter one bit for bit: one
        # table per run can serve every smaller range
        short, long = SpecialFunctions(2e4), SpecialFunctions(1e6)
        assert short.M == long.M
        y = np.geomspace(2e2, 2e4, 97)
        Ts, Tl = short.eval(y), long.eval(y)
        for name in ("f", "f_prime", "g", "g_prime", "h", "h_prime",
                     "g4", "g4_prime"):
            assert np.array_equal(Ts[name], Tl[name]), name
        common = np.intersect1d(short.y[short.y >= 2e2], long.y[long.y <= 2e4])
        assert common.size > 70
        Ts, Tl = short.eval(common), long.eval(common)
        Ts["tilde_f"], Tl["tilde_f"] = short.tilde_f(common), long.tilde_f(common)
        for col in ("f", "f_prime", "tilde_f", "g", "g_prime", "h", "h_prime"):
            assert np.array_equal(Ts[col], Tl[col]), col


class TestOnePartition:
    def test_inverses_share_the_table_partition(self, funcs_med):
        assert funcs_med._f.nodes is funcs_med._g.nodes is funcs_med._g4.nodes \
            is funcs_med.y

    def test_asymptotics_on_one_partition_and_one_lookup_per_window(
            self, funcs_med, monkeypatch):
        from ksgrowup import specialfn
        partitions, lookups = [], []
        build, find = specialfn.build_partition, specialfn.locate

        def counting_build(*args, **kwargs):
            partitions.append(build(*args, **kwargs))
            return partitions[-1]

        def counting_locate(nodes, y):
            lookups.append((nodes, np.ndim(y)))
            return find(nodes, y)

        monkeypatch.setattr(specialfn, "build_partition", counting_build)
        monkeypatch.setattr(specialfn, "locate", counting_locate)
        y_maxes = (1e4, 1e5, 1e6)
        check_asymptotics(funcs_med, y_maxes, 1.35)
        assert len(partitions) == 1
        # the component builds query G at their Gauss points (2-D); each
        # window reads the three components through one 1-D lookup
        windows = [nodes for nodes, ndim in lookups
                   if nodes is partitions[0] and ndim == 1]
        assert len(windows) == len(y_maxes)


class TestComponents:
    def test_g1_asymptote(self):
        c = build_component(1, build_partition(1e5))
        y = 1e5
        w, wp = c(y)
        assert abs(w - (y * math.log(y) / 2 - 0.75 * y)) < 40 * math.log(y)
        assert abs(wp - (math.log(y) / 2 - 0.25)) < 40 * math.log(y) / y

    def test_g2_asymptote(self):
        c = build_component(2, build_partition(1e5))
        w, wp = c(1e5)
        assert abs(w - 0.5e5) < 20.0
        assert abs(wp - 0.5) < 1e-3

    def test_g3_log_cubed(self):
        c = build_component(3, build_partition(1e5))
        y = np.geomspace(1e3, 1e5, 20)
        assert np.max(c(y)[0] / np.log(y) ** 3) < 5.0

    def test_invalid_index(self):
        # L^{-1} phi is the table's g4, not a component
        for i in (4, 5):
            with pytest.raises(ConstructionError):
                build_component(i, build_partition(1e4))

    def test_cutoff_blend_insensitivity(self):
        # the cutoff is free below y = 1; two C^1 choices shift the inverse
        # only by a bounded amount (the sources differ on [0, 1] only)
        a = build_component(2, build_partition(1e5))
        b = OperatorInverse(quintic_cutoff, build_partition(1e5), check_origin=False)
        y = np.geomspace(1.0, 1e5, 40)
        diff = np.abs(a(y)[0] - b(y)[0])
        assert np.max(diff) < 1.0
        assert abs(a(1e5)[0] - b(1e5)[0]) < 1.0


class TestAsymptoticsReport:
    def test_small_sweep_clean(self):
        rep = check_asymptotics(SpecialFunctions(1e5), (1e4, 1e5), 1.35)
        assert rep.ok, rep.violations
        assert rep.spot_checks["f_dev_at_ymax"] < 0.01
        assert rep.spot_checks["g_over_y_dev_at_ymax"] < 0.02

    def test_window_guard(self, funcs_med):
        with pytest.raises(ConstructionError):
            check_asymptotics(funcs_med, (100.0, 1000.0), 1.35)

    def test_big_table_gives_the_default_report(self, funcs_med):
        # every window read off a longer table: the same report, bit for
        # bit, as off a table that ends at the sweep's largest member
        default = check_asymptotics(SpecialFunctions(2e4), (1e4, 2e4), 1.35)
        shared = check_asymptotics(funcs_med, (1e4, 2e4), 1.35)
        assert shared.ratios == default.ratios
        assert shared.spot_checks == default.spot_checks

    @pytest.mark.parametrize("y_maxes", [(2e4, 1e4), (1e4, 2e4)],
                             ids=["order", "y_max"])
    def test_given_table_must_match_a_sweep_member(self, y_maxes):
        # the table must reach the sweep's largest member, whatever order
        # the members are listed in; a shorter one is refused, not used
        with pytest.raises(ConstructionError, match="below the sweep"):
            check_asymptotics(SpecialFunctions(1.5e4), y_maxes, 1.35)
