import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ksgrowup
from ksgrowup import (GradedGrid, RadialField, Snapshot, interp,
                      make_graded_grid, n_from_q, n_from_u, q_from_rho,
                      u_from_n, w_from_u)
from ksgrowup.errors import ConstructionError, DegenerateSlopeError, RangeError
from ksgrowup.grids import Table1D, origin_slope_extrapolated
from ksgrowup.matching import closed_rate


def steady_density(a, r):
    return 8.0 * a / (a * r * r + 1.0) ** 2


def steady_mass(a, r):
    return 8.0 * np.pi * a * r * r / (a * r * r + 1.0)


class TestGradedGrid:
    def test_basic_invariants(self):
        g = make_graded_grid(200, 1e-8, 1.07)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[1] == 1e-8

    def test_geometric_prefix_exact(self):
        g = make_graded_grid(200, 1e-8, 1.07)
        k = g.geometric_prefix_len()
        assert k > 50
        w = g.widths
        assert np.allclose(w[1:k] / w[:k - 1], 1.07, rtol=1e-12, atol=0)

    def test_doubling_cells(self):
        g = make_graded_grid(11, 1e-3, 2.0)
        assert g.n == 11
        w = g.widths
        # doubling run away from 0 until the uniform fill takes over
        assert w[0] == 1e-3
        assert np.allclose(w[1:6] / w[:5], 2.0, rtol=1e-12)

    def test_uniform_after_x_min(self):
        g = make_graded_grid(101, 0.01, 1.0)
        assert np.allclose(np.diff(g.nodes), 0.01, rtol=1e-12)

    def test_layer_resolving_grid(self):
        # x_min far below the layer width 1/A(50)
        g = make_graded_grid(400, 1e-12, 1.07)
        assert g.x_min * closed_rate(50.0) <= 0.01
        assert g.n == 400

    def test_infeasible(self):
        with pytest.raises(ConstructionError):
            make_graded_grid(16, 0.5, 1.0)
        with pytest.raises(ConstructionError):
            make_graded_grid(16, 1.5, 1.2)


class TestMassTransforms:
    def test_zero_density(self):
        r = np.linspace(0, 1, 50)
        q = q_from_rho(RadialField(r_nodes=r, values=np.zeros_like(r)))
        assert np.all(q.values == 0.0)

    def test_constant_density_exact(self):
        r = np.linspace(0, 1, 81)
        q = q_from_rho(RadialField(r_nodes=r, values=np.full_like(r, 1.0 / np.pi)))
        # integrand linear in r: trapezoid is exact
        assert np.allclose(q.values, r * r, rtol=0, atol=1e-15)

    def test_steady_density_closed_form(self):
        a = 3.0
        r = np.linspace(0, 1, 4001)
        q = q_from_rho(RadialField(r_nodes=r, values=steady_density(a, r)))
        assert np.max(np.abs(q.values - steady_mass(a, r))) < 2e-6
        # cross-check the closed form itself against adaptive quadrature
        val, _ = quad(lambda s: 2 * np.pi * s * steady_density(a, s), 0, 0.7)
        assert abs(val - steady_mass(a, 0.7)) < 1e-10

    def test_total_mass_invariant(self):
        from ksgrowup import mass_of
        a = 2.0
        r = np.linspace(0, 1, 3001)
        field = RadialField(r_nodes=r, values=steady_density(a, r),
                            total_mass=8 * np.pi * a / (a + 1))
        assert abs(mass_of(field) - field.total_mass) < 1e-5

    def test_negative_density_rejected(self):
        r = np.linspace(0, 1, 20)
        v = np.ones_like(r)
        v[3] = -0.1
        with pytest.raises(ValueError):
            q_from_rho(RadialField(r_nodes=r, values=v))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=8, max_size=40))
    def test_q_nondecreasing(self, vals):
        r = np.linspace(0, 1, len(vals))
        q = q_from_rho(RadialField(r_nodes=r, values=np.array(vals)))
        assert np.all(np.diff(q.values) >= -1e-12)

    def test_n_from_q_substitution(self):
        r = np.linspace(0, 1, 51)
        n = n_from_q(Table1D(x=r, values=r * r))
        assert np.allclose(n.x, r * r)
        assert np.allclose(n.values, n.x)  # Q = r^2 becomes N = x

    def test_n_from_q_normalizes_radius(self):
        r = np.linspace(0, 2.0, 51)
        n = n_from_q(Table1D(x=r, values=np.full_like(r, 7.0)))
        assert n.x[-1] == 1.0
        assert np.all(n.values == 7.0)

    def test_steady_mass_substitution(self):
        a = 2.0
        r = np.linspace(0, 1, 101)
        n = n_from_q(Table1D(x=r, values=steady_mass(a, r)))
        x = n.x
        assert np.allclose(n.values, 8 * np.pi * a * x / (a * x + 1), rtol=1e-13)


class TestUTransforms:
    def test_singular_state(self):
        x = np.linspace(0, 1, 21)
        snap = u_from_n(Table1D(x=x, values=np.full_like(x, 8 * np.pi)), time=4.0)
        assert np.all(snap.values == 1.0)
        assert snap.time == 1.0  # u clock is four times slower

    def test_steady_family(self):
        a = 2.0
        x = np.linspace(0, 1, 101)
        snap = u_from_n(Table1D(x=x, values=8 * np.pi * a * x / (a * x + 1)))
        assert np.allclose(snap.values, a * x / (a * x + 1), rtol=1e-13)

    def test_round_trip(self):
        x = np.linspace(0, 1, 33)
        n_vals = 8 * np.pi * x / (x + 1)
        snap = u_from_n(Table1D(x=x, values=n_vals), time=2.0)
        back, t_n = n_from_u(snap)
        assert t_n == 2.0
        assert np.max(np.abs(back.values - n_vals)) < 1e-12

    def test_full_chain_reproduces_steady_profile(self):
        a = 1.5
        r = np.linspace(0, 1, 3001)
        q = q_from_rho(RadialField(r_nodes=r, values=steady_density(a, r)))
        snap = u_from_n(n_from_q(q))
        x = snap.grid.nodes
        assert np.max(np.abs(snap.values - a * x / (a * x + 1))) < 1e-6


class TestWTransform:
    def grid_snap(self, fn, n=200):
        g = make_graded_grid(n, 1e-6, 1.1)
        v = fn(g.nodes)
        return Snapshot(grid=g, values=v, time=0.0, left_bc=0.0,
                        right_bc=float(v[-1]))

    def test_linear_gives_constant(self):
        w = w_from_u(self.grid_snap(lambda x: x))
        assert np.allclose(w.values, 8.0, rtol=1e-9)

    def test_steady_profile(self):
        a = 2.0
        w = w_from_u(self.grid_snap(lambda x: a * x / (a * x + 1)))
        r = w.r_nodes
        assert np.allclose(w.values, 8 * a / (a * r * r + 1), rtol=1e-6)
        assert abs(w.values[0] - 8 * a) < 1e-5  # w(0) = 8 u_x(0)

    def test_singular_state_rejected(self):
        g = make_graded_grid(100, 1e-6, 1.1)
        snap = Snapshot(grid=g, values=np.ones(g.n), time=0.0,
                        left_bc=1.0, right_bc=1.0)
        with pytest.raises(DegenerateSlopeError):
            w_from_u(snap)

    def test_slope_consistency_with_extrapolation(self):
        a = 4.0
        snap = self.grid_snap(lambda x: a * x / (a * x + 1))
        assert abs(origin_slope_extrapolated(snap) - a) < 1e-5


class TestInterp:
    def test_nodes_exact(self):
        g = make_graded_grid(60, 1e-4, 1.2)
        v = np.sqrt(g.nodes)
        v[-1] = 1.0
        snap = Snapshot(grid=g, values=v, time=0.0, right_bc=1.0)
        out = interp(snap, g.nodes)
        assert np.max(np.abs(out - v)) < 5e-16

    def test_linear_exact(self):
        g = make_graded_grid(60, 1e-4, 1.2)
        snap = Snapshot(grid=g, values=g.nodes.copy(), time=0.0, right_bc=1.0)
        xs = np.linspace(0, 1, 777)
        assert np.max(np.abs(interp(snap, xs) - xs)) < 1e-14

    def test_third_order_on_steady_profile(self):
        a = 1.0
        errs = []
        for n in (101, 201, 401):
            x = np.linspace(0, 1, n)
            snap = Snapshot(grid=GradedGrid.from_nodes(x),
                            values=a * x / (a * x + 1), time=0.0,
                            right_bc=a / (1 + a))
            xs = 0.5 * (x[:-1] + x[1:])
            errs.append(np.max(np.abs(interp(snap, xs)
                                      - a * xs / (a * xs + 1))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 2.5

    def test_out_of_range(self):
        g = make_graded_grid(30, 1e-3, 1.3)
        snap = Snapshot(grid=g, values=g.nodes.copy(), time=0.0, right_bc=1.0)
        with pytest.raises(RangeError):
            interp(snap, 1.5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=30))
    def test_monotone_preserving(self, incr):
        v = np.sort(np.array(incr))
        v = np.concatenate([[0.0], v / max(v.max(), 1.0), [1.0]])
        x = np.linspace(0, 1, len(v))
        snap = Snapshot(grid=GradedGrid.from_nodes(x), values=v, time=0.0,
                        right_bc=1.0)
        dense = interp(snap, np.linspace(0, 1, 1500))
        assert np.all(np.diff(dense) >= -1e-12)


class TestImport:
    def test_import_loads_no_scipy_integrate_or_interpolate(self):
        # only the test-only helpers mass_of, q_from_rho and interp use
        # them, and they import them when called
        code = ("import sys, ksgrowup; print(sorted(m for m in sys.modules if "
                "m.startswith(('scipy.integrate', 'scipy.interpolate'))))")
        src = str(Path(ksgrowup.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"
