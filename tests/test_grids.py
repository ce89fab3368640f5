import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ksgrowup
from ksgrowup.errors import ConstructionError
from ksgrowup.grids import Snapshot, make_graded_grid
from oracles import (DegenerateSlopeError, closed_rate, geometric_prefix_len,
                     origin_slope_extrapolated, w_from_u)


class TestGradedGrid:
    def test_basic_invariants(self):
        g = make_graded_grid(200, 1e-8, 1.07)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[1] == 1e-8

    def test_geometric_prefix_exact(self):
        g = make_graded_grid(200, 1e-8, 1.07)
        k = geometric_prefix_len(g)
        assert k > 50
        w = np.diff(g.nodes)
        assert np.allclose(w[1:k] / w[:k - 1], 1.07, rtol=1e-12, atol=0)

    def test_doubling_cells(self):
        g = make_graded_grid(11, 1e-3, 2.0)
        assert g.n == 11
        w = np.diff(g.nodes)
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


def _run_python(code: str) -> str:
    """Run code in a fresh interpreter on this checkout; its stdout."""
    src = str(Path(ksgrowup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestImport:
    def test_import_loads_no_scipy(self):
        # the tridiagonal solves call numpy's bundled OpenBLAS, so a run
        # imports no scipy module at all; only the fallback, on a numpy
        # without that library, imports scipy.linalg.lapack
        code = ("import json, sys, ksgrowup.cli; from ksgrowup import pde; "
                "print(json.dumps([pde._bundled_gtsv() is not None, "
                "any(m.startswith('scipy') for m in sys.modules)]))")
        bundled, loaded_scipy = json.loads(_run_python(code))
        assert loaded_scipy is not bundled

    def test_all_imports_nothing_after_the_package(self, tmp_path):
        # every import cost is paid with `import ksgrowup.cli`, not while a
        # command runs; argparse's gettext alone loads locale lazily.  No
        # computation uses a masked array, so numpy.ma, which np.unique and
        # np.percentile import on first use, is never loaded
        code = ("import json, sys, ksgrowup.cli; before = set(sys.modules); "
                f"rc = ksgrowup.cli.main(['all', '--out', {str(tmp_path)!r}, "
                "'--quiet']); "
                "print(json.dumps([rc, sorted(set(sys.modules) - before), "
                "sorted(m for m in sys.modules "
                "if m.split('.')[:2] == ['numpy', 'ma'])]))")
        rc, added, masked = json.loads(_run_python(code))
        assert rc == 0
        assert set(added) <= {"locale", "_locale"}
        assert masked == []
