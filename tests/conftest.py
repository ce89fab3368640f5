"""Shared (expensive) artifacts, built once per session."""

import pytest

from ksgrowup.grids import Snapshot, make_graded_grid
from ksgrowup.matching import integrate_a
from ksgrowup.pde import SolverConfig, solve
from ksgrowup.specialfn import SpecialFunctions


@pytest.fixture(scope="session")
def funcs_med():
    """Function tables reaching y_max = 3e6 (covers a(t) up to t ~ 65)."""
    return SpecialFunctions(3e6)


@pytest.fixture(scope="session")
def funcs_big():
    """Tables reaching y_max = 1e35: covers a(t) up to t ~ 3000."""
    import time
    t0 = time.perf_counter()
    fn = SpecialFunctions(1e35)
    fn.build_seconds = time.perf_counter() - t0
    return fn


@pytest.fixture(scope="session")
def default_lattice():
    """certify's time lattice at the defaults: 53 times on [0.5, 2244.78]."""
    from ksgrowup import cli
    return cli._lattice(cli._load_config(None))


@pytest.fixture(scope="session")
def path_k5():
    return integrate_a(5.0, 1100.0)


@pytest.fixture(scope="session")
def path_k6():
    return integrate_a(6.0, 1100.0)


@pytest.fixture(scope="session")
def path_k5_big():
    return integrate_a(5.0, 3100.0)


@pytest.fixture(scope="session")
def path_k6_big():
    return integrate_a(6.0, 3100.0)


CRITICAL_OUTPUTS = [0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0,
                    20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]


@pytest.fixture(scope="session")
def critical_traj():
    """The canonical critical run: u0(x) = x, right bc 1, to t = 50."""
    import time
    grid = make_graded_grid(420, 1e-8, 1.07)
    u0 = Snapshot(grid=grid, values=grid.nodes.copy(), time=0.0,
                  left_bc=0.0, right_bc=1.0)
    cfg = SolverConfig()
    t0 = time.perf_counter()
    traj = solve(u0, cfg, 50.0, CRITICAL_OUTPUTS)
    traj.build_seconds = time.perf_counter() - t0
    return traj


@pytest.fixture(scope="session")
def fast_traj():
    """A cheaper critical run to t = 10 for ordering/shift tests."""
    grid = make_graded_grid(220, 1e-7, 1.09)
    u0 = Snapshot(grid=grid, values=grid.nodes.copy(), time=0.0,
                  left_bc=0.0, right_bc=1.0)
    cfg = SolverConfig()
    outs = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    return solve(u0, cfg, 10.0, outs)
