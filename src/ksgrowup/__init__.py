"""Critical-mass chemotaxis grow-up: solvers, barriers, and rate extraction."""

from .barriers import (BarrierSpec, certify_sign, check_boundary_matching,
                       find_time_shifts)
from .grids import GradedGrid, RadialField, Snapshot, make_graded_grid
from .matching import MatchingPath, integrate_a
from .pde import SolverConfig, Trajectory, origin_slope, solve, solve_w
from .specialfn import SpecialFunctions, check_asymptotics

__version__ = "0.1.0"
