"""Critical-mass chemotaxis grow-up: solvers, barriers, and rate extraction."""

from .barriers import (BarrierSpec, BoundaryReport, ResidualReport, ShiftReport,
                       boundary_margin, certify_sign, check_boundary_matching,
                       check_lower_monotone, eval_barrier, find_time_shifts,
                       residual_fd, residual_full, residual_reduced)
from .grids import (GradedGrid, RadialField, Snapshot, Table1D, interp,
                    make_graded_grid, mass_of, n_from_q, n_from_u,
                    origin_slope_extrapolated, q_from_rho, u_from_n, w_from_u)
from .matching import MatchingPath, closed_rate, gamma_of_a, integrate_a
from .pde import (SlopeFit, SmallTimeReport, SolverConfig, Trajectory,
                  WTrajectory, l1_to_one, ordered_pair_test, slope_origin,
                  slope_origin_info, small_time_checks, solve, solve_w,
                  steady_profile)
from .specialfn import (AsymptoticsReport, CumulativeIntegral, OperatorInverse,
                        PhiBlend, SpecialFunctions, SpecialTable,
                        apply_operator, build_component, build_partition,
                        check_asymptotics, quintic_cutoff,
                        smoothstep_cutoff, w0)

__version__ = "0.1.0"
