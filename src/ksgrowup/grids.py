"""Spatial grids, solution snapshots, and radial fields.

The unknown u(x, t) is the cumulative mass of a radial density on the unit
disc in the parabolic variable x = r^2, divided by 8*pi (with the clock
t = t_rho / 4); the smoothed radial form is w(r, t) = 8 u(r^2, 4t) / r^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError


@dataclass(frozen=True)
class GradedGrid:
    """Strictly increasing nodes on [0, 1], geometrically refined near 0.

    ``x_min`` is the first interior node (= width of the first cell) and
    ``grading_ratio`` the geometric growth factor of the refined prefix.
    """

    nodes: np.ndarray
    x_min: float
    grading_ratio: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ConstructionError("grid needs at least two nodes")
        if nodes[0] != 0.0 or abs(nodes[-1] - 1.0) > 1e-14:
            raise ConstructionError("grid must span [0, 1] exactly")
        if np.any(np.diff(nodes) <= 0):
            raise ConstructionError("grid nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.nodes)


def make_graded_grid(n: int, x_min: float, grading_ratio: float) -> GradedGrid:
    """Build an n-node grid: geometric cells from x_min, uniform far field.

    Cells start at width x_min and grow by grading_ratio until continuing
    geometrically would overshoot the remaining budget; the rest of [0, 1]
    is filled with equal cells.  Raises ConstructionError when (n, x_min,
    ratio) cannot tile [0, 1].
    """
    if n < 4:
        raise ConstructionError(f"need n >= 4 nodes, got {n}")
    if not (0.0 < x_min < 1.0):
        raise ConstructionError(f"x_min must lie in (0, 1), got {x_min}")
    if grading_ratio < 1.0:
        raise ConstructionError(f"grading_ratio must be >= 1, got {grading_ratio}")
    n_cells = n - 1
    if x_min * n_cells > 1.0 + 1e-12:
        raise ConstructionError(
            f"{n_cells} cells of width >= {x_min} exceed the unit interval")

    widths = [x_min]
    x = x_min
    while len(widths) < n_cells:
        w_next = widths[-1] * grading_ratio
        cells_left = n_cells - len(widths)
        remaining = 1.0 - x
        if w_next * cells_left >= remaining or grading_ratio == 1.0:
            widths.extend([remaining / cells_left] * cells_left)
            break
        widths.append(w_next)
        x += w_next
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    if nodes[-1] <= nodes[-2]:
        raise ConstructionError("grid construction collapsed the last cell")
    nodes[-1] = 1.0
    return GradedGrid(nodes=nodes, x_min=x_min, grading_ratio=grading_ratio)


def sorted_unique(values) -> np.ndarray:
    """np.unique(values) of a 1-D float array without NaN or -0.0, to the
    bit: sorted, the first of each run of equal values kept.  np.unique asks
    numpy.ma whether values are masked, which imports that package into a
    run that uses no masked array."""
    v = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


@dataclass(frozen=True)
class Snapshot:
    """Solution values u on a grid at one time, with its boundary data."""

    grid: GradedGrid
    values: np.ndarray
    time: float
    left_bc: float = 0.0
    right_bc: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if len(v) != self.grid.n:
            raise ConstructionError("values length does not match grid")
        if abs(v[0] - self.left_bc) > 1e-12 or abs(v[-1] - self.right_bc) > 1e-12:
            raise ConstructionError("snapshot endpoints must equal boundary data")
        hi = max(1.0, self.right_bc)
        if v.min() < -1e-9 or v.max() > hi + 1e-9:
            raise ConstructionError(
                f"values escape [0, {hi}] beyond tolerance: "
                f"[{v.min():.3e}, {v.max():.3e}]")

    def is_nondecreasing(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.values) >= -tol))


@dataclass(frozen=True)
class RadialField:
    """Radial profile (a density rho or the smoothed variable w) on [0, R]."""

    r_nodes: np.ndarray
    values: np.ndarray
    total_mass: float = field(default=np.nan)

    def __post_init__(self):
        r = np.asarray(self.r_nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "values", v)
        if len(r) != len(v):
            raise ConstructionError("r_nodes and values must have equal length")
        if np.any(np.diff(r) <= 0):
            raise ConstructionError("r_nodes must be strictly increasing")
