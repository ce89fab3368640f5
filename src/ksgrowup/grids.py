"""Spatial grids, solution snapshots, and the exact variable transformations.

The chain of variables: a radial density rho(r) on the unit disc has
cumulative mass Q(r) = 2*pi*int_0^r s rho(s) ds; in the parabolic variable
x = r^2 this becomes N(x) = Q(sqrt(x)); the normalized unknown is
u(x, t) = N(x, 4t) / (8*pi), and the smoothed radial form is
w(r, t) = 8 u(r^2, 4t) / r^2.  All transforms here are pure functions of
immutable inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DegenerateSlopeError, RangeError

_GEOM_TOL = 1e-12


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

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def geometric_prefix_len(self) -> int:
        """Number of leading cells whose widths grow by grading_ratio."""
        w = self.widths
        k = 1
        while k < len(w) and abs(w[k] / w[k - 1] - self.grading_ratio) <= _GEOM_TOL * max(1.0, self.grading_ratio):
            k += 1
        return k

    @classmethod
    def from_nodes(cls, nodes) -> "GradedGrid":
        nodes = np.asarray(nodes, dtype=float)
        x_min = float(nodes[1])
        ratio = float((nodes[2] - nodes[1]) / nodes[1]) if len(nodes) > 2 else 1.0
        return cls(nodes=nodes, x_min=x_min, grading_ratio=ratio)


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


@dataclass(frozen=True)
class Table1D:
    """A tabulated scalar function (used for Q(r) and N(x))."""

    x: np.ndarray
    values: np.ndarray


def mass_of(rho: RadialField) -> float:
    """Total mass 2*pi*int_0^R s rho(s) ds by composite trapezoid."""
    from scipy.integrate import trapezoid
    r, v = rho.r_nodes, rho.values
    return float(2.0 * np.pi * trapezoid(r * v, r))


def q_from_rho(rho: RadialField) -> Table1D:
    """Cumulative mass Q(r) = 2*pi*int_0^r s rho(s) ds.

    Composite trapezoid on the given nodes with a Richardson consistency
    check against the half-resolution rule; inputs are tabulated fields,
    not callables, so no adaptive refinement is attempted.
    """
    from scipy.integrate import cumulative_trapezoid, trapezoid
    r, v = rho.r_nodes, rho.values
    if np.any(v < 0):
        raise ValueError("density has negative entries")
    integrand = 2.0 * np.pi * r * v
    q = cumulative_trapezoid(integrand, r, initial=0.0)
    if len(r) >= 5:
        q_coarse = trapezoid(integrand[::2], r[::2])
        # refinement shifting the total mass noticeably flags unresolved data
        if abs(q[-1] - q_coarse) > 0.25 * max(abs(q[-1]), 1e-30) + 1e-12:
            warnings.warn("half-resolution trapezoid disagrees; "
                          "density looks unresolved", stacklevel=2)
    if r[0] > 0.0:
        r = np.concatenate([[0.0], r])
        q = np.concatenate([[0.0], q])
    return Table1D(x=r, values=q)


def n_from_q(q: Table1D) -> Table1D:
    """Relabel Q(r) as N(x) with x = r^2, after normalizing the radius to 1."""
    r = q.x
    R = r[-1]
    if R <= 0:
        raise ValueError("radius range must be positive")
    rn = r / R
    return Table1D(x=rn * rn, values=np.asarray(q.values, dtype=float).copy())


def u_from_n(n_table: Table1D, time: float = 0.0) -> Snapshot:
    """u(x, t) = N(x, 4t) / (8 pi); the returned snapshot time is t = (N-time)/4."""
    x = np.asarray(n_table.x, dtype=float)
    vals = np.asarray(n_table.values, dtype=float) / (8.0 * np.pi)
    grid = GradedGrid.from_nodes(x)
    return Snapshot(grid=grid, values=vals, time=time / 4.0,
                    left_bc=float(vals[0]), right_bc=float(vals[-1]))


def n_from_u(snap: Snapshot) -> tuple[Table1D, float]:
    """Inverse of u_from_n; returns the N table and the N-time 4t."""
    return Table1D(x=snap.grid.nodes.copy(), values=8.0 * np.pi * snap.values), 4.0 * snap.time


def origin_slope_extrapolated(snap: Snapshot) -> float:
    """Slope of u at x = 0 by linear extrapolation of u/x to the origin.

    The one-sided ratio at the first node amplifies round-off as
    x_min -> 0; extrapolating the ratio from the two innermost nodes is
    first-order exact on the steady profiles.  Raises DegenerateSlopeError
    when u/x grows toward 0 like a power (u not C^1 at the origin).
    """
    x = snap.grid.nodes
    u = snap.values
    q1 = u[1] / x[1]
    q2 = u[2] / x[2]
    if q1 <= 0.0 and q2 <= 0.0:
        return 0.0
    if q1 > 0.0 and q2 > 0.0:
        beta = np.log(q1 / q2) / np.log(x[2] / x[1])
        if beta > 0.25:
            raise DegenerateSlopeError(
                f"u/x grows like x^-{beta:.2f} toward 0; slope undefined")
    return float(q1 - x[1] * (q2 - q1) / (x[2] - x[1]))


def w_from_u(snap: Snapshot) -> RadialField:
    """Smoothed radial variable w(r) = 8 u(r^2) / r^2 with w(0) = 8 u_x(0)."""
    x = snap.grid.nodes
    u = snap.values
    slope0 = origin_slope_extrapolated(snap)
    r = np.sqrt(x)
    w = np.empty_like(u)
    w[0] = 8.0 * slope0
    w[1:] = 8.0 * u[1:] / x[1:]
    return RadialField(r_nodes=r, values=w, total_mass=8.0 * np.pi * snap.right_bc)


def interp(snap: Snapshot, x):
    """Monotone piecewise-cubic (PCHIP) evaluation of a snapshot.

    Preserves the monotonicity and the [left_bc, right_bc] range of the
    nodal data, which plain cubic splines do not.
    """
    xq = np.asarray(x, dtype=float)
    if np.any(xq < 0.0) or np.any(xq > 1.0):
        raise RangeError("query outside [0, 1]")
    from scipy.interpolate import PchipInterpolator
    p = PchipInterpolator(snap.grid.nodes, snap.values)
    out = p(xq)
    return float(out) if np.isscalar(x) else out
