"""Lower/upper barrier evaluation and floating-point sign certification.

The barriers are perturbations of the quasi-steady profile in the inner
variable y = a(t) x:

    lower:  1 - 1/(y+1) + b f(y) - b^2 g(y)
    upper:  1 - 1/(y+1) + b f(y) - (1+eps) b^2 h(y),   eps = gamma

with a, b, gamma from a MatchingPath and f, g, h from a SpecialFunctions table.
Applying the parabolic operator P v = v_t - x v_xx - 2 v v_x and using
L f = w0, L g = tilde_f, L h = tilde_f + M phi collapses the residual to
a * b^2 * A (lower) resp. a * b^2 * B (upper), with only first derivatives
of the tabulated functions:

    A = -gamma f + b [2 f' g + 2 f g' - y g' + 2(1+gamma) g] - 2 b^2 g g'
    B = gamma (2 f f' - y f') + M (1+eps) phi - (gamma'/a) h
        + (1+eps) b [2 f' h + 2 f h' - y h' + 2(1+gamma) h]
        - 2 (1+eps)^2 b^2 h h'

Certification is a dense scan, not a proof: the reported thresholds are
empirical onsets and carry no claim of matching any analytic constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, OrderingFailureError, RangeError
from .grids import Snapshot, check_per_decade, sorted_unique
from .matching import MatchingPath
from .specialfn import SpecialFunctions

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BarrierSpec:
    """One barrier: which side, which path (K), which function table."""

    kind: str
    path: MatchingPath
    table: SpecialFunctions

    def __post_init__(self):
        if self.kind not in (LOWER, UPPER):
            raise ConstructionError(f"kind must be '{LOWER}' or '{UPPER}'")


def _at_times(path, t):
    """(a, b, gamma, gamma') of the path at t (one time, or one per point),
    from one inversion of t(log a) per distinct time."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return path.closed_forms_at(t)
    # with return_inverse, np.unique skips its numpy.ma check (sorted_unique)
    times, where = np.unique(t, return_inverse=True)
    return [q[where] for q in path.closed_forms_at(times)]


def eval_barrier(spec: BarrierSpec, x, t):
    """Barrier value and x-slope at (x, t); x may be an array, and t one time
    or an array of times matching x.  A point gets the same bits either way.

    Raises RangeError when y = a(t) x exceeds the table range (rebuild the
    table with a larger y_max).
    """
    x = np.asarray(x, dtype=float)
    a, b, eps, _ = _at_times(spec.path, t)
    y = a * x
    return _value_and_slope(spec, y, a, b, eps, spec.table.eval(y))


def _value_and_slope(spec: BarrierSpec, y, a, b, eps, T):
    """Barrier value and x-slope at inner points y, from the table columns T
    at y and the path's (a, b, gamma) there."""
    c, q = (b * b, "g") if spec.kind == LOWER else ((1.0 + eps) * b * b, "h")
    base = y / (y + 1.0)    # one rounding; 1 - 1/(y+1) cancels for small y
    dbase = 1.0 / (y + 1.0) ** 2
    return (base + b * T["f"] - c * T[q],
            a * (dbase + b * T["f_prime"] - c * T[q + "_prime"]))


def residual_reduced(spec: BarrierSpec, y, t, T=None, forms=None):
    """The grouped residual factor A (lower) or B (upper) at inner points y,
    at one time t or at an array of times matching y; T and forms, when given,
    hold the table columns at y and the path's (a, b, gamma, gamma') at t.

    The full parabolic residual is a(t) * b(t)^2 times this value.
    """
    y = np.asarray(y, dtype=float)
    a, b, gam, gamp = _at_times(spec.path, t) if forms is None else forms
    T = spec.table.eval(y) if T is None else T
    f, fp = T["f"], T["f_prime"]
    if spec.kind == LOWER:
        g, gp = T["g"], T["g_prime"]
        bracket = 2.0 * fp * g + 2.0 * f * gp - y * gp + 2.0 * (1.0 + gam) * g
        return -gam * f + b * bracket - 2.0 * b * b * g * gp
    eps = gam
    h, hp = T["h"], T["h_prime"]
    bracket = 2.0 * fp * h + 2.0 * f * hp - y * hp + 2.0 * (1.0 + gam) * h
    return (gam * (2.0 * f * fp - y * fp) + spec.table.M * (1.0 + eps) * T["phi"]
            - (gamp / a) * h
            + (1.0 + eps) * b * bracket
            - 2.0 * (1.0 + eps) ** 2 * b * b * h * hp)


# ---------------------------------------------------------------------------
# certification scans


@dataclass
class ResidualReport:
    """Result of a sign scan of A (lower) / B (upper) on a lattice of times.

    threshold_T is None when the sign fails at the lattice's last time, so
    the sign is certified exactly when it is a time.  slope_ok (lower
    barrier only, else None): whether the barrier's x-slope is positive at
    every scanned point and x = 0, at the lattice times from threshold_T on
    (at every lattice time when the sign never certifies)."""

    kind: str
    K: float
    M: float
    x_range: tuple
    t_range: tuple
    threshold_T: float | None
    worst_value: float
    worst_location: tuple   # (x, t)
    slope_ok: bool | None


def time_lattice(t_lo: float, t_hi: float, n_t: int, t_reach: float) -> np.ndarray:
    """geomspace(t_lo, t_hi, n_t), continued at its ratio until it passes
    t_reach: the one lattice of times on which certify checks a barrier."""
    if not 0.0 < t_lo < t_hi or n_t < 2:
        raise RangeError("a time lattice needs 0 < t_lo < t_hi and n_t >= 2")
    step = np.log(t_hi / t_lo) / (n_t - 1)
    n_more = max(0, int(np.floor(np.log(t_reach / t_hi) / step)) + 1)
    return np.concatenate([np.geomspace(t_lo, t_hi, n_t),
                           t_hi * np.exp(step * np.arange(1, n_more + 1))])


# Points per call of a batched scan.  A SpecialFunctions.eval call costs about
# 0.15 ms for one point and 1.2 ms for 4096 (2-core Xeon); batches this small
# leave a default run's peak memory unchanged (unbounded ones add about 4 MB).
_BATCH_POINTS = 4096


def _batched(fn, xs, ts) -> list[np.ndarray]:
    """fn(x, t) of each block of points xs[j] at ts[j] (times or indices), in
    calls of at most _BATCH_POINTS points that keep each block whole."""
    sizes = np.array([len(x) for x in xs])
    ts = np.asarray(ts)
    out = []
    j = 0
    while j < len(xs):
        fit = np.searchsorted(np.cumsum(sizes[j:]), _BATCH_POINTS, side="right")
        k = j + max(1, int(fit))
        vals = fn(np.concatenate(xs[j:k]), np.repeat(ts[j:k], sizes[j:k]))
        out += np.split(vals, np.cumsum(sizes[j:k])[:-1])
        j = k
    return out


def _scan_grid(a: float, per_decade: int) -> np.ndarray:
    """The scan of one time: 8 linear points up to y_floor, the lattice
    points 10**(k/per_decade) strictly inside (y_floor, a), and y = a.  The
    lattice does not depend on a, so a point has the same bits at every
    time that scans it."""
    check_per_decade("y_resolution", per_decade)
    y_floor = min(1e-6, a * 1e-9)
    k = np.arange(np.floor(np.log10(y_floor) * per_decade),
                  np.ceil(np.log10(a) * per_decade) + 1.0)
    ys = 10.0 ** (k / per_decade)
    return np.concatenate([np.linspace(y_floor / 8.0, y_floor, 8),
                           ys[(ys > y_floor) & (ys < a)], [a]])


# a scanned residual counts as of the required sign up to this round-off
_SIGN_TOL = 1e-11


def certify_sign(spec: BarrierSpec, ts, y_resolution: int) -> ResidualReport:
    """Scan the required residual sign over y in (0, a(t)] at the lattice
    times ts, and for the lower barrier its x-slope (see ResidualReport).

    The scan skips y = 0, where both A and B vanish identically by the
    anchoring f(0) = g(0) = h(0) = phi(0) = 0 (asserted in the test suite).
    threshold_T is the first lattice time from which the sign holds at all
    later lattice times.  The table (on the union of the scans, and y = 0 for
    the slope) and the path (at ts) are evaluated once; a point's values do
    not depend on the other points, so each residual has a per-time call's bits.
    """
    ts = np.asarray(ts, dtype=float)
    forms = spec.path.closed_forms_at(ts)
    a = forms[0]
    ys = [_scan_grid(float(aj), y_resolution) for aj in a]
    union = sorted_unique(np.concatenate([[0.0], *ys]))
    table = spec.table.eval(union)

    def columns(y):
        i = np.searchsorted(union, y)
        return {key: col[i] for key, col in table.items()}

    rows = np.arange(len(ts))
    ok = np.zeros(len(ts), dtype=bool)
    worst = []
    for j, vals in enumerate(_batched(
            lambda y, j: residual_reduced(spec, y, ts[j], columns(y),
                                          forms=[q[j] for q in forms]), ys, rows)):
        if spec.kind == LOWER:
            i = int(np.argmax(vals))
            ok[j] = vals[i] <= _SIGN_TOL
        else:
            i = int(np.argmin(vals))
            ok[j] = vals[i] >= -_SIGN_TOL
        worst.append((float(vals[i]), float(ys[j][i] / a[j]), float(ts[j])))

    j0 = next((j for j in range(len(ts)) if np.all(ok[j:])), None)
    start = 0 if j0 is None else j0
    pick = max if spec.kind == LOWER else min
    wv, wx, wt = pick(worst[start:], key=lambda r: r[0])
    slope_ok = None
    if spec.kind == LOWER:
        def slope(y, j):
            a_t, b_t, eps_t, _ = (q[j] for q in forms)
            return _value_and_slope(spec, y, a_t, b_t, eps_t, columns(y))[1]
        y0 = [np.concatenate([[0.0], y]) for y in ys[start:]]
        slope_ok = all(np.all(s > 0.0) for s in _batched(slope, y0, rows[start:]))
    return ResidualReport(kind=spec.kind, K=spec.path.K, M=spec.table.M,
                          x_range=(0.0, 1.0), t_range=(float(ts[0]), float(ts[-1])),
                          threshold_T=None if j0 is None else float(ts[j0]),
                          worst_value=wv, worst_location=(wx, wt),
                          slope_ok=slope_ok)


@dataclass
class BoundaryReport:
    """Matching of the barrier against the fixed boundary value at x = 1:
    onset_t is the time from which it holds to the lattice's end, None when
    it fails there."""

    kind: str
    K: float
    onset_t: float | None


def boundary_margin(spec: BarrierSpec, t) -> np.ndarray:
    """Signed margin of the x = 1 matching inequality, scaled by (a+1).

    lower: requires b f(a) - b^2 g(a) < 1/(a+1)         (value at 1 below 1)
    upper: requires b (f(a) - b (1+eps) h(a)) >= 1/(a+1) (value at 1 >= 1)
    Positive margin means the inequality holds.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a, b, eps, _ = spec.path.closed_forms_at(t)
    T = spec.table.eval(a)
    if spec.kind == LOWER:
        m = 1.0 / (a + 1.0) - (b * T["f"] - b * b * T["g"])
    else:
        m = b * (T["f"] - b * (1.0 + eps) * T["h"]) - 1.0 / (a + 1.0)
    return m * (a + 1.0)


def check_boundary_matching(spec: BarrierSpec, ts) -> BoundaryReport:
    """Find the onset time from which the x = 1 matching inequality holds.

    The onset is the first of the lattice times ts from which the inequality
    holds at every later one, refined between it and the last failing
    lattice time; None when it fails at the last time.  An onset at the
    lattice's first time only bounds the true onset from above."""
    ts = np.asarray(ts, dtype=float)
    margins = boundary_margin(spec, ts)
    j0 = next((j for j in range(len(ts)) if np.all(margins[j:] > 0.0)), None)
    onset = None if j0 is None else float(ts[j0])
    if j0:
        # refine between the last failing and first passing lattice time: a
        # round evaluates the 31 inner points of 32 equal sections in one call
        # and keeps the first passing point after the last failing one, so 8
        # rounds shrink the bracket by 2^40, as 40 bisection steps would
        lo, hi = float(ts[j0 - 1]), onset
        frac = np.arange(1, 32) / 32.0
        for _ in range(8):
            pts = np.concatenate([[lo], lo + (hi - lo) * frac, [hi]])
            failing = np.flatnonzero(boundary_margin(spec, pts[1:-1]) <= 0.0)
            j = failing[-1] + 1 if failing.size else 0
            lo, hi = float(pts[j]), float(pts[j + 1])
        onset = hi
    return BoundaryReport(kind=spec.kind, K=spec.path.K, onset_t=onset)


# ---------------------------------------------------------------------------
# time shifts against a computed trajectory


@dataclass
class ShiftReport:
    T1: float
    T2: float
    slack: float
    lower_onset: float      # barrier times below this are uncertified
    upper_onset: float
    n_times_lower: int
    n_times_upper: int
    max_t_lower: float | None     # latest barrier time compared, None if none
    max_t_upper: float | None
    worst_lower: float      # max of (barrier - u); <= slack when ordered
    worst_upper: float      # max of (u - barrier); <= slack when ordered


def _lower_violation(spec: BarrierSpec, snaps: list[Snapshot], T1: float,
                     onset: float = 0.0) -> float:
    used = [s for s in snaps if s.time - T1 >= onset]
    values = _batched(lambda x, t: eval_barrier(spec, x, t)[0],
                      [s.grid.nodes for s in used], [s.time - T1 for s in used])
    return max((float(np.max(v - s.values)) for v, s in zip(values, used)),
               default=-np.inf)


def _upper_violation(spec: BarrierSpec, snaps: list[Snapshot], T2: float,
                     t_min: float) -> float:
    used = [s for s in snaps if s.time >= t_min]
    values = _batched(lambda x, t: eval_barrier(spec, x, t)[0],
                      [s.grid.nodes for s in used], [s.time + T2 for s in used])
    return max((float(np.max(s.values - v)) for v, s in zip(values, used)),
               default=-np.inf)


def check_shift_lattice(lattice: float) -> None:
    """Refuse a shift lattice <= 0, on which the coarse search never moves."""
    if not lattice > 0.0:
        raise ConstructionError(f"the shift lattice must be > 0, got {lattice}")


def _search_shift(violation, shift_max: float, lattice: float,
                  slack: float, start: float = 0.0) -> tuple[float, float]:
    """Smallest lattice shift with violation <= slack (coarse, then refine),
    and the violation at that shift."""
    check_shift_lattice(lattice)
    v_hi = violation(start)
    if v_hi <= slack:
        return start, v_hi
    lo, hi, probe = start, None, max(lattice, start)
    while probe <= shift_max:
        v = violation(probe)
        if v <= slack:
            hi, v_hi = probe, v
            break
        lo = probe
        probe = max(probe * 2.0, probe + lattice)
    if hi is None:
        raise OrderingFailureError(
            f"no shift <= {shift_max} restores the ordering "
            "(solver or barrier inconsistency)")
    while hi - lo > lattice:
        mid = lattice * round(0.5 * (lo + hi) / lattice)
        if mid in (lo, hi):
            break
        v = violation(mid)
        if v <= slack:
            hi, v_hi = mid, v
        else:
            lo = mid
    return hi, v_hi


def find_time_shifts(lower_spec: BarrierSpec, upper_spec: BarrierSpec,
                     snapshots: list[Snapshot], shift_max: float,
                     lattice: float, slack: float, t_min_upper: float,
                     lower_onset: float | None,
                     upper_onset: float | None) -> ShiftReport:
    """Smallest lattice shifts (T1, T2) ordering the trajectory:

        lower(x, t - T1) <= u(x, t)  whenever t - T1 >= lower_onset,
        u(x, t) <= upper(x, t + T2)  for sampled t >= t_min_upper.

    A barrier only orders against the solution where it is a genuine sub-/
    supersolution, i.e. beyond its certified onset (residual sign and the
    x = 1 matching inequality); comparisons below the onset are excluded,
    which is the time-shift normalization in its discrete form.  The onsets
    are those of certify's boundary-matching scan; None means the matching
    never held there, so no lower time is compared and no upper shift can
    work.  The upper search is additionally seeded so that t + T2 clears
    the upper onset at every compared time (the numeric solution equals the
    boundary value at x = 1 exactly, so no smaller T2 can work).  Raises
    OrderingFailureError when no shift <= shift_max orders the trajectory.
    """
    snaps = sorted(snapshots, key=lambda s: s.time)
    if not snaps:
        raise ConstructionError("no snapshots to order against")
    t_hi = snaps[-1].time
    if lower_spec.path.t_end < t_hi:
        raise RangeError("lower path must cover the trajectory horizon")
    if upper_spec.path.t_end < t_hi + shift_max:
        raise RangeError("upper path must cover t_end + shift_max")
    if upper_onset is None:
        raise OrderingFailureError(
            "the upper boundary matching never holds, so no shift orders the "
            "trajectory below the upper barrier")
    if lower_onset is None:
        lower_onset = np.inf

    T1, worst_lower = _search_shift(
        lambda s: _lower_violation(lower_spec, snaps, s, lower_onset),
        shift_max, lattice, slack)

    start = max(0.0, lattice * np.ceil((upper_onset - t_min_upper) / lattice))
    if start > shift_max:
        raise OrderingFailureError(
            f"the upper onset {upper_onset:.6g} needs a shift of at least "
            f"{start:g} > shift_max = {shift_max:g}")
    T2, worst_upper = _search_shift(
        lambda s: _upper_violation(upper_spec, snaps, s, t_min_upper),
        shift_max, lattice, slack, start=start)

    lower_times = [s.time - T1 for s in snaps if s.time - T1 >= lower_onset]
    upper_times = [s.time + T2 for s in snaps if s.time >= t_min_upper]
    return ShiftReport(
        T1=T1, T2=T2, slack=slack,
        lower_onset=float(lower_onset), upper_onset=float(upper_onset),
        n_times_lower=len(lower_times), n_times_upper=len(upper_times),
        max_t_lower=max(lower_times, default=None),
        max_t_upper=max(upper_times, default=None),
        worst_lower=worst_lower, worst_upper=worst_upper)
