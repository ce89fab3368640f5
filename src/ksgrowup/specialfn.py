"""Second-order ODE operator in the inner variable and its special functions.

The operator

    L w := y w'' + 2 y w' / (1 + y) + 2 w / (1 + y)^2

annihilates w0(y) = y / (1+y)^2 (the slope of the quasi-steady profile
family), and for sources psi with psi(y) = O(y) near 0 the problem
L w = psi, w(0) = w'(0) = 0 has the explicit solution

    w(y) = w0(y) * int_0^y ((t+1)/t)^2 int_0^t psi(s) ds dt.

Everything downstream (the barrier corrections f, g, h and the blend phi)
is built from this inverse.  Derivatives are never obtained by differencing
tables: with G(y) = int_0^y psi, the exact identity

    w'  = (1/y - 2/(y+1)) w + G/y

holds for w = w0 * (C + F) with any constant C, because w0' = (1/y - 2/(y+1)) w0.

Quadrature: each cumulative integral keeps its integrand at the GL_ORDER
Gauss-Legendre points of every panel of a log-spaced partition with a
linear patch near 0.  Node values sum the panel quadratures from 0; between
nodes, the panel's polynomial interpolant of the integrand is integrated
from the panel's left node (spectral integration, as Chebfun's cumsum), so
a query never calls the integrand again and the nested integrals
g -> tilde_f -> f -> F -> G cost O(GL_ORDER) per point.  The factor
((t+1)/t)^2 is singular, but its product with the inner integral (= O(t^2))
is bounded and smooth; Gauss points never touch t = 0, so no digits are lost
at the 1/t^2 factor.

A run's special-function table is one object, SpecialFunctions: it builds
one partition, puts the inverses behind f, g and h on it, and evaluates
every column through one panel lookup of that partition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.polynomial  # numpy loads it lazily; here, not in a run's first build

from .errors import (ConstructionError, InfeasibleError, RangeError,
                     SingularInputError)
from .grids import check_per_decade, sorted_unique

GL_ORDER = 10   # Gauss-Legendre points per panel, for every integral here
_LIN_EDGE, _LIN_N = 1e-6, 8   # linear patch of the partition: [0, 1e-6], 8 panels


def w0(y):
    y = np.asarray(y, dtype=float)
    return y / (1.0 + y) ** 2


def build_partition(y_max: float, npd: int = 40) -> np.ndarray:
    """Quadrature/tabulation nodes: linear patch on [0, 1e-6], then
    log-spaced with npd nodes per decade through the first lattice node at
    or above y_max, plus the blend knots {1, 2} and a denser patch on
    [1, 4].  The nodes do not depend on y_max, only where they stop, so a
    smaller y_max gives a prefix of the partition."""
    if y_max < 10.0:
        raise ConstructionError(f"y_max must be >= 10, got {y_max}")
    check_per_decade("npd", npd)
    k_hi = int(math.ceil(math.log10(y_max) * npd))
    logs = 10.0 ** (np.arange(round(math.log10(_LIN_EDGE) * npd), k_hi + 2) / npd)
    logs = logs[:np.searchsorted(logs, y_max) + 1]
    lin = np.linspace(0.0, _LIN_EDGE, _LIN_N + 1)
    # extra density around the blend join at y = 2, where the tail 1/log(y)
    # has its largest higher derivatives
    join_patch = np.geomspace(1.0, 4.0, 97)
    return sorted_unique(np.concatenate([lin, logs, [1.0, PhiBlend.join], join_patch]))


@functools.cache
def _gauss_legendre():
    """Gauss points x_m, weights w_m and P_k(x_m) (row k), computed on first
    use rather than at import (numpy's eigensolver behind them costs memory
    that runs without special functions need not pay)."""
    xg, wg = np.polynomial.legendre.leggauss(GL_ORDER)
    return xg, wg, np.polynomial.legendre.legvander(xg, GL_ORDER - 1).T


class PanelLookup(NamedTuple):
    """Query points, the panel holding each, and its integration weights."""

    y: np.ndarray
    k: np.ndarray       # panel index of each point (flattened)
    c: np.ndarray       # (GL_ORDER, n): int from the left node of the Lagrange basis


def locate(nodes: np.ndarray, y) -> PanelLookup:
    """Find the panel of each y and the weights c_m = int_{-1}^{s} l_m, with
    s in [-1, 1] the point's panel coordinate and l_m the Lagrange basis on
    the Gauss points.  Expanding l_m in Legendre polynomials,

        c_m(s) = w_m / 2 * [s + 1 + sum_k P_k(x_m) (P_{k+1} - P_{k-1})(s)],

    which is exactly 0 at s = -1 and exactly w_m at s = 1.  Every sum runs
    elementwise in a fixed order, so a point's weights do not depend on the
    other points of the query."""
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    if np.any(flat < 0.0) or np.any(flat > nodes[-1] * (1 + 1e-12)):
        raise RangeError(
            f"y outside [0, {nodes[-1]:g}]; rebuild the table with larger y_max")
    k = np.clip(np.searchsorted(nodes, flat, side="right") - 1, 0, len(nodes) - 2)
    a = nodes[k]
    s = 2.0 * (flat - a) / (nodes[k + 1] - a) - 1.0
    _, wg, p_at_xg = _gauss_legendre()
    acc = np.broadcast_to(s + 1.0, (GL_ORDER, s.size)).copy()
    p_prev, p = np.ones_like(s), s
    for j in range(1, GL_ORDER):
        p_next = ((2 * j + 1) * s * p - j * p_prev) / (j + 1)
        acc += (p_next - p_prev)[None, :] * p_at_xg[j][:, None]
        p_prev, p = p, p_next
    return PanelLookup(y, k, 0.5 * wg[:, None] * acc)


def _weighted_sum(vals: np.ndarray, c) -> np.ndarray:
    """sum_m vals[:, m] * c[m], term by term in the order of m."""
    acc = vals[:, 0] * c[0]
    for m in range(1, GL_ORDER):
        acc = acc + vals[:, m] * c[m]
    return acc


class CumulativeIntegral:
    """Antiderivative int_0^y fn from fn at the Gauss-Legendre points of each
    panel of a partition.

    fn is called once, at build.  Node values are cached; at other points
    the panel's interpolant of fn is integrated from its left node, so a
    query at a node, the last included, returns at_nodes exactly, and the
    integrals on a prefix of a partition equal those on the whole of it.
    """

    def __init__(self, fn, nodes: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=float)
        a, b = self.nodes[:-1], self.nodes[1:]
        xg, wg, _ = _gauss_legendre()
        self._half = 0.5 * (b - a)
        pts = (0.5 * (a + b))[:, None] + self._half[:, None] * xg[None, :]
        self._vals = np.asarray(fn(pts), dtype=float)
        inc = _weighted_sum(self._vals, wg) * self._half
        self.at_nodes = np.concatenate([[0.0], np.cumsum(inc)])

    def __call__(self, y):
        return self.at(locate(self.nodes, y))

    def at(self, loc: PanelLookup) -> np.ndarray:
        """Values at the points of a lookup on this integral's nodes."""
        k = loc.k
        out = self.at_nodes[k] + self._half[k] * _weighted_sum(self._vals[k], loc.c)
        return out.reshape(loc.y.shape)


def _check_origin_smallness(psi) -> None:
    probes = np.array([1e-10, 1e-8, 1e-6, 1e-4])
    ratios = np.abs(np.asarray(psi(probes), dtype=float)) / probes
    if ratios[-1] == 0.0:
        if ratios[0] > 1e-8:
            raise SingularInputError("psi(y)/y diverges toward 0")
        return
    if ratios[0] > 10.0 * ratios[-1] + 1e-12:
        raise SingularInputError(
            f"psi(y)/y grows toward 0 ({ratios[0]:.2e} vs {ratios[-1]:.2e}); "
            "the double integral does not converge")


def _w_and_slope(y, C: float, F, G):
    """(w, w') at y for w = w0 (C + F), from F and G = int_0^y psi at y."""
    safe = np.where(y == 0.0, 1.0, y)
    w = np.where(y == 0.0, 0.0, w0(y) * (C + F))
    dw = np.where(y == 0.0, C, (1.0 / safe - 2.0 / (safe + 1.0)) * w + G / safe)
    return w, dw


class OperatorInverse:
    """w = L^{-1} psi with w(0) = w'(0) = 0, evaluable on [0, nodes[-1]]
    through pair.  Every build first refuses a psi whose psi(y)/y grows
    toward 0, for which the double integral diverges (SingularInputError).

    ``kernel_coeff`` adds C * w0 to the solution (still solving L w = psi,
    since L w0 = 0); C=1 gives the slope-anchored branch with w'(0) = 1.
    """

    def __init__(self, psi, nodes: np.ndarray, kernel_coeff: float = 0.0):
        _check_origin_smallness(psi)
        self.kernel_coeff = float(kernel_coeff)
        self.nodes = nodes
        self.G = CumulativeIntegral(psi, nodes)
        self.F = CumulativeIntegral(lambda t: (1.0 + 1.0 / t) ** 2 * self.G(t), nodes)

    def pair(self, loc: PanelLookup):
        """(w, w') at the points of a lookup, from one F and one G value."""
        return _w_and_slope(loc.y, self.kernel_coeff, self.F.at(loc), self.G.at(loc))


_LOG2 = math.log(2.0)


class PhiBlend:
    """The weight phi: equal to 1/log(y) for y >= join, C^1-blended to 0.

    On [0, join) a cubic Hermite segment with phi(0) = 0, phi'(0) = slope0
    matches the tail value and derivative at the join, staying positive on
    (0, join).  The tail is fixed; the blend segment is free.
    """

    join = 2.0
    slope0 = 1.0 / (2.0 * _LOG2)

    def _tail_value(self) -> float:
        return 1.0 / math.log(self.join)

    def _tail_slope(self) -> float:
        return -1.0 / (self.join * math.log(self.join) ** 2)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        s = np.clip(y / self.join, 0.0, 1.0)
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        blend = (h10 * self.join * self.slope0 + h01 * self._tail_value()
                 + h11 * self.join * self._tail_slope())
        with np.errstate(divide="ignore"):
            tail = np.where(y > 1.0, 1.0 / np.log(np.maximum(y, 1.0 + 1e-12)), 0.0)
        return np.where(y < self.join, blend, tail)


def smoothstep_cutoff(y):
    """C^1 cutoff: 0 at 0, identically 1 for y >= 1 (cubic smoothstep)."""
    y = np.asarray(y, dtype=float)
    s = np.clip(y, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


class SpecialFunctions:
    """The special-function table: the inverses behind f, g, h on one
    partition y, the amplitude M, and f, g, h anywhere up to y's last node.

    f  solves L f = w0 with f(0) = 0, f'(0) = 1 (kernel-anchored branch,
       f >= w0 >= 0);
    g  = L^{-1} tilde_f, tilde_f = 2 f f' - y f' + f;
    h  = g + M * L^{-1} phi, nonnegative for admissible M.

    M is the smallest multiple of 0.5 that is at least 3 (the sign
    argument needs M >= 3) and makes tilde_f + M phi nonnegative on the
    nodes.  y, built once and shared by the three inverses, ends at the
    first lattice node at or above y_max; eval reads every inverse through
    one panel lookup on it.  The quadrature accumulates from y = 0 on nodes
    that do not depend on y_max, so below a smaller y_max every value
    equals, bit for bit, that of a build to the smaller y_max (h as long as
    both choose the same M).
    """

    phi = PhiBlend()

    def __init__(self, y_max: float, npd: int = 40):
        self.y_max = float(y_max)
        self.npd = npd
        self.y = build_partition(y_max, npd=npd)
        self._f = OperatorInverse(w0, self.y, kernel_coeff=1.0)
        self._g = OperatorInverse(self.tilde_f, self.y)
        self._g4 = OperatorInverse(self.phi, self.y)
        self.M = max(3.0, 0.5 * math.ceil(self.required_m() / 0.5))

    def tilde_f(self, y):
        loc = locate(self.y, y)
        fv, fp = self._f.pair(loc)
        return 2.0 * fv * fp - loc.y * fp + fv

    def required_m(self) -> float:
        """Smallest M with tilde_f + M*phi >= 0 on the node lattice."""
        y = self.y[1:]
        gt = self.tilde_f(y)
        ph = self.phi(y)
        neg = gt < 0.0
        if not np.any(neg):
            return 0.0
        need = float(np.max(-gt[neg] / ph[neg]))
        if need > 1e6:
            raise InfeasibleError(
                "no M <= 1e6 makes tilde_f + M*phi nonnegative; "
                "this indicates a quadrature failure")
        return need

    def eval(self, yq):
        """f, f', g, g', h, h', g4 = L^{-1} phi, g4', phi at yq (dict of
        arrays), from one panel lookup shared by every column; at a node,
        the cumulative node sums."""
        loc = locate(self.y, yq)
        f, fp = self._f.pair(loc)
        g, gp = self._g.pair(loc)
        q, qp = self._g4.pair(loc)
        return {"f": f, "f_prime": fp, "g": g, "g_prime": gp,
                "h": g + self.M * q, "h_prime": gp + self.M * qp,
                "g4": q, "g4_prime": qp, "phi": self.phi(loc.y)}


SpecialTable = SpecialFunctions   # a second name, which perfbench's tracer resolves


def build_component(i: int, nodes: np.ndarray) -> OperatorInverse:
    """The auxiliary inverses behind the g/h asymptotics, on the partition nodes:

    1: L^{-1} log(1+y); 2: L^{-1} of a C^1 cutoff (=1 for y >= 1);
    3: L^{-1} log^2(1+y)/(1+y).  The fourth, L^{-1} phi, is the table's g4.
    """
    if i == 1:
        psi = lambda y: np.log1p(np.asarray(y, dtype=float))
    elif i == 2:
        psi = smoothstep_cutoff
    elif i == 3:
        psi = lambda y: np.log1p(np.asarray(y, dtype=float)) ** 2 / (1.0 + np.asarray(y, dtype=float))
    else:
        raise ConstructionError(f"component index must be 1..3, got {i}")
    return OperatorInverse(psi, nodes)


# ---------------------------------------------------------------------------
# asymptotics validation


@dataclass
class AsymptoticsReport:
    """Deviation ratios sup |actual - leading| / |O-term| per claim and range.
    Evidence only: cli.asymptotics_gate decides whether a ratio grew."""

    y_maxes: tuple
    ratios: dict           # claim name -> list of sup-ratios, one per y_max
    spot_checks: dict      # named absolute deviations at the largest y_max


_CLAIMS = {
    "f":   (lambda y: np.log(y) - 2.0,                lambda y: np.log(y) ** 2 / y),
    "f'":  (lambda y: 1.0 / y,                        lambda y: np.log(y) ** 2 / y ** 2),
    "g":   (lambda y: y * np.log(y) / 2 - 2.25 * y,   lambda y: np.log(y) ** 3),
    "g'":  (lambda y: np.log(y) / 2 - 1.75,           lambda y: np.log(y) ** 3 / y),
    "h":   (lambda y: y * np.log(y) / 2 - 2.25 * y,   lambda y: y / np.log(y)),
    "h'":  (lambda y: np.log(y) / 2 - 1.75,           lambda y: 1.0 / np.log(y)),
    "g1":  (lambda y: y * np.log(y) / 2 - 0.75 * y,   lambda y: np.log(y)),
    "g1'": (lambda y: np.log(y) / 2 - 0.25,           lambda y: np.log(y) / y),
    "g2":  (lambda y: y / 2,                          lambda y: np.ones_like(y)),
    "g2'": (lambda y: 0.5 * np.ones_like(y),          lambda y: 1.0 / y),
    "g3":  (lambda y: np.zeros_like(y),               lambda y: np.log(y) ** 3),
    "g3'": (lambda y: np.zeros_like(y),               lambda y: np.log(y) ** 3 / y),
    "g4":  (lambda y: np.zeros_like(y),               lambda y: y / np.log(y)),
    "g4'": (lambda y: np.zeros_like(y),               lambda y: 1.0 / np.log(y)),
}


def check_asymptotics(table: SpecialFunctions, y_maxes) -> AsymptoticsReport:
    """Sup deviation ratios on [y_max/100, y_max] for each claim, across a
    sweep of y_max (sorted), and two spot deviations at its largest member.

    Every window is read off one table, and components 1-3 are built once,
    on the table's partition up to its first node at or above max(y_maxes),
    bit for bit the partition of a build to max(y_maxes), and read through
    one panel lookup per window.  Values below any y_max do not depend on
    how far the table reaches; a table ending below max(y_maxes) raises.
    """
    y_maxes = tuple(sorted(float(v) for v in y_maxes))
    if y_maxes[0] < 1e4:
        raise ConstructionError("asymptotic window needs y_max >= 1e4")
    top = y_maxes[-1]
    if table.y_max < top:
        raise ConstructionError(
            f"the table ends at y_max = {table.y_max:g}, below the sweep's {top:g}")
    nodes = table.y[:np.searchsorted(table.y, top) + 1]
    comps = {i: build_component(i, nodes) for i in (1, 2, 3)}
    ratios = {name: [] for name in _CLAIMS}
    for ym in y_maxes:
        ys = np.geomspace(ym / 100.0, ym, 200)
        T = table.eval(ys)
        actual = {"f": T["f"], "f'": T["f_prime"], "g": T["g"], "g'": T["g_prime"],
                  "h": T["h"], "h'": T["h_prime"], "g4": T["g4"], "g4'": T["g4_prime"]}
        loc = locate(nodes, ys)
        for i in (1, 2, 3):
            actual[f"g{i}"], actual[f"g{i}'"] = comps[i].pair(loc)
        for name, (lead, oterm) in _CLAIMS.items():
            dev = np.abs(actual[name] - lead(ys)) / np.abs(oterm(ys))
            ratios[name].append(float(np.max(dev)))
    T = table.eval(top)
    spot = {"f_dev_at_ymax": float(abs(T["f"] - (math.log(top) - 2.0))),
            "g_over_y_dev_at_ymax": float(
                abs(T["g"] / top - (math.log(top) / 2.0 - 2.25)))}
    return AsymptoticsReport(y_maxes=y_maxes, ratios=ratios, spot_checks=spot)
