"""Second-order ODE operator in the inner variable and its special functions.

The operator

    L w := y w'' + 2 y w' / (1 + y) + 2 w / (1 + y)^2

annihilates w0(y) = y / (1+y)^2 (the slope of the quasi-steady profile
family), and for sources psi with psi(y) = O(y) near 0 the problem
L w = psi, w(0) = w'(0) = 0 has the explicit solution

    w(y) = w0(y) * int_0^y ((t+1)/t)^2 int_0^t psi(s) ds dt.

Everything downstream (the barrier corrections f, g, h and the blend phi)
is built from this inverse.  Derivatives are never obtained by differencing
tables: with G(y) = int_0^y psi, the exact identities

    w'  = (1/y - 2/(y+1)) w + G/y
    w'' = (-1/y^2 + 2/(y+1)^2) w + (1/y - 2/(y+1)) w' + (y psi - G)/y^2

hold for w = w0 * (C + F) with any constant C, because w0' = (1/y - 2/(y+1)) w0.

Quadrature: cumulative Gauss-Legendre panels on a log-spaced partition with
a linear patch near 0.  The factor ((t+1)/t)^2 is singular, but its product
with the inner integral (= O(t^2)) is bounded and smooth; open panels never
touch t = 0, so no digits are lost at the 1/t^2 factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AsymptoticsViolation, ConstructionError, InfeasibleError,
                     MTooSmallError, RangeError, SingularInputError)

_EVAL_CHUNK = 200_000
GL_ORDER = 10   # Gauss-Legendre points per panel, for every integral here


def w0(y):
    y = np.asarray(y, dtype=float)
    return y / (1.0 + y) ** 2


def apply_operator(w, wp, wpp, y):
    """L w from sampled values of w, w', w'' at y."""
    y = np.asarray(y, dtype=float)
    return y * wpp + 2.0 * y * wp / (1.0 + y) + 2.0 * w / (1.0 + y) ** 2


def build_partition(y_max: float, npd: int = 40, lin_edge: float = 1e-6,
                    lin_n: int = 8, extra=()) -> np.ndarray:
    """Quadrature/tabulation nodes: linear patch on [0, lin_edge], then
    log-spaced with npd nodes per decade, plus the blend knots {1, 2}."""
    if y_max < 10.0:
        raise ConstructionError(f"y_max must be >= 10, got {y_max}")
    k_hi = int(math.ceil(math.log10(y_max) * npd))
    ks = np.arange(round(math.log10(lin_edge) * npd), k_hi + 1)
    logs = 10.0 ** (ks / npd)
    lin = np.linspace(0.0, lin_edge, lin_n + 1)
    # extra density around the blend join at y = 2, where the tail 1/log(y)
    # has its largest higher derivatives
    join_patch = np.geomspace(1.0, 4.0, 97)
    nodes = np.concatenate([lin, logs, [1.0, 2.0, y_max], join_patch,
                            np.asarray(extra, dtype=float)])
    nodes = np.unique(nodes[(nodes >= 0.0) & (nodes <= y_max)])
    return nodes


class CumulativeIntegral:
    """Antiderivative int_0^y fn, by per-gap Gauss-Legendre on a partition.

    Values at partition nodes are cached; arbitrary points cost one extra
    open panel from the bracketing node, so stencils of nearby points share
    the accumulated base exactly (their differences are panel-accurate).
    """

    def __init__(self, fn, nodes: np.ndarray):
        self.fn = fn
        self.nodes = np.asarray(nodes, dtype=float)
        xg, wg = np.polynomial.legendre.leggauss(GL_ORDER)
        self._xg, self._wg = xg, wg
        a, b = self.nodes[:-1], self.nodes[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * xg[None, :]
        inc = (fn(pts) * wg[None, :]).sum(axis=1) * half
        self.at_nodes = np.concatenate([[0.0], np.cumsum(inc)])

    def __call__(self, y):
        y_in = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y_in).ravel()
        if flat.size > _EVAL_CHUNK:
            out = np.concatenate([self._eval(flat[i:i + _EVAL_CHUNK])
                                  for i in range(0, flat.size, _EVAL_CHUNK)])
        else:
            out = self._eval(flat)
        return float(out[0]) if y_in.ndim == 0 else out.reshape(y_in.shape)

    def _eval(self, y: np.ndarray) -> np.ndarray:
        if np.any(y < 0.0) or np.any(y > self.nodes[-1] * (1 + 1e-12)):
            raise RangeError("query outside the tabulated range")
        k = np.clip(np.searchsorted(self.nodes, y, side="right") - 1,
                    0, len(self.nodes) - 2)
        a = self.nodes[k]
        half = 0.5 * (y - a)
        mid = 0.5 * (y + a)
        live = half > 0.0
        pts = mid[:, None] + half[:, None] * self._xg[None, :]
        pts[~live, :] = 1.0  # dummy points; their contribution is zeroed
        inc = (self.fn(pts) * self._wg[None, :]).sum(axis=1) * half
        return self.at_nodes[k] + np.where(live, inc, 0.0)


def _check_origin_smallness(psi, name: str = "psi") -> None:
    probes = np.array([1e-10, 1e-8, 1e-6, 1e-4])
    ratios = np.abs(np.asarray(psi(probes), dtype=float)) / probes
    if ratios[-1] == 0.0:
        if ratios[0] > 1e-8:
            raise SingularInputError(f"{name}(y)/y diverges toward 0")
        return
    if ratios[0] > 10.0 * ratios[-1] + 1e-12:
        raise SingularInputError(
            f"{name}(y)/y grows toward 0 ({ratios[0]:.2e} vs {ratios[-1]:.2e}); "
            "the double integral does not converge")


class OperatorInverse:
    """w = L^{-1} psi with w(0) = w'(0) = 0, evaluable anywhere in [0, y_max].

    ``kernel_coeff`` adds C * w0 to the solution (still solving L w = psi,
    since L w0 = 0); C=1 gives the slope-anchored branch with w'(0) = 1.
    """

    def __init__(self, psi, y_max: float, npd: int = 40, extra_nodes=(),
                 kernel_coeff: float = 0.0, check_origin: bool = True):
        if check_origin:
            _check_origin_smallness(psi)
        self.psi = psi
        self.y_max = float(y_max)
        self.kernel_coeff = float(kernel_coeff)
        self.nodes = build_partition(y_max, npd=npd, extra=extra_nodes)
        self.G = CumulativeIntegral(psi, self.nodes)

        def outer_integrand(t):
            t = np.asarray(t, dtype=float)
            return (1.0 + 1.0 / t) ** 2 * self.G(t)

        self.F = CumulativeIntegral(outer_integrand, self.nodes)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = w0(y) * (self.kernel_coeff + self.F(y))
        return np.where(y == 0.0, 0.0, out)

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        safe = np.where(y == 0.0, 1.0, y)
        c = 1.0 / safe - 2.0 / (safe + 1.0)
        out = c * self.value(y) + self.G(y) / safe
        return np.where(y == 0.0, self.kernel_coeff, out)

    def deriv2(self, y):
        y = np.asarray(y, dtype=float)
        safe = np.where(y == 0.0, 1.0, y)
        c = 1.0 / safe - 2.0 / (safe + 1.0)
        cp = -1.0 / safe ** 2 + 2.0 / (safe + 1.0) ** 2
        out = (cp * self.value(y) + c * self.deriv(y)
               + (safe * self.psi(y) - self.G(y)) / safe ** 2)
        # limit at 0: psi'(0) from the inverse branch, -4 from the kernel
        at0 = self._psi_slope0() - 4.0 * self.kernel_coeff
        return np.where(y == 0.0, at0, out)

    def _psi_slope0(self) -> float:
        d = 1e-9
        return float(np.asarray(self.psi(np.array([d])), dtype=float)[0] / d)

    def values_at_nodes(self):
        """(w, w', w'') at the partition nodes, from the cached cumulatives."""
        y = self.nodes
        safe = np.where(y == 0.0, 1.0, y)
        c = 1.0 / safe - 2.0 / (safe + 1.0)
        cp = -1.0 / safe ** 2 + 2.0 / (safe + 1.0) ** 2
        G = self.G.at_nodes
        v = np.where(y == 0.0, 0.0, w0(y) * (self.kernel_coeff + self.F.at_nodes))
        dv = np.where(y == 0.0, self.kernel_coeff, c * v + G / safe)
        ddv = np.where(y == 0.0, self._psi_slope0() - 4.0 * self.kernel_coeff,
                       cp * v + c * dv + (safe * self.psi(y) - G) / safe ** 2)
        return v, dv, ddv


_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class PhiBlend:
    """The weight phi: equal to 1/log(y) for y >= join, C^1-blended to 0.

    On [0, join) a cubic Hermite segment with phi(0) = 0, phi'(0) = slope0
    matches the tail value and derivative at the join, staying positive on
    (0, join).  The tail is fixed; only the blend segment is adjustable.
    """

    join: float = 2.0
    slope0: float = field(default=1.0 / (2.0 * _LOG2))

    def __post_init__(self):
        if self.join < 2.0:
            raise ConstructionError("join must be >= 2 (tail needs log y > 0)")
        if self.slope0 <= 0.0:
            raise ConstructionError("slope0 must be positive")

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

    def deriv(self, y):
        y = np.asarray(y, dtype=float)
        s = np.clip(y / self.join, 0.0, 1.0)
        dh10 = (1.0 - s) * (1.0 - 3.0 * s)
        dh01 = 6.0 * s * (1.0 - s)
        dh11 = s * (3.0 * s - 2.0)
        blend = (dh10 * self.slope0 + dh01 * self._tail_value() / self.join
                 + dh11 * self._tail_slope())
        with np.errstate(divide="ignore"):
            tail = np.where(y > 1.0, -1.0 / (y * np.log(np.maximum(y, 1.0 + 1e-12)) ** 2), 0.0)
        return np.where(y < self.join, blend, tail)


def smoothstep_cutoff(y):
    """C^1 cutoff: 0 at 0, identically 1 for y >= 1 (cubic smoothstep)."""
    y = np.asarray(y, dtype=float)
    s = np.clip(y, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def quintic_cutoff(y):
    """Alternative C^2 cutoff for blend-sensitivity sweeps."""
    y = np.asarray(y, dtype=float)
    s = np.clip(y, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)


def _hermite(xq, xt, v, d):
    """Cubic Hermite evaluation of (xt, v, d=dv/dx) tables at xq."""
    xq = np.asarray(xq, dtype=float)
    k = np.clip(np.searchsorted(xt, xq, side="right") - 1, 0, len(xt) - 2)
    h = xt[k + 1] - xt[k]
    s = (xq - xt[k]) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * v[k] + h10 * h * d[k] + h01 * v[k + 1] + h11 * h * d[k + 1]


@dataclass(frozen=True)
class SpecialTable:
    """Tabulated f, g, h (values and derivatives) on log-spaced nodes.

    Second-derivative columns come from the analytic identities and exist
    only to interpolate the first derivatives between nodes; they are not
    serialized.
    """

    y: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    tilde_f: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    M: float
    y_max: float
    phi: PhiBlend
    f_pp: np.ndarray
    g_pp: np.ndarray
    h_pp: np.ndarray

    def _val(self, yq, v, d):
        return _hermite(yq, self.y, v, d)

    def eval(self, yq):
        """Interpolated f, f', g, g', h, h', phi at yq (dict of arrays)."""
        yq = np.asarray(yq, dtype=float)
        if np.any(yq < 0.0) or np.any(yq > self.y_max * (1 + 1e-12)):
            raise RangeError(
                f"y outside [0, {self.y_max:g}]; rebuild the table with larger y_max")
        return {
            "f": self._val(yq, self.f, self.f_prime),
            "f_prime": self._val(yq, self.f_prime, self.f_pp),
            "g": self._val(yq, self.g, self.g_prime),
            "g_prime": self._val(yq, self.g_prime, self.g_pp),
            "h": self._val(yq, self.h, self.h_prime),
            "h_prime": self._val(yq, self.h_prime, self.h_pp),
            "phi": self.phi(yq),
        }


class SpecialFunctions:
    """Exact (quadrature-grade) evaluators for f, tilde_f, g, h and phi.

    f  solves L f = w0 with f(0) = 0, f'(0) = 1 (kernel-anchored branch,
       f >= w0 >= 0);
    g  = L^{-1}(2 f f' - y f' + f);
    h  = g + M * L^{-1} phi, nonnegative for admissible M.

    Slow but pointwise accurate; use .table() for bulk evaluation.  The
    quadrature accumulates from y = 0 on nodes that do not depend on y_max,
    so below a smaller y_max every value equals, bit for bit, that of a
    build to the smaller y_max (h as long as both choose the same M).
    """

    def __init__(self, y_max: float, M: float | None = None,
                 phi: PhiBlend | None = None, npd: int = 40,
                 extra_nodes=(), strict_m: bool = True):
        self.y_max = float(y_max)
        self.npd = npd
        self.phi = phi if phi is not None else PhiBlend()
        self._f = OperatorInverse(w0, y_max, npd=npd, extra_nodes=extra_nodes,
                                  kernel_coeff=1.0)
        self._g = OperatorInverse(self.tilde_f, y_max, npd=npd,
                                  extra_nodes=extra_nodes, check_origin=False)
        self._g4 = OperatorInverse(self.phi, y_max, npd=npd,
                                   extra_nodes=extra_nodes, check_origin=False)
        raw = self.required_m()
        self.required_m_raw = raw
        if M is None:
            M = max(3.0, 0.5 * math.ceil(raw / 0.5))
        if strict_m:
            if M < 3.0:
                raise MTooSmallError(
                    f"M = {M} < 3; the sign argument needs M >= 3")
            if M < raw - 1e-9:
                raise MTooSmallError(
                    f"M = {M} leaves tilde_f + M*phi negative (need >= {raw:.3f})")
        self.M = float(M)

    # -- pointwise evaluators -------------------------------------------
    def f(self, y):
        return self._f.value(y)

    def f_prime(self, y):
        return self._f.deriv(y)

    def f_pp(self, y):
        return self._f.deriv2(y)

    def tilde_f(self, y):
        y = np.asarray(y, dtype=float)
        fv, fp = self._f.value(y), self._f.deriv(y)
        return 2.0 * fv * fp - y * fp + fv

    def g(self, y):
        return self._g.value(y)

    def g_prime(self, y):
        return self._g.deriv(y)

    def h(self, y):
        return self._g.value(y) + self.M * self._g4.value(y)

    def h_prime(self, y):
        return self._g.deriv(y) + self.M * self._g4.deriv(y)

    def g4(self, y):
        return self._g4.value(y)

    def g4_prime(self, y):
        return self._g4.deriv(y)

    def required_m(self, phi_scale: float = 1.0) -> float:
        """Smallest M with tilde_f + M*phi_scale*phi >= 0 on the node lattice."""
        y = self._f.nodes[1:]
        gt = self.tilde_f(y)
        ph = phi_scale * self.phi(y)
        neg = gt < 0.0
        if not np.any(neg):
            return 0.0
        need = float(np.max(-gt[neg] / ph[neg]))
        if need > 1e6:
            raise InfeasibleError(
                "no M <= 1e6 makes tilde_f + M*phi nonnegative; "
                "this indicates a quadrature failure")
        return need

    def table(self) -> SpecialTable:
        """Tabulate all functions at the partition nodes (no interpolation)."""
        y = self._f.nodes
        fv, fp, fpp = self._f.values_at_nodes()
        gv, gp, gpp = self._g.values_at_nodes()
        qv, qp, qpp = self._g4.values_at_nodes()
        hv = gv + self.M * qv
        hp = gp + self.M * qp
        hpp = gpp + self.M * qpp
        gt = 2.0 * fv * fp - y * fp + fv
        return SpecialTable(y=y, f=fv, f_prime=fp, tilde_f=gt,
                            g=gv, g_prime=gp, h=hv, h_prime=hp,
                            M=self.M, y_max=self.y_max, phi=self.phi,
                            f_pp=fpp, g_pp=gpp, h_pp=hpp)


def build_component(i: int, y_max: float, npd: int = 40,
                    phi: PhiBlend | None = None, cutoff=smoothstep_cutoff) -> OperatorInverse:
    """The four auxiliary inverses behind the g/h asymptotics:

    1: L^{-1} log(1+y); 2: L^{-1} of a C^1 cutoff (=1 for y >= 1);
    3: L^{-1} log^2(1+y)/(1+y); 4: L^{-1} phi.
    """
    if i == 1:
        psi = lambda y: np.log1p(np.asarray(y, dtype=float))
    elif i == 2:
        psi = cutoff
    elif i == 3:
        psi = lambda y: np.log1p(np.asarray(y, dtype=float)) ** 2 / (1.0 + np.asarray(y, dtype=float))
    elif i == 4:
        psi = phi if phi is not None else PhiBlend()
    else:
        raise ConstructionError(f"component index must be 1..4, got {i}")
    return OperatorInverse(psi, y_max, npd=npd, check_origin=False)


# ---------------------------------------------------------------------------
# asymptotics validation


@dataclass
class AsymptoticsReport:
    """Deviation ratios sup |actual - leading| / |O-term| per claim and range."""

    y_maxes: tuple
    ratios: dict           # claim name -> list of sup-ratios, one per y_max
    spot_checks: dict      # named absolute deviations at the largest y_max
    growth_tol: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


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


def check_asymptotics(y_maxes=(1e4, 1e5, 1e6), growth_tol: float = 1.35,
                      strict: bool = True,
                      funcs: SpecialFunctions | None = None) -> AsymptoticsReport:
    """Sup deviation ratios on [y_max/100, y_max] for each claim, across a
    sweep of y_max; a ratio growing across the sweep raises (strict mode).

    Every window is evaluated on one table, ``funcs`` (by default
    ``SpecialFunctions(max(y_maxes))``), and components 1-3 are built once,
    to max(y_maxes), with its npd and phi.  Values below any y_max do not
    depend on how far the table reaches; a table ending below max(y_maxes)
    raises.
    """
    y_maxes = tuple(sorted(float(v) for v in y_maxes))
    if y_maxes[0] < 1e4:
        raise ConstructionError("asymptotic window needs y_max >= 1e4")
    top = y_maxes[-1]
    if funcs is None:
        funcs = SpecialFunctions(top)
    elif funcs.y_max < top:
        raise ConstructionError(
            f"the table ends at y_max = {funcs.y_max:g}, below the sweep's {top:g}")
    comps = {i: build_component(i, top, npd=funcs.npd, phi=funcs.phi)
             for i in (1, 2, 3)}
    ratios = {name: [] for name in _CLAIMS}
    for ym in y_maxes:
        ys = np.geomspace(ym / 100.0, ym, 200)
        actual = {
            "f": funcs.f(ys), "f'": funcs.f_prime(ys),
            "g": funcs.g(ys), "g'": funcs.g_prime(ys),
            "h": funcs.h(ys), "h'": funcs.h_prime(ys),
            "g1": comps[1].value(ys), "g1'": comps[1].deriv(ys),
            "g2": comps[2].value(ys), "g2'": comps[2].deriv(ys),
            "g3": comps[3].value(ys), "g3'": comps[3].deriv(ys),
            "g4": funcs.g4(ys), "g4'": funcs.g4_prime(ys),
        }
        for name, (lead, oterm) in _CLAIMS.items():
            dev = np.abs(actual[name] - lead(ys)) / np.abs(oterm(ys))
            ratios[name].append(float(np.max(dev)))
    spot = {"f_dev_at_ymax": float(abs(funcs.f(top) - (math.log(top) - 2.0))),
            "g_over_y_dev_at_ymax": float(
                abs(funcs.g(top) / top - (math.log(top) / 2.0 - 2.25)))}
    violations = []
    for name, seq in ratios.items():
        if len(seq) >= 2 and seq[-1] > growth_tol * seq[0] + 1e-9:
            violations.append(f"{name}: ratio grew {seq[0]:.3g} -> {seq[-1]:.3g}")
    report = AsymptoticsReport(y_maxes=y_maxes, ratios=ratios, spot_checks=spot,
                               growth_tol=growth_tol, violations=violations)
    if strict and violations:
        raise AsymptoticsViolation("; ".join(violations))
    return report
