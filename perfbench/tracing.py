"""Spans and counters at ksgrowup's layer boundaries, installed from outside.

The tracer replaces functions and methods of the imported package with
wrappers; the package source is not modified.  Each wrapper counts calls
and, for a span boundary, records ``[name, start, end, parent]`` in memory.
A module-level function is replaced in every ``ksgrowup`` module that holds
it, so ``from x import f`` references are covered as well.

A metric whose boundary is missing (renamed or deleted) or was never
entered on a workload that must enter it reads as *absent*, naming the
boundary, and never as 0.  On a workload that does not reach a layer at
all, its counts and times are a measured 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

P, C, R = "pipeline", "certify", "radial_w"

# boundary (module.attribute under ksgrowup) -> (span name or None, workloads
# that must enter it, measure)
# A measure maps (args, kwargs, result) to amounts added to named counters.
BOUNDARIES = {
    "cli.cmd_tabulate": ("cli.tabulate", {P, C}, None),
    "cli.cmd_match": ("cli.match", {P, C}, None),
    "cli.cmd_certify": ("cli.certify", {P, C}, None),
    "cli._run_critical": ("cli.solve", {P}, None),
    "cli.cmd_solve_from": ("cli.solve", {P}, None),
    "cli.cmd_rate": ("cli.rate", {P}, None),
    "cli.cmd_profile": ("cli.profile", {P}, None),
    "cli.cmd_sandwich": ("cli.sandwich", {P}, None),
    "specialfn.SpecialFunctions.__init__": ("specialfn.build", {P, C}, None),
    "specialfn.OperatorInverse.__init__": ("specialfn.build", {P, C}, None),
    "specialfn.check_asymptotics": ("specialfn.asymptotics", {P, C}, None),
    "specialfn.CumulativeIntegral.__call__": (
        None, {P, C}, lambda a, k, r: (("specialfn.quad_points", np.size(a[1])),)),
    "specialfn.SpecialTable.eval": (
        "specialfn.table_eval", {P, C},
        lambda a, k, r: (("specialfn.table_eval_points", np.size(a[1])),)),
    "matching.integrate_a": (
        "matching.integrate", {P, C},
        lambda a, k, r: (("matching.rk4_steps", len(r.sigma_knots) - 1),)),
    "barriers.certify_sign": ("barriers.certify_sign", {P, C}, None),
    "barriers.residual_reduced": (
        None, {P, C}, lambda a, k, r: (("barriers.residual_points", np.size(a[1])),)),
    "barriers.check_boundary_matching": ("barriers.boundary", {P, C}, None),
    "barriers.boundary_margin": (
        None, {P, C},
        lambda a, k, r: (("barriers.boundary_margin_evals", np.size(a[1])),)),
    "barriers.find_time_shifts": ("barriers.shift_search", {P}, None),
    "barriers._lower_violation": (None, {P}, None),
    "barriers._upper_violation": (None, {P}, None),
    "pde.solve": ("pde.solve", {P}, None),
    "pde.solve_w": ("pde.solve_w", {R}, None),
    "pde._advance": (None, {P, R}, None),
    "pde._step_once": (None, {P, R}, None),
    "pde._UProblem.rhs_and_jac": ("pde.residual_jac", {P}, None),
    "pde._UProblem.newton": (None, {P}, None),
    "pde.solve_banded": ("pde.tridiag", {P, R}, None),
    "serialize.dump_json": ("serialize.write", {P, C}, None),
    "serialize.table_to_csv": ("serialize.write", {P, C}, None),
    "serialize.path_to_csv": ("serialize.write", {P, C}, None),
    "serialize.snapshot_to_csv": ("serialize.write", {P}, None),
}


# metric -> (unit, boundaries it needs, how its value is read):
#   calls      calls into those boundaries, summed
#   amount:X   counter X, added to by a boundary's measure
#   self:X     self time of span X: its duration minus its child spans
#   stage:X    whole duration of span X, outermost spans only
#   per_step   step attempts per accepted step
METRICS = {
    "cli.tabulate_s": ("s", ["cli.cmd_tabulate"], "stage:cli.tabulate"),
    "cli.match_s": ("s", ["cli.cmd_match"], "stage:cli.match"),
    "cli.certify_s": ("s", ["cli.cmd_certify"], "stage:cli.certify"),
    "cli.solve_s": ("s", ["cli._run_critical", "cli.cmd_solve_from"], "stage:cli.solve"),
    "cli.rate_s": ("s", ["cli.cmd_rate"], "stage:cli.rate"),
    "cli.profile_s": ("s", ["cli.cmd_profile"], "stage:cli.profile"),
    "cli.sandwich_s": ("s", ["cli.cmd_sandwich"], "stage:cli.sandwich"),
    "specialfn.builds": ("count", ["specialfn.SpecialFunctions.__init__"], "calls"),
    "specialfn.inverse_builds": ("count", ["specialfn.OperatorInverse.__init__"], "calls"),
    "specialfn.build_s": ("s", ["specialfn.SpecialFunctions.__init__",
                                "specialfn.OperatorInverse.__init__"],
                          "self:specialfn.build"),
    "specialfn.asymptotics_s": ("s", ["specialfn.check_asymptotics"],
                                "self:specialfn.asymptotics"),
    "specialfn.quad_points": ("count", ["specialfn.CumulativeIntegral.__call__"],
                              "amount:specialfn.quad_points"),
    "specialfn.table_eval_points": ("count", ["specialfn.SpecialTable.eval"],
                                    "amount:specialfn.table_eval_points"),
    "specialfn.table_eval_s": ("s", ["specialfn.SpecialTable.eval"],
                               "self:specialfn.table_eval"),
    "matching.integrations": ("count", ["matching.integrate_a"], "calls"),
    "matching.rk4_steps": ("count", ["matching.integrate_a"], "amount:matching.rk4_steps"),
    "matching.integrate_s": ("s", ["matching.integrate_a"], "self:matching.integrate"),
    "barriers.residual_points": ("count", ["barriers.residual_reduced"],
                                 "amount:barriers.residual_points"),
    "barriers.certify_sign_s": ("s", ["barriers.certify_sign"],
                                "self:barriers.certify_sign"),
    "barriers.boundary_margin_evals": ("count", ["barriers.boundary_margin"],
                                       "amount:barriers.boundary_margin_evals"),
    "barriers.boundary_s": ("s", ["barriers.check_boundary_matching"],
                            "self:barriers.boundary"),
    "barriers.shift_probes": ("count", ["barriers._lower_violation",
                                        "barriers._upper_violation"], "calls"),
    "barriers.shift_search_s": ("s", ["barriers.find_time_shifts"],
                                "self:barriers.shift_search"),
    "pde.solve_s": ("s", ["pde.solve"], "stage:pde.solve"),
    "pde.solve_w_s": ("s", ["pde.solve_w"], "stage:pde.solve_w"),
    "pde.steps_accepted": ("count", ["pde._advance"], "amount:pde.steps_accepted"),
    "pde.step_attempts": ("count", ["pde._step_once"], "calls"),
    "pde.solves_per_step": ("1", ["pde._step_once", "pde._advance"], "per_step"),
    "pde.residual_jac_calls": ("count", ["pde._UProblem.rhs_and_jac"], "calls"),
    "pde.residual_jac_s": ("s", ["pde._UProblem.rhs_and_jac"], "self:pde.residual_jac"),
    "pde.tridiag_solves": ("count", ["pde.solve_banded"], "calls"),
    "pde.tridiag_s": ("s", ["pde.solve_banded"], "self:pde.tridiag"),
    "pde.newton_maxit_solves": ("count", ["pde._UProblem.newton"],
                                "amount:pde.newton_maxit_solves"),
    "serialize.write_s": ("s", ["serialize.dump_json", "serialize.table_to_csv",
                                "serialize.path_to_csv", "serialize.snapshot_to_csv"],
                          "self:serialize.write"),
}


class Tracer:
    """Install wrappers at BOUNDARIES; keep spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.calls: Counter = Counter()  # boundary key -> calls
        self.amounts: Counter = Counter()
        self.missing: dict[str, str] = {}

    def install(self) -> None:
        for key, (span, _, measure) in BOUNDARIES.items():
            try:
                owner, attr, original = _resolve(key)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[key] = f"boundary ksgrowup.{key} not found ({exc})"
                continue
            if key == "pde._advance":
                wrapper = self._advance_wrapper(key, original)
            elif key == "pde._UProblem.newton":
                wrapper = self._newton_wrapper(key, original)
            else:
                wrapper = self._wrapper(key, span, original, measure)
            if wrapper is None:
                continue
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for mod in [m for n, m in sys.modules.items()
                            if n == "ksgrowup" or n.startswith("ksgrowup.")]:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def _wrapper(self, key, span, fn, measure):
        spans, stack, calls, amounts = self.spans, self._stack, self.calls, self.amounts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                rec = [span, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            if measure is not None:
                for name, amount in measure(args, kwargs, result):
                    amounts[name] += amount
            return result
        return wrapper

    def _advance_wrapper(self, key, fn):
        """Count accepted steps through the post_check callback _advance
        calls once per accepted step."""
        sig = inspect.signature(fn)
        if "post_check" not in sig.parameters:
            self.missing[key] = f"boundary ksgrowup.{key} has no post_check parameter"
            return None
        amounts, calls = self.amounts, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            bound = sig.bind(*args, **kwargs)
            check = bound.arguments["post_check"]

            def counted(*a, **k):
                out = check(*a, **k)
                amounts["pde.steps_accepted"] += 1
                return out
            bound.arguments["post_check"] = counted
            return fn(*bound.args, **bound.kwargs)
        return wrapper

    def _newton_wrapper(self, key, fn):
        """Count u-form Newton solves that used every allowed iteration."""
        sig = inspect.signature(fn)
        if "maxit" not in sig.parameters:
            self.missing[key] = f"boundary ksgrowup.{key} has no maxit parameter"
            return None
        amounts, calls = self.amounts, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            if result[1] >= sig.bind(*args, **kwargs).arguments["maxit"]:
                amounts["pde.newton_maxit_solves"] += 1
            return result
        return wrapper

    def write_spans(self, path) -> None:
        """Write every span once, at the end: names plus [name index, start,
        end, parent index] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


class Summary:
    """Per-span-name call counts, self and inclusive times, and counters."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self._self = defaultdict(float)
        self._incl = defaultdict(float)
        self._count = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self._self[name] += (end - start) - child[i]
            self._count[name] += 1
            q = parent
            while q >= 0 and spans[q][0] != name:
                q = spans[q][3]
            if q < 0:   # outermost span of this name: no double counting
                self._incl[name] += end - start
        self._calls = tracer.calls
        self._amounts = tracer.amounts
        self.missing = dict(tracer.missing)

    def _value(self, how: str, needs):
        kind, _, arg = how.partition(":")
        if kind == "calls":
            return sum(self._calls[k] for k in needs)
        if kind == "amount":
            return self._amounts[arg]
        if kind == "self":
            return self._self[arg]
        if kind == "stage":
            return self._incl[arg]
        steps = self._amounts["pde.steps_accepted"]     # per_step
        return self._calls["pde._step_once"] / steps if steps else 0.0

    def spans_table(self) -> dict:
        return {n: {"spans": self._count[n], "self_s": self._self[n],
                    "inclusive_s": self._incl[n]} for n in sorted(self._count)}

    def metrics(self, workload: str) -> dict:
        """Every METRICS entry: {"value", "unit"} or, when a boundary it
        needs is missing or was skipped, {"value": None, "absent": why}."""
        out = {}
        for name, (unit, needs, how) in METRICS.items():
            why = [self.missing[k] for k in needs if k in self.missing]
            why += [f"boundary ksgrowup.{k} was never entered on {workload}" for k in needs
                    if k not in self.missing and workload in BOUNDARIES[k][1]
                    and self._calls[k] == 0]
            if why:
                out[name] = {"value": None, "unit": unit, "absent": "; ".join(why)}
            else:
                out[name] = {"value": self._value(how, needs), "unit": unit}
        return out


def _resolve(key: str):
    """'mod.Class.attr' or 'mod.func' under ksgrowup -> (owner, attr, obj)."""
    parts = key.split(".")
    module = importlib.import_module("ksgrowup." + parts[0])
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original
