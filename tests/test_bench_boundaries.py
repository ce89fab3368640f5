"""The benchmark's layer boundaries still exist in the package.

``perfbench/tracing.py`` wraps the functions named in its ``BOUNDARIES``
table; a boundary renamed or deleted there reads as an absent metric only
after a benchmark run.  Resolving every name here (without installing any
wrapper) turns such a rename into a test failure instead.
"""

import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ksgrowup import pde
from ksgrowup.barriers import BarrierSpec, eval_barrier
from ksgrowup.grids import RadialField, Snapshot, make_graded_grid
from ksgrowup.matching import integrate_a
from ksgrowup.specialfn import SpecialFunctions

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_boundary_resolves():
    missing = []
    for key in tracing.BOUNDARIES:
        try:
            tracing._resolve(key)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{key}: {exc}")
    assert missing == []


def test_boundary_signatures():
    # the tracer counts accepted steps through _advance's post_check and
    # full-length Newton solves through newton's maxit
    assert "post_check" in inspect.signature(pde._advance).parameters
    assert "maxit" in inspect.signature(pde._UProblem.newton).parameters


def test_special_function_metrics_are_entered(monkeypatch):
    # specialfn.quad_points and specialfn.table_eval_* read null unless a
    # build enters CumulativeIntegral.__call__ and a barrier evaluation
    # enters SpecialTable.eval
    tracer = tracing.Tracer()
    for key in ("specialfn.CumulativeIntegral.__call__",
                "specialfn.SpecialTable.eval"):
        span, _, measure = tracing.BOUNDARIES[key]
        owner, attr, original = tracing._resolve(key)
        monkeypatch.setattr(owner, attr,
                            tracer._wrapper(key, span, original, measure))
    table = SpecialFunctions(1e3).table()
    assert tracer.calls["specialfn.CumulativeIntegral.__call__"] > 0
    spec = BarrierSpec(kind="lower", path=integrate_a(5.0, 2.0), table=table)
    eval_barrier(spec, np.linspace(0.0, 1.0, 9), 1.0)
    metrics = tracing.Summary(tracer).metrics("pipeline")
    for name in ("specialfn.quad_points", "specialfn.table_eval_points",
                 "specialfn.table_eval_s"):
        assert metrics[name]["value"], (name, metrics[name])


def test_certify_enters_every_barrier_scan_boundary(monkeypatch, tmp_path):
    # a certify run enters each barriers.* boundary that the pipeline must
    # enter, the shift search aside, so a restructured scan cannot leave
    # barriers.residual_points or barriers.boundary_* unmeasured
    from ksgrowup import cli
    tracer = tracing.Tracer()
    keys = [key for key, (_, needed, _) in tracing.BOUNDARIES.items()
            if key.startswith("barriers.") and tracing.P in needed
            and key not in ("barriers.find_time_shifts",
                            "barriers._lower_violation",
                            "barriers._upper_violation")]
    for key in keys:
        span, _, measure = tracing.BOUNDARIES[key]
        owner, attr, original = tracing._resolve(key)
        monkeypatch.setattr(owner, attr,
                            tracer._wrapper(key, span, original, measure))
    assert cli.main(["certify", "--out", str(tmp_path), "--quiet"]) == 0
    assert sorted(k for k in keys if tracer.calls[k] == 0) == []
    metrics = tracing.Summary(tracer).metrics("certify")
    for name in ("barriers.residual_points", "barriers.certify_sign_s",
                 "barriers.boundary_margin_evals", "barriers.boundary_s"):
        assert metrics[name]["value"], (name, metrics[name])


def test_newton_maxit_is_counted(monkeypatch):
    # pde.newton_maxit_solves reads the iteration count at index 1 of what
    # newton returns: a solve stopped by maxit = 1 on a state that needs an
    # update counts once
    tracer = tracing.Tracer()
    key = "pde._UProblem.newton"
    owner, attr, original = tracing._resolve(key)
    monkeypatch.setattr(owner, attr, tracer._newton_wrapper(key, original))
    grid = make_graded_grid(140, 1e-6, 1.12)
    u = grid.nodes.copy()
    problem = pde._UProblem(grid, 1.0)
    coef, rhs = 0.01, u[1:-1].copy()
    size = np.abs(rhs) + coef * problem.term_size(u, problem.rhs_and_jac(u))
    _, its, ok, _ = problem.newton(u, coef, rhs, size, 1)
    assert (its, ok) == (1, False)
    metrics = tracing.Summary(tracer).metrics("pipeline")
    assert metrics["pde.newton_maxit_solves"]["value"] == 1


@pytest.mark.parametrize("form", ["u", "w"])
def test_every_tridiagonal_solve_enters_solve_banded(monkeypatch, form):
    # pde.tridiag_solves counts calls into pde.solve_banded: one per Newton
    # update and one error-filter solve per step whose two stages
    # converged.  A solve that bypasses it would read low only in a traced
    # benchmark run; here a short solve of each form counts it directly
    tracer = tracing.Tracer()
    key = "pde.solve_banded"
    span, _, measure = tracing.BOUNDARIES[key]
    monkeypatch.setattr(pde, "solve_banded",
                        tracer._wrapper(key, span, pde.solve_banded, measure))
    steps, step_once = [], pde._step_once

    def recorded_step(*args):
        steps.append([])
        return step_once(*args)

    def recorded_newton(self, *args):
        result = pde._newton(self, *args)
        steps[-1].append(result[:3])
        return result
    monkeypatch.setattr(pde, "_step_once", recorded_step)
    monkeypatch.setattr(pde._UProblem, "newton", recorded_newton)
    monkeypatch.setattr(pde._WProblem, "newton", recorded_newton)
    if form == "u":
        grid = make_graded_grid(140, 1e-6, 1.12)
        u0 = Snapshot(grid=grid, values=grid.nodes.copy(), time=0.0,
                      left_bc=0.0, right_bc=1.0)
        pde.solve(u0, pde.SolverConfig(), 1.0, [1.0])
    else:
        r = np.linspace(0.0, 1.0, 81)
        w0 = RadialField(r_nodes=r, values=np.full_like(r, 8.0),
                         total_mass=8 * np.pi)
        pde.solve_w(w0, pde.SolverConfig(dt_max=0.005), 0.1, [0.1])
    updates = sum(its for stages in steps for _, its, _ in stages)
    filtered = sum(len(stages) == 2 and stages[1][2] for stages in steps)
    assert steps and filtered
    metrics = tracing.Summary(tracer).metrics(tracing.R)
    assert metrics["pde.tridiag_solves"]["value"] == updates + filtered


def test_path_measure_reads_a_real_path():
    # the tracer's matching.rk4_steps measure reads an attribute of what
    # integrate_a returns; a removed attribute would fail only a traced run
    measure = tracing.BOUNDARIES["matching.integrate_a"][2]
    path = integrate_a(5.0, 2.0)
    (name, count), = measure((5.0, 2.0), {}, path)
    assert name == "matching.rk4_steps" and count > 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload", ["pipeline", "radial_w"])
def test_traced_worker_prints_a_whole_result(workload, tmp_path):
    # a traced benchmark iteration must end in one strict-JSON result line
    # whose every layer metric was measured; a bypassed boundary reads null
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "0", "--work", str(work),
         "--spawned-at", str(time.monotonic()), "--trace"],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    bad = {name: m for name, m in result["layers"].items()
           if m["value"] is None or not math.isfinite(m["value"])}
    assert bad == {}
    assert [c for c in result["checks"] if not c[1]] == []
