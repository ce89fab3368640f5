"""Batch experiment driver.

Subcommands: tabulate, match, certify, solve, rate, profile, sandwich, all.
Each reads one plain-text config file (INI sections, key=value), writes CSV
series and JSON verdicts under --out, and encodes its verdict in the exit
status: 0 = all checks pass, 1 = a scientific check failed, 2 = numerical
or configuration failure.  Outputs are deterministic: fixed tolerances, no
randomness, floats written with 17 significant digits.

Every key has a default in the packaged ``defaults.ini``; a --config file
overrides single keys, and an unknown section or key in it is a
configuration failure.  Acceptance brackets (the numbers in that file) are
pre-registered there, not tuned after looking at a particular run.

The barrier pair (``[barriers]``) is built once per run, on the run's one
special-function table: tabulate writes that table and checks its
asymptotics, match checks the barriers' matching paths, certify certifies
the barriers, and sandwich orders the solution between exactly those
barriers.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.ma  # np.percentile and np.unique load it lazily; here, not mid-run

from . import barriers as bar
from . import matching as mat
from . import pde
from . import serialize as ser
from .errors import NumericsError
from .grids import Snapshot, make_graded_grid
from .specialfn import SpecialFunctions, check_asymptotics

class _Config(configparser.ConfigParser):
    """One run's configuration; hashed by identity, so memoized work is per run."""
    __hash__ = object.__hash__


def _load_config(path: str | None) -> _Config:
    cfg = _Config()
    cfg.read_string(resources.files(__package__).joinpath("defaults.ini").read_text())
    if path is not None:
        if not Path(path).exists():
            raise NumericsError(f"config file not found: {path}")
        known = {name: set(cfg[name]) for name in cfg.sections()}
        cfg.read(path)
        for name in cfg.sections():
            unknown = sorted(set(cfg[name]) - known.get(name, set()))
            if unknown:
                raise NumericsError(f"{path}: [{name}] has no key {', '.join(unknown)}")
    return cfg


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _float_or_none(text: str) -> float | None:
    return None if text.strip().lower() == "none" else float(text)


def _fmt_or_none(x) -> str | None:
    return None if x is None else ser.fmt(x)


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _verdict(path: Path, failures: list[str], quiet: bool, **extra) -> int:
    """Write {"failures", "ok", **extra} to path, print each failure, and
    return the exit status: 1 if a check failed, else 0."""
    ser.dump_json({"failures": failures, "ok": not failures, **extra}, path)
    for f in failures:
        _say(quiet, "FAIL: " + f)
    return 1 if failures else 0


def _trend_slope(t, v):
    """Least-squares slope of v against t."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    A = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[1])


# ---------------------------------------------------------------------------
# shared builders


def _solver_setup(cfg) -> tuple[Snapshot, pde.SolverConfig, float, list[float]]:
    sec = cfg["solve"]
    grid = make_graded_grid(int(sec["n"]), float(sec["x_min"]),
                            float(sec["grading_ratio"]))
    right_bc = float(sec["right_bc"])
    u0 = Snapshot(grid=grid, values=right_bc * grid.nodes, time=0.0,
                  left_bc=0.0, right_bc=right_bc)
    solver_cfg = pde.SolverConfig(
        dt_max=_float_or_none(sec["dt_max"]),
        local_error_tol=_float_or_none(sec["local_error_tol"]))
    t_end = float(sec["t_end"])
    out_times = _floats(sec["output_times"])
    # rate and profile read the last snapshot, and the manifest the first
    if not any(t > 0.0 for t in out_times):
        raise NumericsError("[solve] output_times needs a time > 0")
    return u0, solver_cfg, t_end, out_times


@functools.lru_cache(maxsize=1)
def _run_critical(cfg, quiet: bool) -> pde.Trajectory:
    """The run's one critical solve; solve, rate, profile and sandwich read it."""
    u0, solver_cfg, t_end, out_times = _solver_setup(cfg)
    _say(quiet, f"solving to t = {t_end} on {u0.grid.n} nodes ...")
    return pde.solve(u0, solver_cfg, t_end, out_times)


def _slope_fits(traj: pde.Trajectory):
    """(snapshot, time-error bar on d, SlopeFit) at every output time t > 0.

    The early fallback to the one-sided ratio is expected; the verdicts
    count it (n_ratio_fallbacks)."""
    return [(s, float(bar_d), pde.slope_origin_info(s))
            for s, bar_d in zip(traj.snapshots, traj.d_time_err) if s.time > 0.0]


def _rate_series(traj: pde.Trajectory):
    rows = []
    for s, bar_d, info in _slope_fits(traj):
        d = float(np.log(info.value) - np.sqrt(2.0 * s.time))
        l1 = pde.l1_to_one(s)
        r = float(l1 / (np.sqrt(2.0 * s.time)
                        * np.exp(-2.5 - np.sqrt(2.0 * s.time))))
        rows.append({"t": s.time, "slope": info.value, "method": info.method,
                     "fit_residual": info.fit_residual, "d": d,
                     "d_time_err": bar_d, "l1": l1, "r": r})
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_tabulate(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["tabulate"]
    table = _barriers(cfg, quiet)[0].table
    (out / "special_table.csv").write_text(ser.table_to_csv(table))
    ser.dump_json(ser.table_header_json(table), out / "special_table.json")

    report = check_asymptotics(table, _floats(sec["sweep"]), float(sec["growth_tol"]))
    ser.dump_json({"y_maxes": [ser.fmt(v) for v in report.y_maxes],
                   "ratios": {k: [ser.fmt(v) for v in seq]
                              for k, seq in report.ratios.items()},
                   "spot_checks": {k: ser.fmt(v)
                                   for k, v in report.spot_checks.items()},
                   "violations": report.violations,
                   "ok": report.ok}, out / "asymptotics.json")
    for name, seq in sorted(report.ratios.items()):
        _say(quiet, f"ratio {name:4s}: " + " ".join(f"{v:9.3g}" for v in seq))
    if not report.ok:
        _say(quiet, "FAIL: asymptotics ratios grew across the sweep")
        return 1
    _say(quiet, "tabulate: all ratio checks pass")
    return 0


def cmd_match(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["match"]
    failures = []
    for kind, path in zip((bar.LOWER, bar.UPPER), _barrier_paths(cfg)):
        K = path.K
        tag = f"k{K:g}".replace(".", "p")
        (out / f"path_{tag}.csv").write_text(ser.path_to_csv(path))
        ser.dump_json(ser.path_header_json(path), out / f"path_{tag}.json")
        w0, w1 = _floats(sec["bracket_window"])
        ts = np.linspace(w0, min(w1, path.t_end), 60)
        dev = path.loga_at(ts) - np.sqrt(2.0 * ts)
        lo, hi = float(sec["bracket_lo"]), float(sec["bracket_hi"])
        is_lower = kind == bar.LOWER
        if is_lower and (dev.min() < lo or dev.max() > hi):
            failures.append(
                f"K={K}: log a - sqrt(2t) left [{lo}, {hi}] "
                f"(range [{dev.min():.3f}, {dev.max():.3f}])")
        if is_lower and np.any(np.diff(np.abs(dev - 2.5)) > 1e-12):
            failures.append(f"K={K}: |log a - sqrt(2t) - 5/2| not nonincreasing")
        _say(quiet, f"match K={K}: deviation range "
                    f"[{dev.min():.4f}, {dev.max():.4f}]")
    return _verdict(out / "match_verdict.json", failures, quiet)


@functools.lru_cache(maxsize=1)
def _lattice(cfg) -> np.ndarray:
    """The run's one certify lattice: geomspace([certify] t_lo, t_hi, n_t),
    continued at its ratio past [solve] t_end + [sandwich] shift_max, the
    latest barrier time that sandwich may compare."""
    sec = cfg["certify"]
    ts = bar.time_lattice(float(sec["t_lo"]), float(sec["t_hi"]), int(sec["n_t"]),
                          float(cfg["solve"]["t_end"])
                          + float(cfg["sandwich"]["shift_max"]))
    ts.flags.writeable = False
    return ts


def _path_end(cfg) -> float:
    """t_path: the lattice's last time, so the paths, the swap paths and the
    table reach exactly as far as certify checks."""
    return float(_lattice(cfg)[-1])


@functools.lru_cache(maxsize=1)
def _barrier_paths(cfg) -> tuple[mat.MatchingPath, mat.MatchingPath]:
    """The matching paths of the (lower, upper) barriers to t_path, at
    K = [barriers] k_lower, k_upper.  Match checks and writes them without
    the table that _barriers adds."""
    sec, t_path = cfg["barriers"], _path_end(cfg)
    return tuple(mat.integrate_a(float(sec[key]), t_path)
                 for key in ("k_lower", "k_upper"))


@functools.lru_cache(maxsize=1)
def _barriers(cfg, quiet: bool) -> tuple[bar.BarrierSpec, bar.BarrierSpec,
                                         bar.BoundaryReport, bar.BoundaryReport]:
    """The (lower, upper) barriers on the _barrier_paths and their x = 1
    matching reports on the run's _lattice, with the run's one
    special-function table, to max(1.05 a_upper(t_path), max([tabulate]
    sweep)) with [tabulate] npd.  Tabulate writes the table, certify writes
    the reports, and sandwich compares from their onsets."""
    path_lo, path_up = _barrier_paths(cfg)
    tab = cfg["tabulate"]
    y_max = max(float(path_up.closed_forms_at(_path_end(cfg))[0]) * 1.05,
                max(_floats(tab["sweep"])))
    _say(quiet, f"building tables to y_max = {y_max:.3e} ...")
    table = SpecialFunctions(y_max, npd=int(tab["npd"])).table()
    specs = (bar.BarrierSpec(kind=bar.LOWER, path=path_lo, table=table),
             bar.BarrierSpec(kind=bar.UPPER, path=path_up, table=table))
    return specs + tuple(bar.check_boundary_matching(spec, _lattice(cfg))
                         for spec in specs)


def cmd_certify(cfg, out: Path, quiet: bool) -> int:
    lower, upper, bnd_lo, bnd_up = _barriers(cfg, quiet)
    sec = cfg["certify"]
    ts = _lattice(cfg)
    failures = []

    rep_lo, rep_up = (bar.certify_sign(spec, ts, int(sec["y_resolution"]))
                      for spec in (lower, upper))
    ser.dump_json(ser.residual_report_to_json(rep_lo), out / "residual_lower.json")
    ser.dump_json(ser.residual_report_to_json(rep_up), out / "residual_upper.json")
    for rep in (rep_lo, rep_up):
        _say(quiet, f"{rep.kind} residual: sign_ok={rep.sign_ok} "
                    f"threshold_T={rep.threshold_T} worst={rep.worst_value:.3e}")
        if not rep.sign_ok:
            failures.append(f"{rep.kind} residual sign not certified")

    _say(quiet, f"lower barrier slope > 0: {rep_lo.slope_ok}")
    if not rep_lo.slope_ok:
        failures.append("lower barrier not increasing beyond threshold")

    for rep, name in ((bnd_lo, "lower"), (bnd_up, "upper")):
        ser.dump_json({"kind": rep.kind, "K": ser.fmt(rep.K),
                       "onset_t": None if rep.onset_t is None else ser.fmt(rep.onset_t),
                       "ok_beyond": rep.ok_beyond},
                      out / f"boundary_{name}.json")
        _say(quiet, f"{name} boundary matching onset: {rep.onset_t}")
        if not rep.ok_beyond:
            failures.append(f"{name} boundary matching never holds up to {ts[-1]:g}")

    # deliberate K swaps must fail the matching inequalities at large time
    swaps = {}
    for kind, K in ((bar.LOWER, float(sec["k_lower_swap"])),
                    (bar.UPPER, float(sec["k_upper_swap"]))):
        spec = bar.BarrierSpec(kind=kind, path=mat.integrate_a(K, _path_end(cfg)),
                               table=lower.table)
        rep = bar.check_boundary_matching(spec, ts)
        failed_as_predicted = rep.onset_t is None
        swaps[f"{kind}_K{K:g}"] = failed_as_predicted
        _say(quiet, f"swapped {kind} K={K:g}: matching fails as predicted: "
                    f"{failed_as_predicted}")
        if not failed_as_predicted:
            failures.append(f"swapped {kind} K={K:g} unexpectedly matched")

    return _verdict(out / "certify_verdict.json", failures, quiet, swaps=swaps,
                    lattice_t_end=ser.fmt(ts[-1]))


def cmd_solve(cfg, out: Path, quiet: bool) -> int:
    traj = _run_critical(cfg, quiet)
    cmd_solve_from(traj, out)
    _say(quiet, f"solve: {len(traj.step_times)} steps, "
                f"{len(traj.snapshots)} snapshots")
    return 0


def cmd_rate(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["rate"]
    traj = _run_critical(cfg, quiet)
    rows = _rate_series(traj)
    lines = ["t,slope,method,fit_residual,d,d_time_err,l1,r"]
    for r in rows:
        lines.append(",".join([ser.fmt(r["t"]), ser.fmt(r["slope"]), r["method"],
                               ser.fmt(r["fit_residual"]), ser.fmt(r["d"]),
                               ser.fmt(r["d_time_err"]), ser.fmt(r["l1"]),
                               ser.fmt(r["r"])]))
    (out / "rate.csv").write_text("\n".join(lines) + "\n")

    failures = []
    w0, w1 = _floats(sec["d_window"])
    dw = [r for r in rows if w0 - 1e-9 <= r["t"] <= w1 + 1e-9]
    # d with its time-error bar must stay inside the bracket
    bars = [r["d_time_err"] for r in dw]
    d_low = [r["d"] - b for r, b in zip(dw, bars)]
    d_high = [r["d"] + b for r, b in zip(dw, bars)]
    if not dw:
        failures.append("no samples in the d(t) window")
    else:
        d_lo, d_hi = float(sec["d_lo"]), float(sec["d_hi"])
        if min(d_low) < d_lo or max(d_high) > d_hi:
            failures.append(f"d(t) with its time-error bar left [{d_lo}, {d_hi}]: "
                            f"range [{min(d_low):.4f}, {max(d_high):.4f}]")
    trend_rows = [r for r in rows if r["t"] >= float(sec["trend_from"])]
    slope_d = _trend_slope([r["t"] for r in trend_rows],
                           [abs(r["d"] - 2.5) for r in trend_rows])
    if slope_d > float(sec["trend_slope_tol"]):
        failures.append(f"|d - 5/2| trend not decreasing (slope {slope_d:.2e})")
    r_end = rows[-1]["r"]
    if not (float(sec["r_lo"]) <= r_end <= float(sec["r_hi"])):
        failures.append(f"L1 ratio at t_end = {r_end:.3f} outside bracket")
    slope_r = _trend_slope([r["t"] for r in trend_rows],
                           [abs(r["r"] - 1.0) for r in trend_rows])
    if slope_r > float(sec["trend_slope_tol"]):
        failures.append(f"|r - 1| trend not decreasing (slope {slope_r:.2e})")

    _say(quiet, f"rate: d(t_end) = {rows[-1]['d']:.4f}, r(t_end) = {r_end:.3f}")
    return _verdict(out / "rate_verdict.json", failures, quiet,
                    d_final=ser.fmt(rows[-1]["d"]), r_final=ser.fmt(r_end),
                    d_trend_slope=ser.fmt(slope_d), r_trend_slope=ser.fmt(slope_r),
                    d_time_err=_fmt_or_none(max(bars, default=None)),
                    n_ratio_fallbacks=sum(r["method"] == "ratio" for r in rows))


def cmd_profile(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["profile"]
    traj = _run_critical(cfg, quiet)
    rows = []
    fits = _slope_fits(traj)
    for s, _, info in fits:
        ahat = info.value
        x = s.grid.nodes
        E = float(np.max(np.abs((1.0 - s.values) * (1.0 + ahat * x) - (1.0 - x))))
        rows.append((s.time, ahat, E))
    (out / "profile.csv").write_text(
        "\n".join(["t,ahat,E"] + [",".join(ser.fmt(v) for v in r) for r in rows])
        + "\n")
    failures = []
    tail = [(t, E) for t, _, E in rows if t >= float(sec["decrease_from"])]
    if any(e2 > e1 + 1e-12 for (_, e1), (_, e2) in zip(tail, tail[1:])):
        failures.append("profile error E(t) not decreasing beyond "
                        + sec["decrease_from"])
    if rows and rows[-1][2] > float(sec["e_max"]):
        failures.append(f"E(t_end) = {rows[-1][2]:.3f} > {sec['e_max']}")
    _say(quiet, f"profile: E(t_end) = {rows[-1][2]:.4f}")
    return _verdict(out / "profile_verdict.json", failures, quiet,
                    E_final=ser.fmt(rows[-1][2]) if rows else None,
                    n_ratio_fallbacks=sum(info.method == "ratio"
                                          for *_, info in fits))


def cmd_sandwich(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["sandwich"]
    traj = _run_critical(cfg, quiet)
    lower, upper, bnd_lo, bnd_up = _barriers(cfg, quiet)
    tau = 1.0 / (4.0 * max(traj.data_K, 1.0))
    t_min_upper = min((s.time for s in traj.snapshots if s.time >= tau),
                      default=tau)
    report = bar.find_time_shifts(
        lower, upper, traj.snapshots, shift_max=float(sec["shift_max"]),
        lattice=float(sec["lattice"]), slack=float(sec["slack"]),
        t_min_upper=t_min_upper, lower_onset=bnd_lo.onset_t,
        upper_onset=bnd_up.onset_t)
    # a barrier compared at no time orders nothing
    ok = (report.n_times_lower > 0 and report.n_times_upper > 0
          and report.worst_lower <= report.slack
          and report.worst_upper <= report.slack)
    ser.dump_json({"T1": ser.fmt(report.T1), "T2": ser.fmt(report.T2),
                   "lower_onset": ser.fmt(report.lower_onset),
                   "upper_onset": ser.fmt(report.upper_onset),
                   "worst_lower": ser.fmt(report.worst_lower),
                   "worst_upper": ser.fmt(report.worst_upper),
                   "n_times_lower": report.n_times_lower,
                   "n_times_upper": report.n_times_upper,
                   "max_t_lower": _fmt_or_none(report.max_t_lower),
                   "max_t_upper": _fmt_or_none(report.max_t_upper),
                   "ok": bool(ok)}, out / "sandwich.json")
    _say(quiet, f"sandwich: T1 = {report.T1}, T2 = {report.T2}, ok = {ok}")
    return 0 if ok else 1


def cmd_all(cfg, out: Path, quiet: bool) -> int:
    rc = 0
    for cmd in (cmd_tabulate, cmd_match, cmd_certify, cmd_solve, cmd_rate,
                cmd_profile, cmd_sandwich):
        rc |= cmd(cfg, out, quiet)
    ser.dump_json({"ok": rc == 0}, out / "summary.json")
    return 1 if rc else 0


def cmd_solve_from(traj, out: Path) -> None:
    for s in traj.snapshots:
        tag = ser.fmt(s.time).replace(".", "p")
        (out / f"snapshot_t{tag}.csv").write_text(ser.snapshot_to_csv(s))
    ser.dump_json(_manifest(traj), out / "trajectory.json")


def _manifest(traj) -> dict:
    dt_p10, dt_p50, dt_p90 = np.percentile(traj.step_sizes, [10, 50, 90])
    first = traj.snapshots[0]
    return {
        "n_steps": int(len(traj.step_times)),
        "grid_nodes": int(first.grid.n),
        "right_bc": ser.fmt(first.right_bc),
        "dt_max": _fmt_or_none(traj.config.dt_max),
        "local_error_tol": _fmt_or_none(traj.config.local_error_tol),
        "data_K": ser.fmt(traj.data_K),
        "dt_min_accepted": ser.fmt(float(traj.step_sizes.min())),
        "dt_max_accepted": ser.fmt(float(traj.step_sizes.max())),
        "dt_accepted_percentiles": {"p10": ser.fmt(dt_p10), "p50": ser.fmt(dt_p50),
                                    "p90": ser.fmt(dt_p90)},
        "newton_iters_max": int(traj.newton_iters.max()),
        # steps by the larger Newton iteration count of their two stages
        "newton_iters_histogram": {str(k): int(n) for k, n in
                                   enumerate(np.bincount(traj.newton_iters))},
        "rejected_error_test": int(traj.rejected_error_test),
        "rejected_newton": int(traj.rejected_newton),
        "output_times": [ser.fmt(s.time) for s in traj.snapshots],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ksgrowup",
        description="critical-mass chemotaxis grow-up experiments")
    parser.add_argument("command",
                        choices=["tabulate", "match", "certify", "solve",
                                 "rate", "profile", "sandwich", "all"])
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "tabulate": cmd_tabulate, "match": cmd_match,
            "certify": cmd_certify, "solve": cmd_solve, "rate": cmd_rate,
            "profile": cmd_profile, "sandwich": cmd_sandwich, "all": cmd_all,
        }[args.command]
        return handler(cfg, out, args.quiet)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
