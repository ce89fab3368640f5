"""Batch experiment driver.

Subcommands: tabulate, match, certify, solve, rate, profile, sandwich, all.
Each reads one plain-text config file (INI sections, key=value), writes CSV
series and JSON verdicts under --out, and encodes its verdict in the exit
status: 0 = all checks pass, 1 = a scientific check failed, 2 = numerical
or configuration failure.  Outputs are deterministic: fixed tolerances, no
randomness, floats written with 17 significant digits.

Every key has a default in the packaged ``defaults.ini``; a --config file
overrides single keys.  An unknown section or key is a configuration
failure, as is a grid, lattice or resolution out of bounds, which is refused
before any command runs.  Acceptance brackets (the numbers in that file) are
pre-registered there, not tuned after looking at a particular run.

The barrier pair (``[barriers]``) is built once per run, on the run's one
special-function table: tabulate writes that table and checks its
asymptotics, match checks the barriers' matching paths, certify certifies
the barriers, and sandwich orders the solution between exactly those
barriers.  Each command builds its evidence once per run; a pure
``*_gate`` of that evidence and its config section names the failures
(``check_asymptotics`` for tabulate), and the command writes the files.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import matching as mat
from . import pde
from . import serialize as ser
from .errors import NumericsError
from .grids import Snapshot, check_per_decade, make_graded_grid
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


def _fmt_or_none(x) -> str | None:
    return None if x is None else ser.fmt(x)


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _report(failures: list[str], quiet: bool) -> int:
    """Print each failure; the exit status is 1 if a check failed, else 0."""
    for f in failures:
        _say(quiet, "FAIL: " + f)
    return 1 if failures else 0


def _verdict(path: Path, failures: list[str], quiet: bool, **extra) -> int:
    """Write {"failures", "ok", **extra} to path and _report the failures."""
    ser.dump_json({"failures": failures, "ok": not failures, **extra}, path)
    return _report(failures, quiet)


def _trend_slope(t, v):
    """Least-squares slope of v against t."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    A = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[1])


# ---------------------------------------------------------------------------
# verdict gates: evidence (and a config section) -> failure strings


def match_gate(K: float, dev: np.ndarray, sec) -> list[str]:
    """dev = log a - sqrt(2t) of the lower path at K on [match]
    bracket_window must stay inside [bracket_lo, bracket_hi], and
    |dev - 5/2| must not increase."""
    failures = []
    lo, hi = float(sec["bracket_lo"]), float(sec["bracket_hi"])
    if dev.min() < lo or dev.max() > hi:
        failures.append(f"K={K}: log a - sqrt(2t) left [{lo}, {hi}] "
                        f"(range [{dev.min():.3f}, {dev.max():.3f}])")
    if np.any(np.diff(np.abs(dev - 2.5)) > 1e-12):
        failures.append(f"K={K}: |log a - sqrt(2t) - 5/2| not nonincreasing")
    return failures


def certify_gate(residuals, boundaries, swaps, t_last: float) -> list[str]:
    """Of the (lower, upper) ResidualReports, BoundaryReports and K-swap
    BoundaryReports: each sign certified, the lower barrier increasing, each
    x = 1 matching holding up to the lattice's t_last, and no swap's."""
    failures = [f"{rep.kind} residual sign not certified"
                for rep in residuals if not rep.sign_ok]
    if not residuals[0].slope_ok:
        failures.append("lower barrier not increasing beyond threshold")
    failures += [f"{rep.kind} boundary matching never holds up to {t_last:g}"
                 for rep in boundaries if not rep.ok_beyond]
    return failures + [f"swapped {rep.kind} K={rep.K:g} unexpectedly matched"
                       for rep in swaps if rep.onset_t is not None]


def rate_gate(rows: list[dict], sec) -> tuple[list[str], dict]:
    """Failures on the _series rows, and the numbers rate_verdict.json
    records (d_time_err: the largest bar in the d window, or None)."""
    failures = []
    w0, w1 = _floats(sec["d_window"])
    dw = [r for r in rows if w0 - 1e-9 <= r["t"] <= w1 + 1e-9]
    # d with its time-error bar must stay inside the bracket
    d_low = [r["d"] - r["d_time_err"] for r in dw]
    d_high = [r["d"] + r["d_time_err"] for r in dw]
    d_lo, d_hi = float(sec["d_lo"]), float(sec["d_hi"])
    if not dw:
        failures.append("no samples in the d(t) window")
    elif min(d_low) < d_lo or max(d_high) > d_hi:
        failures.append(f"d(t) with its time-error bar left [{d_lo}, {d_hi}]: "
                        f"range [{min(d_low):.4f}, {max(d_high):.4f}]")
    trend = [r for r in rows if r["t"] >= float(sec["trend_from"])]
    slope_d = _trend_slope([r["t"] for r in trend], [abs(r["d"] - 2.5) for r in trend])
    slope_r = _trend_slope([r["t"] for r in trend], [abs(r["r"] - 1.0) for r in trend])
    if slope_d > float(sec["trend_slope_tol"]):
        failures.append(f"|d - 5/2| trend not decreasing (slope {slope_d:.2e})")
    r_end = rows[-1]["r"]
    if not (float(sec["r_lo"]) <= r_end <= float(sec["r_hi"])):
        failures.append(f"L1 ratio at t_end = {r_end:.3f} outside bracket")
    if slope_r > float(sec["trend_slope_tol"]):
        failures.append(f"|r - 1| trend not decreasing (slope {slope_r:.2e})")
    return failures, {"d_final": rows[-1]["d"], "r_final": r_end,
                      "d_trend_slope": slope_d, "r_trend_slope": slope_r,
                      "d_time_err": max((r["d_time_err"] for r in dw), default=None)}


def profile_gate(rows: list[dict], sec) -> list[str]:
    """E(t) of the _series rows decreases from [profile] decrease_from on,
    and E(t_end) is at most [profile] e_max."""
    failures = []
    tail = [r["E"] for r in rows if r["t"] >= float(sec["decrease_from"])]
    if any(e2 > e1 + 1e-12 for e1, e2 in zip(tail, tail[1:])):
        failures.append("profile error E(t) not decreasing beyond "
                        + sec["decrease_from"])
    if rows[-1]["E"] > float(sec["e_max"]):
        failures.append(f"E(t_end) = {rows[-1]['E']:.3f} > {sec['e_max']}")
    return failures


def sandwich_gate(report: bar.ShiftReport) -> list[str]:
    """Each barrier is compared at some time (else it orders nothing), and
    each side's worst violation at its shift is within the slack."""
    sides = ((bar.LOWER, report.n_times_lower, report.worst_lower),
             (bar.UPPER, report.n_times_upper, report.worst_upper))
    failures = [f"no time compares the {kind} barrier" for kind, n, _ in sides if n == 0]
    return failures + [f"{kind} barrier's worst violation {worst:.3e} above the "
                       f"slack {report.slack:g}"
                       for kind, _, worst in sides if not worst <= report.slack]


# ---------------------------------------------------------------------------
# shared builders


@functools.lru_cache(maxsize=1)
def _solve_inputs(cfg):
    """The critical solve's u0 on the [solve] grid, SolverConfig, t_end and outputs."""
    sec = cfg["solve"]
    grid = make_graded_grid(int(sec["n"]), float(sec["x_min"]),
                            float(sec["grading_ratio"]))
    right_bc = float(sec["right_bc"])
    pde.check_central_faces(grid, right_bc)
    u0 = Snapshot(grid=grid, values=right_bc * grid.nodes, time=0.0,
                  left_bc=0.0, right_bc=right_bc)
    solver_cfg = pde.SolverConfig(local_error_tol=float(sec["local_error_tol"]))
    t_end, out_times = float(sec["t_end"]), _floats(sec["output_times"])
    # rate and profile read the last snapshot, and the manifest the first
    if not any(t > 0.0 for t in out_times):
        raise NumericsError("[solve] output_times needs a time > 0")
    return u0, solver_cfg, t_end, out_times


def _refuse_bad_config(cfg) -> None:
    """Each bound's own library check, on the configured values, before any command."""
    _solve_inputs(cfg)
    _lattice(cfg)
    check_per_decade("npd", int(cfg["tabulate"]["npd"]))
    check_per_decade("y_resolution", int(cfg["certify"]["y_resolution"]))
    bar.check_shift_lattice(float(cfg["sandwich"]["lattice"]))


@functools.lru_cache(maxsize=1)
def _run_critical(cfg, quiet: bool) -> pde.Trajectory:
    """The run's one critical solve; solve, rate, profile and sandwich read it."""
    u0, solver_cfg, t_end, out_times = _solve_inputs(cfg)
    _say(quiet, f"solving to t = {t_end} on {u0.grid.n} nodes ...")
    return pde.solve(u0, solver_cfg, t_end, out_times)


@functools.lru_cache(maxsize=1)
def _series(cfg, quiet: bool) -> list[dict]:
    """The run's one observable series, a row per output time t > 0: the
    origin slope and its fit (rate and profile count the early fallbacks to
    the one-sided ratio), d = log slope - sqrt(2t) with its time-error bar,
    the L1 distance l1 to 1 over sqrt(2t) e^(-5/2 - sqrt(2t)) as r, and the
    profile error E against (1 - x)/(1 + slope x)."""
    traj = _run_critical(cfg, quiet)
    rows = []
    for s, bar_d in zip(traj.snapshots, traj.d_time_err):
        if s.time > 0.0:
            info, l1, x = pde.slope_origin_info(s), pde.l1_to_one(s), s.grid.nodes
            root = np.sqrt(2.0 * s.time)
            rows.append({
                "t": s.time, "slope": info.value, "method": info.method,
                "fit_residual": info.fit_residual,
                "d": float(np.log(info.value) - root), "d_time_err": float(bar_d),
                "l1": l1, "r": float(l1 / (root * np.exp(-2.5 - root))),
                "E": float(np.max(np.abs((1.0 - s.values) * (1.0 + info.value * x)
                                         - (1.0 - x))))})
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_tabulate(cfg, out: Path, quiet: bool) -> int:
    sec = cfg["tabulate"]
    table = _barriers(cfg, quiet)[0].table
    report = check_asymptotics(table, _floats(sec["sweep"]), float(sec["growth_tol"]))
    (out / "special_table.csv").write_text(ser.table_to_csv(table))
    ser.dump_json(ser.table_header_json(table), out / "special_table.json")

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
    w0, w1 = _floats(sec["bracket_window"])
    paths, devs = _barrier_paths(cfg), []
    for path in paths:
        tag = f"k{path.K:g}".replace(".", "p")
        (out / f"path_{tag}.csv").write_text(ser.path_to_csv(path))
        ser.dump_json(ser.path_header_json(path), out / f"path_{tag}.json")
        ts = np.linspace(w0, min(w1, path.t_end), 60)
        devs.append(path.loga_at(ts) - np.sqrt(2.0 * ts))
        _say(quiet, f"match K={path.K}: deviation range "
                    f"[{devs[-1].min():.4f}, {devs[-1].max():.4f}]")
    return _verdict(out / "match_verdict.json",
                    match_gate(paths[0].K, devs[0], sec), quiet)


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
    table = SpecialFunctions(y_max, npd=int(tab["npd"]))
    specs = (bar.BarrierSpec(kind=bar.LOWER, path=path_lo, table=table),
             bar.BarrierSpec(kind=bar.UPPER, path=path_up, table=table))
    return specs + tuple(bar.check_boundary_matching(spec, _lattice(cfg))
                         for spec in specs)


def cmd_certify(cfg, out: Path, quiet: bool) -> int:
    lower, upper, bnd_lo, bnd_up = _barriers(cfg, quiet)
    sec = cfg["certify"]
    ts = _lattice(cfg)

    residuals = [bar.certify_sign(spec, ts, int(sec["y_resolution"]))
                 for spec in (lower, upper)]
    for rep in residuals:
        ser.dump_json(ser.residual_report_to_json(rep), out / f"residual_{rep.kind}.json")
        _say(quiet, f"{rep.kind} residual: sign_ok={rep.sign_ok} "
                    f"threshold_T={rep.threshold_T} worst={rep.worst_value:.3e}")
    _say(quiet, f"lower barrier slope > 0: {residuals[0].slope_ok}")

    for rep in (bnd_lo, bnd_up):
        ser.dump_json({"kind": rep.kind, "K": ser.fmt(rep.K),
                       "onset_t": _fmt_or_none(rep.onset_t),
                       "ok_beyond": rep.ok_beyond},
                      out / f"boundary_{rep.kind}.json")
        _say(quiet, f"{rep.kind} boundary matching onset: {rep.onset_t}")

    # deliberate K swaps must fail the matching inequalities at large time
    swaps = [bar.check_boundary_matching(
                 bar.BarrierSpec(kind=kind, path=mat.integrate_a(float(sec[key]),
                                                                 _path_end(cfg)),
                                 table=lower.table), ts)
             for kind, key in ((bar.LOWER, "k_lower_swap"), (bar.UPPER, "k_upper_swap"))]
    for rep in swaps:
        _say(quiet, f"swapped {rep.kind} K={rep.K:g}: matching fails as predicted: "
                    f"{rep.onset_t is None}")

    return _verdict(out / "certify_verdict.json",
                    certify_gate(residuals, (bnd_lo, bnd_up), swaps, ts[-1]), quiet,
                    swaps={f"{rep.kind}_K{rep.K:g}": rep.onset_t is None for rep in swaps},
                    lattice_t_end=ser.fmt(ts[-1]))


def cmd_solve(cfg, out: Path, quiet: bool) -> int:
    traj = _run_critical(cfg, quiet)
    cmd_solve_from(traj, out)
    _say(quiet, f"solve: {len(traj.step_times)} steps, "
                f"{len(traj.snapshots)} snapshots")
    return 0


def cmd_rate(cfg, out: Path, quiet: bool) -> int:
    rows = _series(cfg, quiet)
    cols = ("t", "slope", "method", "fit_residual", "d", "d_time_err", "l1", "r")
    (out / "rate.csv").write_text("\n".join(
        [",".join(cols)] + [",".join(r[c] if c == "method" else ser.fmt(r[c])
                                     for c in cols) for r in rows]) + "\n")
    failures, numbers = rate_gate(rows, cfg["rate"])
    _say(quiet, f"rate: d(t_end) = {rows[-1]['d']:.4f}, r(t_end) = {rows[-1]['r']:.3f}")
    return _verdict(out / "rate_verdict.json", failures, quiet,
                    **{k: _fmt_or_none(v) for k, v in numbers.items()},
                    n_ratio_fallbacks=sum(r["method"] == "ratio" for r in rows))


def cmd_profile(cfg, out: Path, quiet: bool) -> int:
    rows = _series(cfg, quiet)
    (out / "profile.csv").write_text("\n".join(
        ["t,ahat,E"] + [",".join(ser.fmt(r[c]) for c in ("t", "slope", "E"))
                        for r in rows]) + "\n")
    _say(quiet, f"profile: E(t_end) = {rows[-1]['E']:.4f}")
    return _verdict(out / "profile_verdict.json", profile_gate(rows, cfg["profile"]),
                    quiet, E_final=ser.fmt(rows[-1]["E"]),
                    n_ratio_fallbacks=sum(r["method"] == "ratio" for r in rows))


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
    failures = sandwich_gate(report)
    ser.dump_json({"T1": ser.fmt(report.T1), "T2": ser.fmt(report.T2),
                   "lower_onset": ser.fmt(report.lower_onset),
                   "upper_onset": ser.fmt(report.upper_onset),
                   "worst_lower": ser.fmt(report.worst_lower),
                   "worst_upper": ser.fmt(report.worst_upper),
                   "n_times_lower": report.n_times_lower,
                   "n_times_upper": report.n_times_upper,
                   "max_t_lower": _fmt_or_none(report.max_t_lower),
                   "max_t_upper": _fmt_or_none(report.max_t_upper),
                   "ok": not failures}, out / "sandwich.json")
    _say(quiet, f"sandwich: T1 = {report.T1}, T2 = {report.T2}, ok = {not failures}")
    return _report(failures, quiet)


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


def _percentiles(values, percents) -> np.ndarray:
    """np.percentile(values, percents) by numpy's default "linear" rule, to
    the bit: virtual index (n - 1) q, then numpy's _lerp with its t >= 0.5
    branch.  np.percentile would import numpy.ma, which a run never uses."""
    v = np.sort(np.asarray(values, dtype=float))
    at = (len(v) - 1) * (np.asarray(percents, dtype=float) / 100)
    lo = np.floor(at)
    t = at - lo
    lo = lo.astype(np.intp)
    a, b = v[lo], v[np.minimum(lo + 1, len(v) - 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _manifest(traj) -> dict:
    dt_p10, dt_p50, dt_p90 = _percentiles(traj.step_sizes, [10, 50, 90])
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
    # built per call, so a handler wrapped after import runs wrapped
    commands = {"tabulate": cmd_tabulate, "match": cmd_match, "certify": cmd_certify,
                "solve": cmd_solve, "rate": cmd_rate, "profile": cmd_profile,
                "sandwich": cmd_sandwich, "all": cmd_all}
    parser = argparse.ArgumentParser(
        prog="ksgrowup",
        description="critical-mass chemotaxis grow-up experiments")
    parser.add_argument("command", choices=commands)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        _refuse_bad_config(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return commands[args.command](cfg, out, args.quiet)
    except (NumericsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
