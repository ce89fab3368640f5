import configparser
import json
import os
import re
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ksgrowup import cli
from ksgrowup.cli import main
from ksgrowup.grids import sorted_unique

SMALL_SOLVE = """
[solve]
n = 140
x_min = 1e-6
grading_ratio = 1.12
t_end = 3
output_times = 0.25,0.5,1,2,3

[rate]
d_window = 1,3
d_lo = -1.0
d_hi = 3.0
r_lo = 0.1
r_hi = 20.0
trend_from = 0.5
trend_slope_tol = 10.0

[profile]
e_max = 2.0
decrease_from = 2
"""


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(SMALL_SOLVE)
    return str(p)


class TestCommands:
    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, name", [
        ("[solve]\nt_edn = 10\n", "t_edn"),          # a mistyped key
        ("[sandwich]\nk_upper = 7\n", "k_upper"),    # moved to [barriers]
        ("[sovle]\nt_end = 10\n", "sovle"),          # a mistyped section
        ("[tabulate]\ny_max = 1e6\n", "y_max"),      # derived now
        ("[barriers]\nnpd = 40\n", "npd"),           # moved to [tabulate]
        ("[solve]\nscheme = be\n", "scheme"),        # TR-BDF2 is the only one
        ("[match]\nt_end = 1000\n", "t_end"),        # the barrier paths' end
        ("[match]\nsigma_step = 0.005\n", "sigma_step"),  # once in [barriers], now gone
        ("[match]\nhalving_rtol = 1e-8\n", "halving_rtol"),  # once dense_rtol, now gone
        ("[solve]\nnewton_tol = 1e-11\n", "newton_tol"),  # one scaled Newton bar
        ("[solve]\nreg_epsilon = 0\n", "reg_epsilon"),    # the operator has no eps
        ("[solve]\ndt_initial = 1e-7\n", "dt_initial"),   # a constant of the solver
        ("[barriers]\nsigma_step = 0.005\n", "sigma_step"),  # the paths are exact
        ("[match]\ndense_rtol = 1e-8\n", "dense_rtol"),      # nothing is interpolated
        ("[certify]\nboundary_t_hi = 3000\n", "boundary_t_hi"),  # one lattice
        ("[solve]\ndt_max = 0.05\n", "dt_max"),  # the error test alone sizes steps
    ], ids=["key", "moved_key", "section", "derived_y_max", "moved_npd",
            "removed_scheme", "removed_match_t_end", "moved_sigma_step",
            "renamed_halving_rtol", "removed_newton_tol", "removed_reg_epsilon",
            "removed_dt_initial", "removed_sigma_step", "removed_dense_rtol",
            "removed_boundary_t_hi", "removed_dt_max"])
    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert name in capsys.readouterr().err

    def test_local_error_tol_none_is_exit_2(self, tmp_path, capsys):
        # a run's steps are sized by the local-error test: the CLI takes no
        # fixed steps (local_error_tol = none)
        cfg = tmp_path / "fixed.ini"
        cfg.write_text("[solve]\nlocal_error_tol = none\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[solve] local_error_tol = none" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[certify]\ny_resolution = 0\n", "[sandwich]\nlattice = 0\n",
        "[solve]\nn = 3\n", "[solve]\nt_end = 1\noutput_times = -1,1\n",
        "[solve]\nlocal_error_tol = 0\n", "[solve]\nlocal_error_tol = -1e-6\n",
        "[solve]\nlocal_error_tol = nan\n", "[solve]\nlocal_error_tol = inf\n",
        "[sandwich]\nshift_max = inf\n", "[solve]\nt_end = inf\noutput_times = 1\n",
        "[tabulate]\nsweep = 1e4,nan\n",
        "[solve]\nright_bc = 0.95\n[rate]\nd_lo = nan\ntrend_slope_tol = nan\n",
        "[match]\nbracket_lo = nan\n", "[profile]\ne_max = nan\n",
        "[sandwich]\nslack = nan\n",
    ], ids=["y_resolution", "lattice", "solve_n", "output_times", "tol_0",
            "tol_negative", "tol_nan", "tol_inf", "shift_max_inf", "t_end_inf",
            "sweep_nan", "rate_brackets_nan", "bracket_lo_nan", "e_max_nan",
            "slack_nan"])
    def test_all_refuses_a_bad_value_before_any_file(self, tmp_path, text):
        # each bound is checked before the first command runs, so a bad
        # value late in the pipeline leaves no verdict of an earlier stage.
        # A tolerance <= 0, NaN or infinite would leave the steps unchecked
        # (a negative one lets 34 steps of up to 5.0 pass every verdict).
        # No value may be infinite or NaN: an infinite lattice end overflows,
        # a NaN sweep member passes every ratio check, and a NaN bracket
        # turns its comparison false (the rate verdict of the subcritical
        # right_bc = 0.95 fails 4 times with finite brackets, once with these)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["all", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2
        assert list(out.rglob("*")) == []

    def test_sandwich_refuses_a_bad_lattice_before_the_solve(self, tmp_path,
                                                            monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("pde.solve called for a refused configuration")

        monkeypatch.setattr(cli.pde, "solve", no_solve)
        cfg = tmp_path / "s.ini"
        cfg.write_text("[sandwich]\nlattice = 0\n")
        assert main(["sandwich", "--config", str(cfg), "--out",
                     str(tmp_path / "s"), "--quiet"]) == 2

    def test_grid_with_an_unresolved_central_face_is_exit_2(self, tmp_path, capsys):
        # ratio 1 gives one cell of x_min, then equal cells of 2.4e-3: face 1
        # would reach a cell Peclet number of 489, so the grid is refused
        cfg = tmp_path / "uniform.ini"
        cfg.write_text("[solve]\ngrading_ratio = 1.0\nt_end = 1\n"
                       "output_times = 0.25,1\n")
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert re.search(r"grid refused: face 1 .* Peclet number of 489 > 2",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("command, text, name", [
        ("tabulate", "[tabulate]\nnpd = 0\n", "npd"),
        ("tabulate", "[tabulate]\nnpd = -3\n", "npd"),
        ("certify", "[certify]\ny_resolution = 0\n", "y_resolution"),
        ("certify", "[certify]\ny_resolution = -1\n", "y_resolution"),
    ], ids=["npd_0", "npd_negative", "y_resolution_0", "y_resolution_negative"])
    def test_resolution_below_one_per_decade_is_exit_2(self, tmp_path, capsys,
                                                       command, text, name):
        # no table partition, and no residual scan, has fewer than one
        # point per decade: refused before anything is computed with it
        cfg = tmp_path / "res.ini"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert list((tmp_path / "o").glob("*.json")) == []

    @pytest.mark.parametrize("lattice", ["0", "-0.25"])
    def test_sandwich_nonpositive_lattice_is_exit_2(self, tmp_path, lattice):
        # a shift search on a lattice <= 0 would never end; a fresh process
        # with a timeout makes a regression fail instead of hang
        cfg = tmp_path / "s.ini"
        cfg.write_text(SMALL_SOLVE + f"\n[sandwich]\nlattice = {lattice}\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "ksgrowup.cli", "sandwich", "--config",
             str(cfg), "--out", str(tmp_path / "s"), "--quiet"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2
        assert "lattice must be > 0" in proc.stderr
        assert not (tmp_path / "s" / "sandwich.json").exists()

    def test_solve_writes_snapshots(self, small_cfg, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--config", small_cfg, "--out", str(out),
                     "--quiet"]) == 0
        manifest = json.loads((out / "trajectory.json").read_text())
        assert manifest["grid_nodes"] == 140
        assert {"rejected_error_test", "rejected_newton"} <= manifest.keys()
        assert (out / "snapshot_t3.csv").exists()

    def test_rate_and_profile(self, small_cfg, tmp_path):
        out = tmp_path / "o"
        assert main(["rate", "--config", small_cfg, "--out", str(out),
                     "--quiet"]) == 0
        verdict = json.loads((out / "rate_verdict.json").read_text())
        assert verdict["ok"]
        assert float(verdict["d_time_err"]) > 0.0
        assert main(["profile", "--config", small_cfg, "--out", str(out),
                     "--quiet"]) == 0
        # both verdicts read the one series: the same slope, bit for bit
        # (17 significant digits)
        profile = json.loads((out / "profile_verdict.json").read_text())

        def column(name, csv):
            header, *lines = (out / csv).read_text().split()
            i = header.split(",").index(name)
            return [ln.split(",")[i] for ln in lines]
        assert column("ahat", "profile.csv") == column("slope", "rate.csv")
        assert "n_ratio_fallbacks" not in verdict.keys() | profile.keys()

    @pytest.mark.parametrize("edge", ["d_lo", "d_hi"])
    def test_rate_fails_when_the_bar_crosses_the_bracket(self, small_cfg,
                                                        tmp_path, edge):
        # a bracket edge between d and d -/+ its time-error bar: d alone
        # would pass, d with its bar does not
        out = tmp_path / "o"
        assert main(["rate", "--config", small_cfg, "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "rate.csv").read_text().split()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        window = [(float(r["d"]), float(r["d_time_err"])) for r in rows
                  if 1.0 <= float(r["t"]) <= 3.0]
        if edge == "d_lo":
            value = min(d for d, _ in window) - 0.5 * min(b for _, b in window)
            assert value > min(d - b for d, b in window)
        else:
            value = max(d for d, _ in window) + 0.5 * min(b for _, b in window)
            assert value < max(d + b for d, b in window)
        cfg = tmp_path / "edge.ini"
        cfg.write_text(re.sub(rf"^{edge} = .*$", f"{edge} = {value!r}", SMALL_SOLVE,
                              flags=re.M))
        assert main(["rate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 1
        verdict = json.loads((out / "rate_verdict.json").read_text())
        assert any("time-error bar" in f for f in verdict["failures"])

    def test_rate_deterministic(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["rate", "--config", small_cfg, "--out", str(a),
                     "--quiet"]) == 0
        assert main(["rate", "--config", small_cfg, "--out", str(b),
                     "--quiet"]) == 0
        assert (a / "rate.csv").read_bytes() == (b / "rate.csv").read_bytes()
        assert (a / "rate_verdict.json").read_bytes() == \
            (b / "rate_verdict.json").read_bytes()

    def test_all_deterministic(self, small_cfg, tmp_path):
        # every artifact of a run, not only rate's, is byte-identical on a
        # re-run (each run builds its own config, so nothing is reused)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["all", "--config", small_cfg, "--out", str(a),
                     "--quiet"]) == main(["all", "--config", small_cfg,
                                          "--out", str(b), "--quiet"])
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert {"summary.json", "sandwich.json", "rate.csv",
                "special_table.csv", "trajectory.json"} <= set(names)
        assert [n for n in names
                if (a / n).read_bytes() != (b / n).read_bytes()] == []

    def test_match_defaults_pass(self, tmp_path):
        out = tmp_path / "m"
        assert main(["match", "--out", str(out), "--quiet"]) == 0
        assert (out / "path_k5.csv").exists()
        assert (out / "path_k6.csv").exists()

    def test_match_alone_builds_no_table(self, tmp_path, monkeypatch):
        # match checks the barriers' paths; the special-function table and
        # the boundary reports are for the other commands
        from ksgrowup import specialfn
        builds = []
        init = specialfn.SpecialFunctions.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(specialfn.SpecialFunctions, "__init__", counting_init)
        assert main(["match", "--out", str(tmp_path / "m"), "--quiet"]) == 0
        assert builds == []

    def test_tabulate_small_sweep(self, tmp_path):
        out = tmp_path / "t"
        cfg = tmp_path / "t.ini"
        cfg.write_text("[tabulate]\nsweep = 1e4,3e4\n")
        assert main(["tabulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        hdr = json.loads((out / "special_table.json").read_text())
        assert float(hdr["M"]) == 3.0
        rep = json.loads((out / "asymptotics.json").read_text())
        assert rep["ok"]

    def test_tabulate_small_window_is_exit_2(self, tmp_path, capsys):
        # a sweep member below 1e4 leaves no asymptotic window to check:
        # the configuration is refused, whether or not a larger one follows
        for sweep in ("100", "100,1e4"):
            cfg = tmp_path / "w.ini"
            cfg.write_text(f"[tabulate]\nsweep = {sweep}\n")
            assert main(["tabulate", "--config", str(cfg), "--out",
                         str(tmp_path / "w"), "--quiet"]) == 2
            assert "y_max >= 1e4" in capsys.readouterr().err
            assert not (tmp_path / "w" / "asymptotics.json").exists()

    def test_tabulate_failing_ratio_is_exit_1(self, tmp_path, capsys):
        # growth_tol = 0.5 asks each ratio to fall to half its first value:
        # only h's and g2''s do, so 12 of the 14 claims fail, each naming
        # the bound it broke
        out = tmp_path / "t"
        cfg = tmp_path / "t.ini"
        cfg.write_text("[tabulate]\ngrowth_tol = 0.5\n")
        assert main(["tabulate", "--config", str(cfg), "--out", str(out)]) == 1
        rep = json.loads((out / "asymptotics.json").read_text())
        assert rep["ok"] is False and len(rep["failures"]) == 12
        assert ("FAIL: f: ratio 0.909 at y_max = 1e+06 above growth_tol 0.5 x 1.03 "
                "at y_max = 10000") in capsys.readouterr().out.splitlines()

    def test_tabulate_builds_one_partition(self, tmp_path, monkeypatch):
        # the asymptotics sweep reads its components on a prefix of the
        # table's partition: the run builds the table's alone
        from ksgrowup import specialfn
        builds = []
        build = specialfn.build_partition

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(specialfn, "build_partition", counting_build)
        assert main(["tabulate", "--out", str(tmp_path / "t"), "--quiet"]) == 0
        assert len(builds) == 1

    def test_solve_range_guard_is_exit_2(self, tmp_path, capsys):
        # above the critical boundary value the discrete solution overshoots
        # u(1) = 1.01 near t = 9.9, next to the origin as it steepens, and the
        # maximum-principle guard stops it, naming the excess and where
        cfg = tmp_path / "r.ini"
        cfg.write_text("[solve]\nright_bc = 1.01\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        assert ("values left [0, 1.01] at t = 9.87824: u = 1.010000011 lies "
                "1.133e-08 past it at x = 1e-08 (node 1)") in capsys.readouterr().err

    def test_certify_short_window_fails_scientifically(self, small_cfg,
                                                       tmp_path):
        # shift_max = 100 ends the lattice near t_end + 100 = 150, long
        # before the upper matching inequality holds (t ~ 1150): exit 1
        out = tmp_path / "c"
        cfg = tmp_path / "c.ini"
        cfg.write_text("[certify]\nt_lo = 0.5\nt_hi = 20\nn_t = 12\n"
                       "[sandwich]\nshift_max = 100\n")
        assert main(["certify", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 1
        verdict = json.loads((out / "certify_verdict.json").read_text())
        assert not verdict["ok"]
        assert 150.0 <= float(verdict["lattice_t_end"]) < 1150.0
        assert any("upper boundary" in f for f in verdict["failures"])

    def test_all_pipeline_default_config(self, tmp_path, monkeypatch):
        # the full default pipeline must pass and fit a laptop budget.  It
        # reads every default key (a key nothing reads is dead), and builds
        # one special-function table, wherever the build is called from:
        # tabulate writes it and sweeps the asymptotics on it, certify
        # certifies the barriers on it, and sandwich orders against them.
        # The barrier scans batch over times, so the table is evaluated in
        # few calls (284 when each scan made one call per time).  Match
        # checks the barrier set's own paths, so the run integrates four:
        # the two barriers' and certify's two swaps.
        import time
        from ksgrowup import matching, specialfn
        reads = set()
        builds = []
        table_evals = []
        paths = []
        integrate_a = matching.integrate_a
        init = specialfn.SpecialFunctions.__init__
        table_eval = specialfn.SpecialFunctions.eval

        class RecordingConfig(cli._Config):
            def get(self, section, option, **kwargs):
                reads.add((section, option))
                return super().get(section, option, **kwargs)

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        def counting_eval(self, yq):
            table_evals.append(np.size(yq))
            return table_eval(self, yq)

        def counting_integrate_a(*args, **kwargs):
            paths.append(args)
            return integrate_a(*args, **kwargs)

        monkeypatch.setattr(cli, "_Config", RecordingConfig)
        monkeypatch.setattr(specialfn.SpecialFunctions, "__init__", counting_init)
        monkeypatch.setattr(specialfn.SpecialFunctions, "eval", counting_eval)
        monkeypatch.setattr(matching, "integrate_a", counting_integrate_a)
        out = tmp_path / "all"
        t0 = time.perf_counter()
        assert main(["all", "--out", str(out), "--quiet"]) == 0
        assert time.perf_counter() - t0 < 900.0
        assert json.loads((out / "summary.json").read_text())["ok"]
        # the six verdict files share one shape: failures and ok
        for name in ("asymptotics", "match_verdict", "certify_verdict",
                     "rate_verdict", "profile_verdict", "sandwich"):
            verdict = json.loads((out / f"{name}.json").read_text())
            assert (verdict["failures"], verdict["ok"]) == ([], True), name

        defaults = configparser.ConfigParser()
        defaults.read_string(
            resources.files("ksgrowup").joinpath("defaults.ini").read_text())
        keys = {(name, key) for name in defaults.sections()
                for key in defaults[name]}
        assert keys - reads == set()
        assert len(builds) == 1
        assert len(table_evals) <= 80
        assert len(paths) == 4

        # TR-BDF2's error test alone sizes the steps: 359 steps with no
        # rejection, where a cap of 0.05 took 1091
        manifest = json.loads((out / "trajectory.json").read_text())
        assert manifest["dt_max"] is None
        assert manifest["n_steps"] <= 400
        assert manifest["rejected_error_test"] + manifest["rejected_newton"] <= 5
        hist = manifest["newton_iters_histogram"]
        assert sum(hist.values()) == manifest["n_steps"]

        # the headline numbers, pinned without freezing bits.  T1 and T2
        # are points of the 0.25 shift lattice.  The onsets are roots whose
        # sign is round-off over 1.8e-11 relative; 1e-9 admits that.  d(50)
        # has a time bar of 9.9e-4 and a space error of 1.9e-3; a move
        # below a tenth of the time bar is below what the run resolves, a
        # larger one changes the science and must be recorded here
        sandwich = json.loads((out / "sandwich.json").read_text())
        assert (float(sandwich["T1"]), float(sandwich["T2"])) == (0.75, 1150.5)
        assert float(sandwich["lower_onset"]) == pytest.approx(
            5.8409964273109569, rel=1e-9, abs=0.0)
        assert float(sandwich["upper_onset"]) == pytest.approx(
            1150.6036543108676, rel=1e-9, abs=0.0)
        d_final = float(json.loads((out / "rate_verdict.json").read_text())["d_final"])
        assert abs(d_final - 2.0836119038994116) <= 1e-4

    def test_sandwich_compares_inside_the_certified_lattice(self, tmp_path):
        # certify checks both barriers on one lattice; every barrier time
        # the sandwich compares (t - T1 and t + T2 at the snapshots) lies
        # on it, the upper ones (to t_end + T2 = 1200.5) included
        out = tmp_path / "all"
        assert main(["all", "--out", str(out), "--quiet"]) == 0
        end = float(json.loads((out / "certify_verdict.json").read_text())
                    ["lattice_t_end"])
        sandwich = json.loads((out / "sandwich.json").read_text())
        for kind in ("lower", "upper"):
            res = json.loads((out / f"residual_{kind}.json").read_text())
            t_lo, t_hi = (float(v) for v in res["box"]["t"])
            assert t_hi == end
            assert t_lo <= float(sandwich[f"{kind}_onset"])
            assert float(sandwich[f"max_t_{kind}"]) <= t_hi
        assert float(sandwich["max_t_upper"]) == 1200.5

    def test_sandwich_capped_shift_is_numeric_failure(self, small_cfg,
                                                      tmp_path):
        # shift_max far below the upper onset: ordering impossible, exit 2
        out = tmp_path / "s"
        cfg = tmp_path / "s.ini"
        cfg.write_text(SMALL_SOLVE + "\n[sandwich]\nshift_max = 30\n")
        assert main(["sandwich", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 2

    @pytest.mark.parametrize("command", ["rate", "all"])
    @pytest.mark.parametrize("times", ["", "0"], ids=["empty", "only_zero"])
    def test_no_output_time_after_zero_is_exit_2(self, tmp_path, capsys,
                                                 command, times):
        # rate, profile and the manifest read snapshots at t > 0: without
        # one the configuration is refused, not the science
        cfg = tmp_path / "times.ini"
        cfg.write_text(f"[solve]\noutput_times = {times}\n")
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert "output_times" in capsys.readouterr().err

    def test_negative_output_time_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "times.ini"
        cfg.write_text("[solve]\nt_end = 1\noutput_times = -1,1\n")
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
        assert "output times must lie in [0, t_end]" in capsys.readouterr().err

    def test_all_solves_once(self, small_cfg, tmp_path, capsys):
        # solve, rate, profile and sandwich read the run's one solve
        main(["all", "--config", small_cfg, "--out", str(tmp_path / "a")])
        printed = capsys.readouterr().out
        assert printed.count("solving to t = 3.0") == 1
        assert "solve: " in printed

    def test_sandwich_lower_matching_that_never_holds_fails(self, tmp_path):
        # K = 7 (certify's lower swap) never matches at x = 1: no time
        # compares the lower barrier, so the sandwich orders nothing: exit 1
        out = tmp_path / "s"
        cfg = tmp_path / "s.ini"
        cfg.write_text("[barriers]\nk_lower = 7\n")
        assert main(["sandwich", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 1
        verdict = json.loads((out / "sandwich.json").read_text())
        assert verdict["lower_onset"] == "inf"
        assert verdict["n_times_lower"] == 0
        assert not verdict["ok"]

    def test_sandwich_upper_matching_that_never_holds_is_exit_2(
            self, small_cfg, tmp_path, capsys):
        # K = 5 (certify's upper swap) never matches at x = 1: no shift can
        # order the solution below it, a numerical failure: exit 2
        cfg = tmp_path / "s.ini"
        cfg.write_text(SMALL_SOLVE + "\n[barriers]\nk_upper = 5\n")
        assert main(["sandwich", "--config", str(cfg), "--out",
                     str(tmp_path / "s"), "--quiet"]) == 2
        assert "never holds" in capsys.readouterr().err

    def test_sandwich_without_lower_comparison_fails(self, small_cfg, tmp_path,
                                                     capsys):
        # t_end = 3 ends before the lower onset (t ~ 5.8): no time compares
        # the lower barrier, so the sandwich orders nothing there: exit 1.
        # The failure is printed, and recorded in sandwich.json, as every
        # verdict prints and records its failures
        out = tmp_path / "s"
        assert main(["sandwich", "--config", small_cfg, "--out", str(out)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert [ln for ln in printed if ln.startswith("FAIL: ")] == [
            "FAIL: no time compares the lower barrier"]
        verdict = json.loads((out / "sandwich.json").read_text())
        assert verdict["n_times_lower"] == 0
        assert verdict["n_times_upper"] > 0
        assert not verdict["ok"]
        assert verdict["failures"] == ["no time compares the lower barrier"]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestNoMaskedArrayHelpers:
    """The run's stand-ins for np.percentile and np.unique, which import
    numpy.ma, give numpy's bits."""

    @pytest.mark.parametrize("values", [
        [0.3], [0.3, 0.1], [0.2, 0.2], [0.5, 0.1, 0.3], [0.1, 0.1, 0.1],
        [0.1, 0.4, 0.1], [1e-7, 3e-3, 3e-3, 0.2, 1e-7],
    ])
    @pytest.mark.parametrize("percents", [
        [10, 50, 90], [0, 25, 50, 75, 100], [30, 35, 65, 70],
    ])
    def test_percentiles_bits_of_np_percentile(self, values, percents):
        assert _same_bits(cli._percentiles(values, percents),
                          np.percentile(values, percents))

    @pytest.mark.parametrize("values", [
        [1.0], [2.0, 1.0], [1.0, 1.0], [3.0, 1.0, 2.0], [1.0, 1.0, 1.0],
        [2.0, 1.0, 2.0], [0.0, 1e-300, 0.0], [0.1 + 0.2, 0.3, 0.3],
        [1e-6, 0.0, 1e-6, 1.0, 2.0, 1.0],
    ])
    def test_sorted_unique_bits_of_np_unique(self, values):
        assert _same_bits(sorted_unique(values), np.unique(values))

    def test_sorted_unique_many_repeats(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 7, 500) * 0.1 + rng.integers(0, 3, 500) * 1e-17
        assert _same_bits(sorted_unique(v), np.unique(v))

    def test_each_call_site_of_the_default_run(self, tmp_path, monkeypatch):
        # the table partition, certify's scan union, the matching paths'
        # samples and the manifest's step-size percentiles of `all` at the
        # defaults: each input gives numpy's bits
        from ksgrowup import barriers, matching, specialfn
        calls = {}

        def recording(site, fn):
            def wrapped(*args):
                out = fn(*args)
                calls.setdefault(site, []).append((args, out))
                return out
            return wrapped

        for mod in (specialfn, barriers, matching):
            monkeypatch.setattr(mod, "sorted_unique",
                                recording(mod.__name__, mod.sorted_unique))
        monkeypatch.setattr(cli, "_percentiles",
                            recording("percentiles", cli._percentiles))
        assert main(["all", "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert sorted(calls) == ["ksgrowup.barriers", "ksgrowup.matching",
                                 "ksgrowup.specialfn", "percentiles"]
        for site, records in calls.items():
            for args, out in records:
                want = (np.percentile(*args) if site == "percentiles"
                        else np.unique(*args))
                assert _same_bits(out, want), site
