"""The verdict gates on hand-built evidence, without a run or cli.main.

Each gate gets evidence that passes, then evidence that breaks exactly one of
its conditions, and must report that failure and no other.  The config
sections are the packaged defaults, with single keys overridden.
"""

import dataclasses

import numpy as np
import pytest

from ksgrowup import cli
from ksgrowup.barriers import BoundaryReport, ResidualReport, ShiftReport

DEFAULTS = cli._load_config(None)


def section(name, **overrides):
    return {**DEFAULTS[name], **overrides}


def only(failures, text):
    assert len(failures) == 1 and text in failures[0], failures


# -- match ---------------------------------------------------------------------


class TestMatchGate:
    def test_passes(self):
        assert cli.match_gate(5.0, np.linspace(2.17, 2.36, 60), section("match")) == []

    @pytest.mark.parametrize("dev", [np.linspace(1.8, 1.9, 60),
                                     np.linspace(3.2, 3.1, 60)],
                             ids=["below", "above"])
    def test_outside_the_bracket(self, dev):
        # |dev - 5/2| still decreases: only the bracket fails
        only(cli.match_gate(5.0, dev, section("match")), "K=5.0: log a - sqrt(2t) left")

    def test_moving_away_from_five_halves(self):
        only(cli.match_gate(5.0, np.linspace(2.36, 2.17, 60), section("match")),
             "not nonincreasing")


# -- certify -------------------------------------------------------------------


def residual(kind, sign_ok=True, slope_ok=None):
    return ResidualReport(kind=kind, K=5.0, M=1.0, x_range=(0.0, 1.0),
                          t_range=(0.5, 2244.8), threshold_T=0.7 if sign_ok else None,
                          worst_value=-1e-9, worst_location=(0.5, 1.0),
                          sign_ok=sign_ok, slope_ok=slope_ok)


def boundary(kind, K, onset_t):
    return BoundaryReport(kind=kind, K=K, onset_t=onset_t,
                          ok_beyond=onset_t is not None)


class TestCertifyGate:
    def evidence(self):
        return {"residuals": [residual("lower", slope_ok=True), residual("upper")],
                "boundaries": [boundary("lower", 5.0, 5.84),
                               boundary("upper", 6.0, 1150.6)],
                "swaps": [boundary("lower", 7.0, None), boundary("upper", 5.0, None)],
                "t_last": 2244.78}

    def test_passes(self):
        assert cli.certify_gate(**self.evidence()) == []

    @pytest.mark.parametrize("side", [0, 1])
    def test_residual_sign(self, side):
        ev = self.evidence()
        ev["residuals"][side] = dataclasses.replace(ev["residuals"][side], sign_ok=False)
        only(cli.certify_gate(**ev), f"{('lower', 'upper')[side]} residual sign")

    def test_lower_slope(self):
        ev = self.evidence()
        ev["residuals"][0] = residual("lower", slope_ok=False)
        only(cli.certify_gate(**ev), "lower barrier not increasing")

    @pytest.mark.parametrize("side", [0, 1])
    def test_boundary_matching(self, side):
        ev = self.evidence()
        rep = ev["boundaries"][side]
        ev["boundaries"][side] = boundary(rep.kind, rep.K, None)
        only(cli.certify_gate(**ev),
             f"{rep.kind} boundary matching never holds up to 2244.78")

    @pytest.mark.parametrize("side", [0, 1])
    def test_swap_that_matches(self, side):
        ev = self.evidence()
        rep = ev["swaps"][side]
        ev["swaps"][side] = boundary(rep.kind, rep.K, 100.0)
        only(cli.certify_gate(**ev), f"swapped {rep.kind} K={rep.K:g} unexpectedly")


# -- rate and profile ----------------------------------------------------------

TIMES = [1.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def rows(d=lambda t: 2.5 - 1.0 / t, r=lambda t: 1.0 + 1.0 / t,
         E=lambda t: 1.0 / t):
    # |d - 5/2|, |r - 1| and E all decrease; the first row took the ratio
    return [{"t": t, "method": "ratio" if t < 10 else "fit", "d": d(t),
             "d_time_err": 1e-3, "r": r(t), "E": E(t)} for t in TIMES]


class TestRateGate:
    def test_passes_and_records_its_numbers(self):
        failures, numbers = cli.rate_gate(rows(), section("rate"))
        assert failures == []
        assert numbers["d_final"] == 2.5 - 1.0 / 50.0
        assert numbers["r_final"] == 1.0 + 1.0 / 50.0
        assert numbers["d_time_err"] == 1e-3
        assert numbers["d_trend_slope"] < 0.0 and numbers["r_trend_slope"] < 0.0

    def test_no_samples_in_the_window(self):
        failures, numbers = cli.rate_gate(rows(), section("rate", d_window="60,70"))
        only(failures, "no samples in the d(t) window")
        assert numbers["d_time_err"] is None

    @pytest.mark.parametrize("edge", ["d_lo", "d_hi"])
    def test_bar_crosses_the_bracket(self, edge):
        # the edge lies between d and d -/+ its bar: d alone would pass
        ds = [r["d"] for r in rows() if r["t"] >= 20.0]
        value = min(ds) - 5e-4 if edge == "d_lo" else max(ds) + 5e-4
        failures, _ = cli.rate_gate(rows(), section("rate", **{edge: repr(value)}))
        only(failures, "d(t) with its time-error bar left")

    def test_d_moving_away_from_five_halves(self):
        failures, _ = cli.rate_gate(rows(d=lambda t: 2.5 - t / 100.0), section("rate"))
        only(failures, "|d - 5/2| trend not decreasing")

    def test_r_outside_its_bracket(self):
        failures, _ = cli.rate_gate(rows(), section("rate", r_hi="1.01"))
        only(failures, "L1 ratio at t_end = 1.020 outside bracket")

    def test_r_moving_away_from_one(self):
        failures, _ = cli.rate_gate(rows(r=lambda t: 1.0 + t / 100.0), section("rate"))
        only(failures, "|r - 1| trend not decreasing")


class TestProfileGate:
    def test_passes(self):
        assert cli.profile_gate(rows(), section("profile")) == []

    def test_not_decreasing(self):
        bump = rows(E=lambda t: 0.2 if t == 30.0 else 1.0 / t)
        only(cli.profile_gate(bump, section("profile")),
             "profile error E(t) not decreasing beyond 10")

    def test_above_e_max(self):
        only(cli.profile_gate(rows(), section("profile", e_max="0.01")),
             "E(t_end) = 0.020 > 0.01")


# -- sandwich ------------------------------------------------------------------


ORDERED = ShiftReport(T1=0.75, T2=1150.5, slack=1e-9, lower_onset=5.84,
                      upper_onset=1150.6, n_times_lower=9, n_times_upper=12,
                      max_t_lower=49.25, max_t_upper=1200.5,
                      worst_lower=-1e-3, worst_upper=-1e-4)


class TestSandwichGate:
    def test_passes(self):
        assert cli.sandwich_gate(ORDERED) == []

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_no_time_compares_a_barrier(self, kind):
        # a side compared at no time has no violation: max() of nothing
        report = dataclasses.replace(ORDERED, **{f"n_times_{kind}": 0,
                                                 f"max_t_{kind}": None,
                                                 f"worst_{kind}": -np.inf})
        only(cli.sandwich_gate(report), f"no time compares the {kind} barrier")

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    @pytest.mark.parametrize("worst", [1e-6, np.nan])
    def test_worst_violation_above_the_slack(self, kind, worst):
        report = dataclasses.replace(ORDERED, **{f"worst_{kind}": worst})
        only(cli.sandwich_gate(report), f"{kind} barrier's worst violation")
