"""CSV/JSON persistence with bit-exact float round trips.

All numbers are written as decimal strings with 17 significant digits,
which reproduce the original float64 exactly on parse; re-running a
command therefore produces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .barriers import ResidualReport
from .grids import Snapshot
from .matching import MatchingPath
from .specialfn import GL_ORDER, SpecialFunctions


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(columns, header) -> str:
    """One line per row of the columns, each value written as fmt writes it
    ("%.17g" formats a float as f"{x:.17g}" does), one format call per row."""
    row = ",".join(["%.17g"] * len(header))
    lines = [row % tuple(r) for r in np.column_stack(columns).tolist()]
    return "\n".join([",".join(header), *lines]) + "\n"


# -- snapshots ----------------------------------------------------------------


def snapshot_to_csv(snap: Snapshot) -> str:
    return _csv((snap.grid.nodes, snap.values), ["x", "value"])


# -- special-function tables -------------------------------------------------


def table_to_csv(table: SpecialFunctions) -> str:
    T = table.eval(table.y)
    columns = (table.y, T["f"], T["f_prime"], table.tilde_f(table.y),
               T["g"], T["g_prime"], T["h"], T["h_prime"])
    return _csv(columns, ["y", "f", "f'", "tilde_f", "g", "g'", "h", "h'"])


def table_header_json(table: SpecialFunctions) -> dict:
    return {
        "M": fmt(table.M),
        "y_max": fmt(table.y_max),
        "phi_blend": {"join": fmt(table.phi.join), "slope0": fmt(table.phi.slope0)},
        "nodes_per_decade": table.npd,
        "gauss_legendre_order": GL_ORDER,
        "n_nodes": int(len(table.y)),
    }


# -- matching paths -----------------------------------------------------------


def path_to_csv(path: MatchingPath) -> str:
    columns = (path.t, path.a, path.a_prime, path.b, path.gamma)
    return _csv(columns, ["t", "a", "a'", "b", "gamma"])


def path_header_json(path: MatchingPath) -> dict:
    # every row solves the exact t(log a) at its time
    return {"K": fmt(path.K), "t_end": fmt(path.t_end),
            "integrator": "exact-inverse"}


# -- reports ------------------------------------------------------------------


def residual_report_to_json(rep: ResidualReport) -> dict:
    return {
        "kind": rep.kind,
        "K": fmt(rep.K),
        "M": fmt(rep.M),
        "box": {"x": [fmt(v) for v in rep.x_range],
                "t": [fmt(v) for v in rep.t_range]},
        "threshold_T": None if rep.threshold_T is None else fmt(rep.threshold_T),
        "worst_value": fmt(rep.worst_value),
        "worst_location": [fmt(v) for v in rep.worst_location],
        "sign_ok": bool(rep.sign_ok),
    }


def dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
