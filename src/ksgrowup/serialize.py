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
from .grids import GradedGrid, Snapshot
from .matching import MatchingPath
from .specialfn import GL_ORDER, SpecialTable


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# -- snapshots / radial fields ----------------------------------------------


def snapshot_to_csv(snap: Snapshot) -> str:
    return _csv(zip(snap.grid.nodes, snap.values), ["x", "value"])


def snapshot_to_json(snap: Snapshot) -> dict:
    return {
        "grid": [fmt(v) for v in snap.grid.nodes],
        "values": [fmt(v) for v in snap.values],
        "time": fmt(snap.time),
        "bc": [fmt(snap.left_bc), fmt(snap.right_bc)],
    }


def snapshot_from_json(rec: dict) -> Snapshot:
    nodes = np.array([float(v) for v in rec["grid"]])
    values = np.array([float(v) for v in rec["values"]])
    left, right = (float(v) for v in rec["bc"])
    return Snapshot(grid=GradedGrid.from_nodes(nodes), values=values,
                    time=float(rec["time"]), left_bc=left, right_bc=right)


def read_xy_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = [ln for ln in text.strip().splitlines()[1:] if ln]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    return data[:, 0], data[:, 1]


# -- special-function tables -------------------------------------------------


def table_to_csv(table: SpecialTable) -> str:
    rows = zip(table.y, table.f, table.f_prime, table.tilde_f,
               table.g, table.g_prime, table.h, table.h_prime)
    return _csv(rows, ["y", "f", "f'", "tilde_f", "g", "g'", "h", "h'"])


def table_header_json(table: SpecialTable, npd: int | None = None) -> dict:
    return {
        "M": fmt(table.M),
        "y_max": fmt(table.y_max),
        "phi_blend": {"join": fmt(table.phi.join), "slope0": fmt(table.phi.slope0)},
        "nodes_per_decade": npd,
        "gauss_legendre_order": GL_ORDER,
        "n_nodes": int(len(table.y)),
    }


def read_table_csv(text: str) -> dict:
    lines = [ln for ln in text.strip().splitlines() if ln]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


# -- matching paths -----------------------------------------------------------


def path_to_csv(path: MatchingPath) -> str:
    rows = zip(path.t, path.a, path.a_prime, path.b, path.gamma)
    return _csv(rows, ["t", "a", "a'", "b", "gamma"])


def path_header_json(path: MatchingPath, sigma_step: float | None = None) -> dict:
    return {
        "K": fmt(path.K),
        "t_end": fmt(path.t_end),
        # exact knots; between them cubic Hermite in sigma, fourth order
        "integrator": "exact-knots-sigma",
        "integrator_order": 4,
        "sigma_step": None if sigma_step is None else fmt(sigma_step),
        "n_knots": int(len(path.sigma_knots)),
    }


def read_path_csv(text: str) -> dict:
    lines = [ln for ln in text.strip().splitlines() if ln]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


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
